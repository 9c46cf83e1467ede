"""Command surface: outputs, exit codes, round trips, determinism."""

import gc
import importlib
import json
import os
import subprocess
import sys
from math import pi
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import hyperstokes
from hyperstokes import HyperstokesError, bent_rod, classical_oseen, octahedron_frame, rod
from hyperstokes.cli import main, nondim
from hyperstokes.serialize import body_from_dict, body_to_dict, json_text, load_body


_SCIPY_PROBE = """
import sys
from hyperstokes import _lapack, cli
from hyperstokes.serialize import body_to_dict, json_text
from hyperstokes.geometry import helix, tripod_tetrahedron
args = sys.argv[1:]
if args:
    body = helix(0.2, 0.1, 3) if args[1].endswith("helix.json") else tripod_tetrahedron(1.0)
    with open(args[1], "w") as f:
        f.write(json_text(body_to_dict(body)))
    cli.main(args, standalone_mode=False)
print(_lapack.SOURCE, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _fresh_python(*args, check=True):
    """``python *args`` in a fresh interpreter that imports this checkout's ``src/``."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": str(src)},
                          check=check, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("args, body", [
    ([], "tripod"),
    (["freefall"], "tripod"),
    (["fixed-points"], "tripod"),
    (["symmetry", "--transform", "1", "0", "0", "0", "-0.5", "-0.8660254037844386",
      "0", "0.8660254037844386", "-0.5"], "tripod"),
    (["resistance"], "helix"),  # the helix is factored as two split blocks
], ids=["import", "freefall", "fixed-points", "symmetry", "resistance-helix"])
def test_cli_loads_no_scipy(tmp_path, args, body):
    # a fresh interpreter: the other tests import scipy
    argv = [args[0], str(tmp_path / f"{body}.json"), *args[1:]] if args else []
    out = _fresh_python("-c", _SCIPY_PROBE, *argv)
    source, loaded = out.stdout.splitlines()[-1].split(" ", 1)
    if source != "numpy-openblas":
        pytest.skip("numpy's OpenBLAS was not found, so LAPACK comes from scipy")
    assert loaded == "[]"


def test_cli_import_loads_no_concurrent_futures():
    # concurrent.futures brings logging, traceback and string: 5-8 ms a process
    probe = "import sys, hyperstokes.cli; print('concurrent.futures' in sys.modules)"
    assert _fresh_python("-c", probe).stdout.split()[-1] == "False"


_SUBMODULE_PROBE = """
import sys
exec(sys.argv[1])
print(" ".join(sorted(m for m in sys.modules if m.startswith("hyperstokes."))))
"""


def _submodules_after(code: str) -> set[str]:
    """The hyperstokes submodules that ``code`` leaves loaded in a fresh interpreter."""
    out = _fresh_python("-c", _SUBMODULE_PROBE, code)
    return {m.removeprefix("hyperstokes.") for m in out.stdout.splitlines()[-1].split()}


def test_package_import_loads_no_submodule():
    assert _submodules_after("import hyperstokes") == set()


def test_cli_import_loads_no_solver_layer_above_resistance():
    # nor mobility and its LAPACK binding: body info, kernel eval and nondim never solve
    loaded = _submodules_after("import hyperstokes.cli")
    assert not loaded & {"dynamics", "symmetry", "freefall", "mobility", "_lapack"}


def test_resistance_command_loads_neither_dynamics_nor_symmetry(tmp_path):
    path = tmp_path / "tripod.json"
    loaded = _submodules_after(
        "from hyperstokes import cli\n"
        "from hyperstokes.geometry import tripod_tetrahedron\n"
        "from hyperstokes.serialize import body_to_dict, json_text\n"
        f"open({str(path)!r}, 'w').write(json_text(body_to_dict(tripod_tetrahedron(1.0))))\n"
        f"cli.main(['resistance', {str(path)!r}], standalone_mode=False)"
    )
    assert "mobility" in loaded
    assert not loaded & {"dynamics", "symmetry"}


# The names that the package exported by importing them eagerly, per module;
# the lazy namespace must keep exactly these.
_EXPORTED = {
    "dynamics": ["FixedPointResult", "OrientationTrajectory", "find_fixed_points",
                 "instantaneous_motion", "integrate_orientation"],
    "errors": ["AssemblyError", "BodyConfigError", "HyperstokesError", "InvalidArgument",
               "NoTranslationalOrientation", "SingularPointError", "SingularSystemError"],
    "freefall": ["FreefallInput", "SteadyState", "build_F", "steady_states", "tilt_angle",
                 "verify"],
    "geometry": ["BodyGeometry", "DiscretizedBody", "MassProperties", "Segment", "bent_rod",
                 "diameter", "discretize", "helix", "mass_properties", "octahedron_frame",
                 "rod", "transform", "tripod_tetrahedron"],
    "kernel": ["HyperKernel", "classical_oseen", "green_classical", "green_scalar",
               "oseen_tensor", "stokeslet_pressure", "stokeslet_velocity"],
    "mobility": ["KernelMatrix", "ResistanceSet", "assemble", "disturbance_velocity",
                 "force_torque", "resistance", "solve_rigid"],
    "symmetry": ["SymmetryReport", "check_geometric_invariance", "check_helicoidal_pattern",
                 "check_plane_pattern", "check_transform_law", "symmetry_report",
                 "translational_orientation_plane"],
}
_EXPORTED_NAMES = sorted(name for names in _EXPORTED.values() for name in names)


class TestNamespace:
    def test_all_lists_the_exported_names(self):
        assert len(_EXPORTED_NAMES) == 52
        assert sorted(hyperstokes.__all__) == _EXPORTED_NAMES

    @pytest.mark.parametrize("module", sorted(_EXPORTED))
    def test_each_name_is_its_modules_object(self, module):
        owner = importlib.import_module(f"hyperstokes.{module}")
        for name in _EXPORTED[module]:
            assert getattr(hyperstokes, name) is getattr(owner, name), name

    def test_dir_lists_every_name(self):
        assert set(_EXPORTED_NAMES) <= set(dir(hyperstokes))
        assert "__version__" in dir(hyperstokes)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from hyperstokes import *", namespace)
        assert set(_EXPORTED_NAMES) <= set(namespace)
        assert namespace["rod"] is hyperstokes.rod

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            hyperstokes.no_such_name
        with pytest.raises(ImportError):
            exec("from hyperstokes import no_such_name", {})


class TestProcessEntry:
    """``python -m hyperstokes.cli`` runs ``cli.run``: exit codes and streams of
    ``main``, and a frozen collector at exit."""

    def test_body_info(self, rod_file):
        out = _fresh_python("-m", "hyperstokes.cli", "body", "info", rod_file)
        assert json.loads(out.stdout)["result"]["m"] == pytest.approx(1.0)
        assert out.stderr == ""

    def test_missing_body_file(self, tmp_path):
        out = _fresh_python("-m", "hyperstokes.cli", "resistance",
                            str(tmp_path / "absent.json"), check=False)
        assert out.returncode == 2
        assert out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[invalid-body]")

    def test_missing_argument(self):
        out = _fresh_python("-m", "hyperstokes.cli", "resistance", check=False)
        assert out.returncode == 2
        assert out.stderr.startswith("Usage: hyperstokes resistance [OPTIONS] FILE")
        assert "Missing argument 'FILE'" in out.stderr

    def test_version(self):
        out = _fresh_python("-m", "hyperstokes.cli", "--version")
        assert out.stdout == f"hyperstokes, version {hyperstokes.__version__}\n"

    def test_run_freezes_the_collector(self):
        probe = ("import gc, sys\nfrom hyperstokes import cli\n"
                 "sys.argv = ['hyperstokes', '--version']\n"
                 "try:\n    cli.run()\nexcept SystemExit as exc:\n    code = exc.code\n"
                 "print(code, gc.get_freeze_count() > 0)")
        assert _fresh_python("-c", probe).stdout.splitlines()[-1] == "0 True"

    def test_main_leaves_the_collector_alone(self, runner, rod_file):
        before = gc.get_freeze_count()
        assert runner.invoke(main, ["body", "info", rod_file]).exit_code == 0
        assert runner.invoke(main, ["--version"]).exit_code == 0
        assert gc.get_freeze_count() == before


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def rod_file(tmp_path):
    path = tmp_path / "rod.json"
    path.write_text(json_text(body_to_dict(rod(1.0))))
    return str(path)


@pytest.fixture()
def octa_file(tmp_path):
    path = tmp_path / "octa.json"
    path.write_text(json_text(body_to_dict(octahedron_frame(1.0))))
    return str(path)


@pytest.fixture()
def bent_file(tmp_path):
    path = tmp_path / "bent.json"
    path.write_text(json_text(body_to_dict(bent_rod(90.0, 0.5))))
    return str(path)


class TestNondim:
    def test_formulas(self):
        w, re, ell, notes = nondim(rho=1000.0, mu=1.0, g_phys=9.81, d=0.01, L=0.001)
        assert w == pytest.approx(0.981, rel=1e-12)
        assert re == pytest.approx(9.81, rel=1e-12)
        assert ell == pytest.approx(0.1, rel=1e-12)
        assert notes  # Re is not small here

    def test_small_re_case(self):
        w, re, ell, notes = nondim(rho=1000.0, mu=10.0, g_phys=9.81, d=0.001, L=0.0001)
        assert w == pytest.approx(9.81e-4, rel=1e-12)
        assert re == pytest.approx(9.81e-5, rel=1e-12)
        assert ell == pytest.approx(0.1, rel=1e-12)
        assert not notes

    def test_thickness_above_reference_length_is_noted(self):
        _, re, ell, notes = nondim(rho=1000.0, mu=10.0, g_phys=9.81, d=0.001, L=0.002)
        assert re < 0.1 and ell == pytest.approx(2.0, rel=1e-15)
        assert notes == ["L = 0.002 exceeds the reference length d = 0.001"]

    def test_viscosity_scaling(self):
        base = nondim(rho=500.0, mu=2.0, g_phys=9.81, d=0.01, L=0.002)
        doubled = nondim(rho=500.0, mu=4.0, g_phys=9.81, d=0.01, L=0.002)
        assert doubled[0] == pytest.approx(base[0] / 2.0, rel=1e-14)
        assert doubled[1] == pytest.approx(base[1] / 4.0, rel=1e-14)

    def test_command(self, runner):
        result = runner.invoke(
            main,
            ["nondim", "--rho", "1000", "--mu", "1", "--gravity", "9.81",
             "--d", "0.01", "--l", "0.001"],
        )
        assert result.exit_code == 0
        data = json.loads(result.stdout)
        assert data["result"]["W"] == pytest.approx(0.981)
        assert data["result"]["Re"] == pytest.approx(9.81)
        assert "not small" in result.stderr

    def test_rejects_nonpositive(self, runner):
        result = runner.invoke(
            main,
            ["nondim", "--rho", "-1", "--mu", "1", "--gravity", "9.81",
             "--d", "0.01", "--l", "0.001"],
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("error[invalid-argument]")


class TestBodyIO:
    def test_info_uniform_rod(self, runner, rod_file):
        result = runner.invoke(main, ["body", "info", rod_file])
        assert result.exit_code == 0
        data = json.loads(result.stdout)
        assert data["result"]["r"] == [0.0, 0.0, 0.0]
        assert data["result"]["m"] == 1.0
        assert data["result"]["length"] == 1.0

    def test_round_trip_bit_for_bit(self, tmp_path):
        body = bent_rod(73.0, 0.37)
        first = json_text(body_to_dict(body))
        reparsed = body_from_dict(json.loads(first))
        second = json_text(body_to_dict(reparsed))
        assert first == second
        for s1, s2 in zip(body.segments, reparsed.segments):
            assert np.array_equal(s1.points, s2.points)
            assert np.array_equal(s1.density, s2.density)

    def test_load_rejects_bad_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "segments": []}')
        from hyperstokes import BodyConfigError

        with pytest.raises(BodyConfigError):
            load_body(str(bad))

    @pytest.mark.parametrize("segments, message", [
        ([{"points": [[0, 0, 0], [1, 0, 0]], "density": True}], "segment 0: 'density'"),
        ([{"points": [[0, 0, 0], [1, 0, 0]], "density": "2.5"}], "segment 0: 'density'"),
        ([{"points": [[False, 0, 0], [True, 0, 0]]}], "segment 0: 'points'"),
        ([{"points": [[0, 0, 0], [1, 0, 0]]}, {"points": [["0", "0", "0"], [1, 0, 0]]}],
         "segment 1: 'points'"),
        ([{"points": [[0, 0, 0], [10**400, 0, 0]]}], "segment 0: int too large"),
    ], ids=["bool-density", "string-density", "bool-points", "string-points", "huge-int"])
    def test_info_refuses_non_numbers(self, runner, tmp_path, segments, message):
        path = tmp_path / "body.json"
        path.write_text(json.dumps({"name": "x", "segments": segments}))
        result = runner.invoke(main, ["body", "info", str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error[invalid-body]: {message}")

    @pytest.mark.parametrize("data, message", [
        ([], "body file must contain a JSON object"),
        ({"name": "", "segments": [{"points": [[0, 0, 0], [1, 0, 0]]}]},
         "body 'name' must be a non-empty string"),
        ({"name": "x", "m_c": True, "segments": [{"points": [[0, 0, 0], [1, 0, 0]]}]},
         "body 'm_c' must be a number"),
        ({"name": "x", "segments": [{"density": 1.0}]},
         "segment 0 must be an object with 'points'"),
    ], ids=["not-an-object", "empty-name", "bool-m_c", "no-points"])
    def test_body_from_dict_refuses(self, data, message):
        from hyperstokes import BodyConfigError

        with pytest.raises(BodyConfigError, match=f"^{message}$"):
            body_from_dict(data)

    @pytest.mark.parametrize("text, message", [
        (None, "body file not found: "),
        ('{"name": "x",', "body file is not valid JSON: "),
    ], ids=["missing", "invalid-json"])
    def test_load_body_refuses_unreadable_file(self, tmp_path, text, message):
        from hyperstokes import BodyConfigError

        path = tmp_path / "body.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(BodyConfigError, match=f"^{message}"):
            load_body(str(path))

    def test_non_finite_floats_are_written_as_strings(self):
        from hyperstokes.serialize import format_float

        assert [format_float(v) for v in (np.nan, np.inf, -np.inf)] == ['"nan"', '"inf"',
                                                                          '"-inf"']
        assert json_text({"a": [np.float64(np.nan), 1.5]}) == '{"a":["nan",1.5]}'

    def test_json_text_refuses_unsupported_types(self):
        with pytest.raises(TypeError, match="cannot serialize set"):
            json_text({"a": {1, 2}})

    def test_info_refuses_m_c_beyond_float_range(self, runner, tmp_path):
        path = tmp_path / "body.json"
        data = body_to_dict(rod(1.0))
        data["m_c"] = 10**400  # a JSON integer float() cannot take
        path.write_text(json.dumps(data))
        result = runner.invoke(main, ["body", "info", str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error[invalid-body]: body 'm_c': int too large")

    def test_info_rejects_m_c_above_mass(self, runner, tmp_path):
        body = rod(1.0)
        data = body_to_dict(body)
        data["m_c"] = 5.0
        path = tmp_path / "heavy.json"
        path.write_text(json_text(data))
        result = runner.invoke(main, ["body", "info", str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error[invalid-body]")


class TestResistanceCommand:
    def test_single_node_point_drag(self, runner, rod_file):
        result = runner.invoke(
            main, ["resistance", rod_file, "--ell", "1", "--resolution", "1"]
        )
        assert result.exit_code == 0
        data = json.loads(result.stdout)
        k = np.array(data["result"]["K"])
        assert np.allclose(k, 6.0 * pi * np.eye(3), rtol=1e-12)
        assert data["result"]["spin_nullity"] == 3
        assert data["result"]["n_nodes"] == 1

    def test_json_is_deterministic(self, runner, bent_file):
        args = ["resistance", bent_file, "--ell", "0.1", "--resolution", "8"]
        out1 = runner.invoke(main, args).stdout
        out2 = runner.invoke(main, args).stdout
        assert out1 == out2

    def test_csv_format(self, runner, rod_file):
        result = runner.invoke(
            main,
            ["resistance", rod_file, "--resolution", "8", "--format", "csv"],
        )
        assert result.exit_code == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "tensor,i,j,value"
        assert len(lines) == 1 + 36 + 4  # 4 tensors x 9 entries + diagnostics
        assert lines[1].startswith("K,1,1,")

    def test_condition_printed_to_three_digits(self, runner, octa_file):
        args = ["resistance", octa_file, "--resolution", "8"]
        cond = json.loads(runner.invoke(main, args).stdout)["result"]["condition"]
        assert cond > 1.0
        assert cond == float(f"{cond:.3g}")
        csv_lines = runner.invoke(main, [*args, "--format", "csv"]).stdout.splitlines()
        assert f"condition,,,{cond!r}" in csv_lines

    def test_condition_ceiling_refuses_and_force_overrides(self, runner, rod_file):
        refused = runner.invoke(
            main, ["resistance", rod_file, "--resolution", "8", "--max-condition", "1"]
        )
        assert refused.exit_code == 2
        assert refused.stderr.startswith("error[singular-system]")
        assert "at resolution 8 " in refused.stderr
        forced = runner.invoke(
            main,
            ["resistance", rod_file, "--resolution", "8", "--max-condition", "1",
             "--force"],
        )
        assert forced.exit_code == 0


class TestFreefallCommand:
    def test_octahedron_translational(self, runner, octa_file):
        result = runner.invoke(main, ["freefall", octa_file])
        assert result.exit_code == 0
        data = json.loads(result.stdout)
        states = data["result"]["states"]
        assert states
        for st in states:
            assert st["class"] == "translational"
            assert st["lambda"] == 0.0
            assert st["consistent"] is True

    def test_rod_has_no_eigenproblem(self, runner, rod_file):
        # B is singular for the rod, so F cannot be built; every orientation falls steadily
        result = runner.invoke(main, ["freefall", rod_file])
        assert result.exit_code == 0
        data = json.loads(result.stdout)["result"]
        assert data["F"] is None
        assert data["eigenvalues"] == []
        assert len(data["states"]) == 6
        assert all(st["note"].startswith("degenerate") for st in data["states"])

    def test_bent_rod_tilt_column(self, runner, bent_file):
        result = runner.invoke(
            main, ["freefall", bent_file, "--axis", "0", "0", "1"]
        )
        assert result.exit_code == 0
        data = json.loads(result.stdout)
        trans = [s for s in data["result"]["states"] if s["class"] == "translational"]
        assert trans
        assert trans[0]["tilt_deg"] == pytest.approx(0.0, abs=1e-6)
        # complex eigenvalue pairs appear as diagnostics, never as states
        eigs = data["result"]["eigenvalues"]
        assert len(eigs) == 3
        assert any(e["im"] != 0.0 for e in eigs)
        assert all(st["omega"][0] == pytest.approx(0.0, abs=1e-8) for st in trans)

    @pytest.mark.parametrize("axis", ["1e200", "1e-170", "2", "-3e5"])
    def test_tilt_column_independent_of_axis_length(self, runner, bent_file, axis):
        args = ["freefall", bent_file, "--resolution", "8", "--axis", "0", "0"]
        ref = runner.invoke(main, [*args, "1"])
        result = runner.invoke(main, [*args, axis])
        assert result.exit_code == 0
        assert result.stderr == ""
        tilts = [st["tilt_deg"] for st in json.loads(result.stdout)["result"]["states"]]
        assert tilts == [st["tilt_deg"] for st in json.loads(ref.stdout)["result"]["states"]]


class TestKernelCommand:
    def test_eval_at_origin(self, runner):
        result = runner.invoke(
            main, ["kernel", "eval", "--x", "0", "0", "0", "--ell", "1",
                   "--h", "1", "0", "0"],
        )
        assert result.exit_code == 0
        data = json.loads(result.stdout)
        assert data["result"]["g"] == pytest.approx(1.0 / (4.0 * pi), rel=1e-14)
        assert data["result"]["g_classical"] is None
        assert data["result"]["pressure"] is None
        z = np.array(data["result"]["Z"])
        assert np.allclose(z, np.eye(3) / (6.0 * pi), rtol=1e-14)
        assert data["result"]["zeta"] == pytest.approx(
            [1.0 / (6.0 * pi), 0.0, 0.0], rel=1e-14
        )

    def test_eval_away_from_origin(self, runner):
        result = runner.invoke(
            main, ["kernel", "eval", "--x", "2", "0", "0", "--ell", "1"]
        )
        data = json.loads(result.stdout)
        assert data["result"]["g"] == pytest.approx(
            (1.0 - np.exp(-2.0)) / (8.0 * pi), rel=1e-14
        )
        assert data["result"]["g_classical"] == pytest.approx(1.0 / (8.0 * pi))


    @pytest.mark.parametrize("x, s, g", [
        (1e200, 1e201, 1.0 / (4.0 * pi * 1e200)),
        (1e-170, 1e-169, 1.0 / (4.0 * pi * 0.1)),
    ], ids=["huge", "tiny"])
    def test_eval_far_and_near_without_overflow(self, runner, x, s, g):
        result = runner.invoke(main, ["kernel", "eval", "--x", "0", str(x), "0"])
        assert result.exit_code == 0
        assert result.stderr == ""  # no numpy warnings
        data = json.loads(result.stdout)["result"]
        assert data["s"] == pytest.approx(s, rel=1e-15)
        assert data["g"] == pytest.approx(g, rel=1e-15)
        assert data["g_classical"] == pytest.approx(1.0 / (4.0 * pi * x), rel=1e-15)
        z = np.array(data["Z"])
        assert np.all(np.diag(z) > 0.0)
        # the far field is the classical Oseen tensor, (I + xhat xhat) / (8 pi |x|)
        if x > 1.0:
            assert np.diag(z) == pytest.approx(np.array([1.0, 2.0, 1.0]) / (8.0 * pi * x),
                                               rel=1e-15)

    def test_eval_with_overflowed_s_gives_classical_values(self, runner):
        # s = |x| / ell leaves the float range: g and Z are their classical limits
        result = runner.invoke(main, ["kernel", "eval", "--ell", "1e-300", "--x", "1e10", "0", "0"])
        assert result.exit_code == 0
        assert result.stderr == ""
        data = json.loads(result.stdout)["result"]
        assert data["s"] == "inf"
        assert data["g"] == data["g_classical"] == pytest.approx(1.0 / (4.0 * pi * 1e10),
                                                                  rel=1e-15)
        assert np.array_equal(data["Z"], classical_oseen(np.array([1e10, 0.0, 0.0])))

    @pytest.mark.parametrize("x, ell", [
        pytest.param("1e308", "0.1", id="1e308"),
        pytest.param("1e-320", "0.1", id="1e-320"),
        pytest.param("1e-200", "0.1", id="1e-200"),
        pytest.param("0", "1e-320", id="origin-ell-1e-320"),
    ])
    def test_eval_out_of_range_without_warnings(self, runner, x, ell):
        # s, the classical kernels and, at a tiny ell, g(0) = 1 / (4 pi ell) and
        # Z(0) = I / (6 pi ell) overflow to their limits, 0 or inf
        result = runner.invoke(main, ["kernel", "eval", "--ell", ell, "--x", x, "0", "0",
                                      "--h", "1", "0", "0"])
        assert result.exit_code == 0
        assert result.stderr == ""
        data = json.loads(result.stdout)["result"]
        assert data["pressure"] == {"1e308": 0.0, "0": None}.get(x, "inf")
        if x == "0":
            assert data["g"] == "inf" and data["Z"][0] == ["inf", 0, 0]


class TestTrajectoryCommands:
    def test_fall_sim_csv(self, runner, bent_file):
        result = runner.invoke(
            main,
            ["fall-sim", bent_file, "--resolution", "8", "--g0", "0", "0", "1",
             "--dt", "0.01", "--t-end", "0.1"],
        )
        assert result.exit_code == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "t,G1,G2,G3,xi1,xi2,xi3,omega1,omega2,omega3"
        assert len(lines) == 12  # header + 11 samples
        first = [float(tok) for tok in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1:4] == pytest.approx([0.0, 0.0, 1.0])

    def test_fall_sim_streams_the_csv_of_its_trajectory(self, runner, bent_file,
                                                         monkeypatch):
        from hyperstokes import dynamics
        from hyperstokes.serialize import csv_text

        integrate = dynamics.integrate_orientation
        kept = []

        def keep(*args):
            kept.append(integrate(*args))
            return kept[-1]

        monkeypatch.setattr(dynamics, "integrate_orientation", keep)
        result = runner.invoke(
            main,
            ["fall-sim", bent_file, "--resolution", "8", "--g0", "0", "0.6", "0.8",
             "--dt", "0.004", "--t-end", "10"],  # 2501 rows: three chunks of formatting
        )
        assert result.exit_code == 0
        (traj,) = kept
        rows = [[traj.t[k], *traj.G[k], *traj.xi[k], *traj.omega[k]]
                for k in range(len(traj.t))]
        header = ["t", "G1", "G2", "G3", "xi1", "xi2", "xi3", "omega1", "omega2", "omega3"]
        assert result.stdout_bytes == csv_text(header, rows).encode()

    def test_fall_sim_memory_per_step(self, bent_file, tmp_path, monkeypatch):
        import tracemalloc

        steps = 20_000
        path = tmp_path / "trajectory.csv"
        with open(path, "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            tracemalloc.start()
            try:
                main.main(["fall-sim", bent_file, "--resolution", "8",
                           "--g0", "0", "0.6", "0.8", "--dt", "5e-4", "--t-end", "10"],
                          standalone_mode=False)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        with open(path) as written:
            assert sum(1 for _ in written) == steps + 2  # the header and t = 0
        # the trajectory's own arrays take the 80 bytes a step that
        # dynamics.check_time_grid counts
        assert peak <= 200 * steps, peak / steps

    def test_fall_sim_rejects_zero_g0(self, runner, bent_file):
        result = runner.invoke(
            main,
            ["fall-sim", bent_file, "--g0", "0", "0", "0", "--dt", "0.01",
             "--t-end", "0.1"],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("g0", [["1e308", "1e308", "0"], ["1e-170", "1e-170", "0"]],
                             ids=["huge", "tiny"])
    def test_fall_sim_scales_g0(self, runner, bent_file, g0):
        args = ["fall-sim", bent_file, "--resolution", "8", "--dt", "0.01", "--t-end", "0.05"]
        ref = runner.invoke(main, [*args, "--g0", "1", "1", "0"])
        result = runner.invoke(main, [*args, "--g0", *g0])
        assert ref.exit_code == 0
        assert result.exit_code == 0
        assert result.stdout == ref.stdout

    def test_fixed_points_octahedron(self, runner, octa_file):
        result = runner.invoke(
            main, ["fixed-points", octa_file, "--resolution", "8", "--grid", "200"]
        )
        assert result.exit_code == 0
        data = json.loads(result.stdout)
        assert data["result"]["all_orientations"] is True

    def test_convergence_table(self, runner, rod_file):
        result = runner.invoke(
            main, ["convergence", rod_file, "--resolutions", "4,8,16"]
        )
        assert result.exit_code == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0].startswith("resolution,n_nodes,K11")
        assert len(lines) == 4
        first_diff = lines[1].split(",")[-1]
        assert first_diff == ""
        d1 = float(lines[2].split(",")[-1])
        d2 = float(lines[3].split(",")[-1])
        assert d1 > d2 > 0.0

    def test_convergence_ceiling_names_resolution(self, runner, rod_file):
        result = runner.invoke(
            main, ["convergence", rod_file, "--resolutions", "4,8", "--max-condition", "1"]
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("error[singular-system]")
        assert "at resolution 4 " in result.stderr

    def test_convergence_rejects_garbage_resolutions(self, runner, rod_file):
        result = runner.invoke(
            main, ["convergence", rod_file, "--resolutions", "a,b"]
        )
        assert result.exit_code == 2

    def test_convergence_rejects_empty_resolutions(self, runner, rod_file):
        result = runner.invoke(main, ["convergence", rod_file, "--resolutions", " , "])
        assert result.exit_code == 2
        assert result.stderr == ("error[invalid-argument]: --resolutions must list at least "
                                 "one value\n")

    @pytest.mark.parametrize("command", ["resistance", "freefall", "symmetry", "fall-sim",
                                         "fixed-points", "convergence"])
    def test_help_explains_condition_options(self, runner, command):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        text = " ".join(result.stdout.split())
        assert "--max-condition FLOAT Refuse solves whose condition estimate" in text
        assert "--force Override the condition ceiling." in text


class TestSymmetryCommand:
    def test_tripod_report(self, runner, tmp_path):
        from hyperstokes import tripod_tetrahedron

        path = tmp_path / "tripod.json"
        path.write_text(json_text(body_to_dict(tripod_tetrahedron(1.0))))
        c, s = np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)
        q = [1, 0, 0, 0, c, -s, 0, s, c]
        result = runner.invoke(
            main,
            ["symmetry", str(path), "--resolution", "8",
             "--transform", *[str(v) for v in q], "--heli-axis", "1"],
        )
        assert result.exit_code == 0
        data = json.loads(result.stdout)
        assert data["result"]["invariant"] is True
        assert data["result"]["heli_pattern"] is True
        assert max(data["result"]["tensor_residuals"]) < 1e-8

    def test_helix_has_no_translational_orientation(self, runner, tmp_path):
        # C's singular values are 0.032, 0.024 and 0.015 at the defaults
        from hyperstokes import helix

        path = tmp_path / "helix.json"
        path.write_text(json_text(body_to_dict(helix(0.2, 0.1, 3))))
        result = runner.invoke(main, ["symmetry", str(path)])
        assert result.exit_code == 0
        data = json.loads(result.stdout)["result"]
        assert data["translational_g"] is None
        assert data["coupling_nullity"] == 0

    def test_non_orthogonal_transform_rejected(self, runner, rod_file):
        q = [2, 0, 0, 0, 1, 0, 0, 0, 1]
        result = runner.invoke(
            main,
            ["symmetry", rod_file, "--transform", *[str(v) for v in q]],
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("error[invalid-argument]")


class TestErrorSlugs:
    @pytest.mark.parametrize("command, args", [
        pytest.param("fall-sim", ["--g0", "0", "0", "0", "--dt", "0.01", "--t-end", "0.1"],
                     id="fall-sim-g0"),
        pytest.param("fall-sim", ["--g0", "0", "0", "1", "--dt", "0", "--t-end", "0.1"],
                     id="fall-sim-dt"),
        pytest.param("fixed-points", ["--grid", "5"], id="fixed-points-grid"),
        pytest.param("symmetry", ["--transform", *"123456789"], id="symmetry-transform"),
        pytest.param("symmetry", ["--tol", "nan"], id="symmetry-tol"),
        pytest.param("freefall", ["--axis", "0", "0", "0"], id="freefall-axis"),
        pytest.param("freefall", ["--tol-trans", "nan"], id="freefall-tol-trans"),
        pytest.param("convergence", ["--resolutions", "8,-1"], id="convergence-resolutions"),
        pytest.param("resistance", ["--max-condition", "nan"], id="max-condition-nan"),
    ])
    def test_arguments_checked_before_solving(self, runner, bent_file, command, args):
        # a ceiling of 1 refuses every solve, so only a check made first reports
        ceiling = [] if "--max-condition" in args else ["--max-condition", "1"]
        extra = [] if command == "convergence" else ["--resolution", "8"]
        result = runner.invoke(main, [command, bent_file, *ceiling, *extra, *args])
        assert result.exit_code == 2
        assert result.stderr.startswith("error[invalid-argument]")

    @pytest.mark.parametrize("ceiling", ["0", "-1"])
    def test_non_positive_ceiling_rejected(self, runner, bent_file, ceiling):
        result = runner.invoke(main, ["resistance", bent_file, "--max-condition", ceiling])
        assert result.exit_code == 2
        assert result.stderr.startswith("error[invalid-argument]")

    def test_infinite_ceiling_and_tolerances_allowed(self, runner, bent_file):
        result = runner.invoke(
            main, ["freefall", bent_file, "--resolution", "8", "--max-condition", "inf",
                   "--tol-trans", "inf"],
        )
        assert result.exit_code == 0

    @pytest.mark.parametrize("args, group", [
        (["--rho", "1", "--mu", "1", "--gravity", "1", "--d", "1e200", "--l", "1"], "W"),
        (["--rho", "1e300", "--mu", "1e-300", "--gravity", "1", "--d", "1", "--l", "1"], "W"),
        (["--rho", "1e200", "--mu", "1e-50", "--gravity", "1", "--d", "1e-50", "--l", "1"],
         "Re"),
        (["--rho", "1", "--mu", "1", "--gravity", "1", "--d", "1e-200", "--l", "1e200"], "ell"),
    ], ids=["W-power", "W-product", "Re", "ell"])
    def test_overflowing_group_is_invalid(self, runner, args, group):
        result = runner.invoke(main, ["nondim", *args])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error[invalid-argument]: {group} = ")
        assert "overflows" in result.stderr
        assert result.stdout == ""

    def test_slugs_distinct_and_non_empty(self):
        classes = [HyperstokesError, *HyperstokesError.__subclasses__()]
        slugs = [cls.slug for cls in classes]
        assert all(slugs)
        assert len(set(slugs)) == len(slugs)

    @pytest.mark.parametrize("command", [["resistance"], ["body", "info"]])
    @pytest.mark.parametrize("points, density", [
        ([[0.0, 0.0, 0.0], [1e300, 0.0, 0.0]], 1.0),  # an edge length overflows
        ([[0.0, 0.0, 0.0], [1e10, 0.0, 0.0]], 1e300),  # the mass overflows
    ], ids=["length", "mass"])
    def test_overflowing_body_is_invalid(self, runner, tmp_path, command, points, density):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"name": "huge",
                                    "segments": [{"points": points, "density": density}]}))
        result = runner.invoke(main, [*command, str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error[invalid-body]")
        assert "overflow" in result.stderr

    def test_duplicate_segments_fail_assembly(self, runner, tmp_path):
        data = body_to_dict(rod(1.0))
        data["segments"] = data["segments"] * 2
        path = tmp_path / "twice.json"
        path.write_text(json_text(data))
        result = runner.invoke(main, ["resistance", str(path), "--resolution", "4"])
        assert result.exit_code == 2
        assert result.stderr.startswith("error[assembly]")

    @pytest.mark.parametrize("body_file", ["rod_file", "octa_file"])  # one block, two blocks
    def test_failed_factorization_is_singular_system(self, runner, monkeypatch, request,
                                                     body_file):
        import hyperstokes.mobility as mob

        def refuse(a, lower=True):
            raise np.linalg.LinAlgError("matrix is not positive definite (leading minor 3)")

        monkeypatch.setattr(mob, "cho_factor", refuse)
        path = request.getfixturevalue(body_file)
        result = runner.invoke(main, ["resistance", path, "--resolution", "8"])
        assert result.exit_code == 2
        assert result.stderr.startswith("error[singular-system]")
        assert "not positive definite" in result.stderr

    def test_matrix_larger_than_memory_fails_assembly(self, runner, rod_file, monkeypatch):
        import hyperstokes.errors as err

        monkeypatch.setattr(err, "_physical_memory_bytes", lambda: 1 << 16)
        result = runner.invoke(main, ["resistance", rod_file, "--resolution", "64"])
        assert result.exit_code == 2
        assert result.stderr.startswith("error[assembly]")
        assert "physical memory" in result.stderr

    @pytest.mark.parametrize("args", [
        ["fall-sim", "--g0", "0", "0", "1", "--dt", "1e-12", "--t-end", "10"],  # 72.8 TiB
        ["fixed-points", "--grid", "100000000000"],  # 745 GiB
        ["resistance", "--resolution", "1e15"],  # 3.55 PiB of nodes
        ["fixed-points", "--grid", "1" + "0" * 400],  # an int beyond the float range
    ])
    def test_argument_larger_than_memory_rejected(self, runner, octa_file, args):
        result = runner.invoke(main, [args[0], octa_file, *args[1:]])
        assert result.exit_code == 2
        assert result.stderr.startswith("error[invalid-argument]")
        assert "physical memory" in result.stderr or "memory available now" in result.stderr

    @pytest.mark.parametrize("args", [
        ["fixed-points", "--grid", "200"],
        ["fall-sim", "--g0", "0", "0", "1", "--dt", "0.1", "--t-end", "0.2"],
    ])
    def test_rod_has_no_orientation_flow(self, runner, rod_file, args):
        # the rod resists no spin about its axis, so A is singular
        result = runner.invoke(main, [args[0], rod_file, "--resolution", "8", *args[1:]])
        assert result.exit_code == 2
        assert result.stderr.startswith("error[singular-system]")
