"""Command surface: outputs, exit codes, round trips, determinism."""

import json
import os
import subprocess
import sys
from math import pi
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from hyperstokes import HyperstokesError, bent_rod, octahedron_frame, rod
from hyperstokes.cli import PhysicalParams, main, nondim
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
    src = Path(__file__).resolve().parents[1] / "src"
    argv = [args[0], str(tmp_path / f"{body}.json"), *args[1:]] if args else []
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         check=True, capture_output=True, text=True, timeout=120)
    source, loaded = out.stdout.splitlines()[-1].split(" ", 1)
    if source != "numpy-openblas":
        pytest.skip("numpy's OpenBLAS was not found, so LAPACK comes from scipy")
    assert loaded == "[]"


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
        w, re, ell, notes = nondim(
            PhysicalParams(rho=1000.0, mu=1.0, g_phys=9.81, d=0.01, L=0.001)
        )
        assert w == pytest.approx(0.981, rel=1e-12)
        assert re == pytest.approx(9.81, rel=1e-12)
        assert ell == pytest.approx(0.1, rel=1e-12)
        assert notes  # Re is not small here

    def test_small_re_case(self):
        w, re, ell, notes = nondim(
            PhysicalParams(rho=1000.0, mu=10.0, g_phys=9.81, d=0.001, L=0.0001)
        )
        assert w == pytest.approx(9.81e-4, rel=1e-12)
        assert re == pytest.approx(9.81e-5, rel=1e-12)
        assert ell == pytest.approx(0.1, rel=1e-12)
        assert not notes

    def test_viscosity_scaling(self):
        base = nondim(PhysicalParams(rho=500.0, mu=2.0, g_phys=9.81, d=0.01, L=0.002))
        doubled = nondim(PhysicalParams(rho=500.0, mu=4.0, g_phys=9.81, d=0.01, L=0.002))
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

    def test_fall_sim_rejects_zero_g0(self, runner, bent_file):
        result = runner.invoke(
            main,
            ["fall-sim", bent_file, "--g0", "0", "0", "0", "--dt", "0.01",
             "--t-end", "0.1"],
        )
        assert result.exit_code == 2

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

    def test_slugs_distinct_and_non_empty(self):
        classes = [HyperstokesError, *HyperstokesError.__subclasses__()]
        slugs = [cls.slug for cls in classes]
        assert all(slugs)
        assert len(set(slugs)) == len(slugs)

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

        def refuse(a):
            raise np.linalg.LinAlgError("matrix is not positive definite (leading minor 3)")

        monkeypatch.setattr(mob, "cho_factor", refuse)
        path = request.getfixturevalue(body_file)
        result = runner.invoke(main, ["resistance", path, "--resolution", "8"])
        assert result.exit_code == 2
        assert result.stderr.startswith("error[singular-system]")
        assert "not positive definite" in result.stderr

    def test_matrix_larger_than_memory_fails_assembly(self, runner, rod_file, monkeypatch):
        import hyperstokes.mobility as mob

        monkeypatch.setattr(mob, "_physical_memory_bytes", lambda: 1 << 16)
        result = runner.invoke(main, ["resistance", rod_file, "--resolution", "64"])
        assert result.exit_code == 2
        assert result.stderr.startswith("error[assembly]")
        assert "physical memory" in result.stderr

    @pytest.mark.parametrize("args", [
        ["fall-sim", "--g0", "0", "0", "1", "--dt", "1e-12", "--t-end", "10"],  # 72.8 TiB
        ["fixed-points", "--grid", "100000000000"],  # 745 GiB
        ["resistance", "--resolution", "1e15"],  # 3.55 PiB of nodes
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
