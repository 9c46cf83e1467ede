"""Run a fixed list of ``hyperstokes`` commands on two checkouts and diff the results.

    python tools/compare_cli.py OLD NEW

OLD and NEW are the roots of two checkouts of this repository, say a copy
of the parent commit and the working tree.  Every command runs in a fresh
interpreter as ``python -m hyperstokes.cli ...``, with PYTHONPATH set to
the checkout's ``src/`` alone, on the five suite bodies at the CLI
defaults and a few other settings, and on three bodies that walk their
edges differently: per-edge densities across segments, a stem that starts
in the middle of an edge, and two segments that do not touch.  The body
files are written once, the suite's by OLD's geometry and the other three
by this script, into a temporary directory that both sides read.  The
exit code, stdout and stderr of each command are compared byte for byte;
a checkout's own path in stderr (a traceback) is replaced by
``<checkout>`` first.  One line per command says ``same`` or which
streams differ, a short diff follows each difference, and the last line
counts both.  The exit status is 1 when any command differs.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BODIES = {  # file name: the geometry function and its arguments
    "rod": ("rod", (1.0,)),
    "bent_rod": ("bent_rod", (90.0, 0.5)),
    "tripod": ("tripod_tetrahedron", (1.0,)),
    "octahedron": ("octahedron_frame", (1.0,)),
    "helix": ("helix", (0.2, 0.1, 3)),
}
WRITE_BODIES = """\
import sys
from pathlib import Path
from hyperstokes import geometry
from hyperstokes.serialize import body_to_dict, json_text
for name, (function, args) in {bodies!r}.items():
    body = getattr(geometry, function)(*args)
    Path(sys.argv[1], name + ".json").write_text(json_text(body_to_dict(body)))
"""
EDGE_BODIES = {  # file name: the segments of a body no builder makes
    "densities": [{"points": [[0, 0, 0], [0.5, 0, 0], [1, 0.2, 0]], "density": [1, 2]},
                  {"points": [[1, 0.2, 0], [1, 0.7, 0.1], [0.6, 1, 0.3]], "density": [0.5, 3]}],
    "tee": [{"points": [[-0.5, 0, 0], [0.5, 0, 0]]}, {"points": [[0, 0, 0], [0, 0.6, 0]]}],
    "apart": [{"points": [[0, 0, 0], [1, 0, 0]]}, {"points": [[0, 1, 0], [1, 1, 0.5]]}],
}
MIRROR = ["1", "0", "0", "0", "1", "0", "0", "0", "-1"]
PER_BODY = [
    ["body", "info", "{body}"],
    ["resistance", "{body}"],
    ["resistance", "{body}", "--format", "csv"],
    ["resistance", "{body}", "--ell", "0.01", "--resolution", "8"],
    ["freefall", "{body}"],
    ["symmetry", "{body}", "--transform", *MIRROR],
    ["symmetry", "{body}", "--plane-axis", "3"],
    ["fixed-points", "{body}", "--grid", "500"],
    ["fall-sim", "{body}", "--g0", "0.6", "0", "0.8", "--dt", "0.05", "--t-end", "1"],
    ["convergence", "{body}", "--resolutions", "4,8,16"],
]
PER_EDGE_BODY = [
    ["body", "info", "{body}"],
    ["resistance", "{body}"],
    ["freefall", "{body}"],
    ["convergence", "{body}", "--resolutions", "4,8,16"],
]
OTHER = [
    ["--version"],
    ["kernel", "eval", "--x", "0.1", "0.2", "0.3", "--h", "1", "0", "0"],
    ["kernel", "eval", "--x", "0", "0", "0", "--h", "1", "0", "0"],
    ["kernel", "eval", "--x", "1e308", "0", "0", "--h", "1", "0", "0"],
    ["kernel", "eval", "--x", "1e-320", "0", "0", "--h", "1", "0", "0"],
    ["kernel", "eval", "--ell", "1e-300", "--x", "1e10", "0", "0"],
    ["nondim", "--rho", "1000", "--mu", "1", "--gravity", "9.81", "--d", "0.01", "--L", "0.001"],
    ["body", "info", "{dir}/huge_m_c.json"],
    ["body", "info", "{dir}/missing.json"],
    # one refused argument for each place that checks one is positive
    ["nondim", "--rho", "-1", "--mu", "1", "--gravity", "9.81", "--d", "0.01", "--L", "0.001"],
    ["nondim", "--rho", "1000", "--mu", "1", "--gravity", "9.81", "--d", "0.01", "--L", "nan"],
    ["resistance", "{dir}/rod.json", "--ell", "-1"],
    ["resistance", "{dir}/rod.json", "--resolution", "inf"],
    ["kernel", "eval", "--x", "1", "0", "0", "--ell", "-1"],
    ["fall-sim", "{dir}/helix.json", "--g0", "0", "0", "1", "--dt", "-1", "--t-end", "1"],
]


def commands(workdir: str) -> list[list[str]]:
    """The argument lists to run, with the body paths filled in."""
    listed = [[a.format(body=f"{workdir}/{name}.json") for a in args]
              for names, per_body in ((BODIES, PER_BODY), (EDGE_BODIES, PER_EDGE_BODY))
              for name in names for args in per_body]
    return listed + [[a.format(dir=workdir) for a in args] for args in OTHER]


def environment(checkout: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(checkout / "src")}


def write_bodies(checkout: Path, workdir: str) -> None:
    subprocess.run([sys.executable, "-c", WRITE_BODIES.format(bodies=BODIES), workdir],
                   env=environment(checkout), check=True)
    for name, segments in EDGE_BODIES.items():
        Path(workdir, name + ".json").write_text(json.dumps({"name": name, "segments": segments}))
    # a JSON integer beyond the float range
    Path(workdir, "huge_m_c.json").write_text(
        '{"name": "rod", "m_c": 1' + "0" * 400
        + ', "segments": [{"points": [[0, 0, 0], [1, 0, 0]]}]}')


def run(checkout: Path, args: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command on one checkout."""
    proc = subprocess.run([sys.executable, "-m", "hyperstokes.cli", *args],
                          env=environment(checkout), capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr.replace(str(checkout), "<checkout>")


def short_diff(old: str, new: str, label: str, lines: int = 12) -> str:
    diff = difflib.unified_diff(old.splitlines(), new.splitlines(),
                                f"old {label}", f"new {label}", lineterm="", n=0)
    shown = [line if len(line) <= 300 else line[:300] + " ..." for line in diff]
    return "\n".join(shown[:lines] + (["  ..."] if len(shown) > lines else []))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="root of the reference checkout")
    parser.add_argument("new", type=Path, help="root of the checkout to compare with it")
    opts = parser.parse_args()
    old, new = opts.old.resolve(), opts.new.resolve()
    differ = 0
    with tempfile.TemporaryDirectory(prefix="compare_cli_") as workdir:
        write_bodies(old, workdir)
        listed = commands(workdir)
        # two commands at a time, one per core of a small machine
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = pool.map(lambda args: (run(old, args), run(new, args)), listed)
            for args, (before, after) in zip(listed, results):
                shown = " ".join(args).replace(workdir + "/", "")
                streams = [name for name, a, b in zip(("exit", "stdout", "stderr"), before, after)
                           if a != b]
                if not streams:
                    print(f"same    {shown}")
                    continue
                differ += 1
                print(f"DIFFER  {shown}  ({', '.join(streams)})")
                if before[0] != after[0]:
                    print(f"  exit {before[0]} -> {after[0]}")
                for name, a, b in zip(("stdout", "stderr"), before[1:], after[1:]):
                    if a != b:
                        print(short_diff(a, b, name))
    print(f"{len(listed)} commands: {len(listed) - differ} identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
