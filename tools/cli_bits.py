"""Print the sha256 of every command-line output file and stdout.

Runs each subcommand of ``python -m pxlaplace`` once, in a temporary
directory, on the config of the README's command-line section (with a
``sweep`` block added), the two checks also on a weighted rectangle,
``validate`` also on that config without ``q`` (a source), ``validate``
on three bad domains that exit 2 (an interval with b < a, an interval
of 16.5 cells, a rectangle given ``--nx 1``), and then each demo.  For
every run it prints the exit code, the sha256 of stdout and of stderr
and the sha256 of each file the run wrote, one line each, sorted by
file name.  Output files go to the config's ``output.dir``, or to
``--out`` where the run passes it.  The package is imported from the
``src/`` next to this script.  Diffing the output of two checkouts shows
whether their command-line outputs, messages and demo printouts are
byte-identical.

Usage: python tools/cli_bits.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the config of the README's command-line section, plus a sweep block
README_CONFIG = {
    "domain": {"kind": "interval", "a": 0.0, "b": 1.0, "n": 256},
    "exponent": {"p": "2+x", "r": 1.5},
    "problem": {"kind": "problem1", "h": "1", "q": "1.2"},
    "solver": {"grad_tol": 1e-9},
    "sweep": {"parameter": "problem.h_scale", "values": [0.5, 1, 2]},
}

# the README config without q: the source f = h, the power term with q = 1
SOURCE_CONFIG = dict(README_CONFIG, problem={"kind": "problem1", "h": "1"})

# a 2D instance for the checks: a rectangle with weighted anisotropy
RECTANGLE_CONFIG = dict(
    README_CONFIG,
    domain={"kind": "rectangle", "ax": 0.0, "bx": 1.0, "ay": 0.0,
            "by": 1.0, "nx": 8, "ny": 8},
    exponent={"p": "2+x*y", "r": 1.5},
    anisotropy={"kind": "weighted-quadratic", "weights": ["1+x", "2-y"]})

# label: (arguments after ``python -m pxlaplace``, the config or None);
# "OUT" stands for a ``--out`` directory
RUNS = {
    "solve": (["solve", "--seed", "7"], README_CONFIG),
    "solve --quiet --out": (["solve", "--seed", "7", "--quiet",
                             "--out", "OUT"], README_CONFIG),
    "validate": (["validate"], README_CONFIG),
    "check-convexity": (["check-convexity", "--samples", "200",
                         "--seed", "1"], README_CONFIG),
    "check-diaz-saa": (["check-diaz-saa", "--seed", "1"], README_CONFIG),
    "check-comparison": (["check-comparison", "--samples", "3",
                          "--seed", "1"], README_CONFIG),
    "sweep": (["sweep", "--seed", "1"], README_CONFIG),
    "eig": (["eig", "--r", "2", "--levels", "3", "--n", "64",
             "--out", "OUT"], None),
    "eig --config": (["eig", "--r", "3", "--levels", "2"], README_CONFIG),
    "check-convexity 2D": (["check-convexity", "--samples", "20",
                            "--seed", "1"], RECTANGLE_CONFIG),
    "check-diaz-saa 2D": (["check-diaz-saa", "--samples", "20",
                           "--seed", "1"], RECTANGLE_CONFIG),
    "validate source": (["validate"], SOURCE_CONFIG),
    "validate b < a": (["validate"], dict(
        README_CONFIG, domain={"kind": "interval", "a": 1.0, "b": 0.0})),
    "validate n = 16.5": (["validate"], dict(
        README_CONFIG, domain={"kind": "interval", "n": 16.5})),
    "validate 2D --nx 1": (["validate", "--nx", "1"], RECTANGLE_CONFIG),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(label: str, argv: list, cwd: Path, env: dict):
    """Run ``python argv`` in ``cwd`` and print its exit code, the hash
    of its stdout and stderr and the hash of every file it wrote under
    ``cwd``."""
    before = set(cwd.rglob("*"))
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True)
    lines = [("exit", proc.returncode), ("stdout", _sha(proc.stdout)),
             ("stderr", _sha(proc.stderr))]
    lines += [(f.relative_to(cwd).as_posix(), _sha(f.read_bytes()))
              for f in sorted(set(cwd.rglob("*")) - before) if f.is_file()]
    for name, value in lines:
        print(f"{label:<36} {name:<26} {value}", flush=True)


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    with tempfile.TemporaryDirectory() as tmp:
        for k, (label, (args, config)) in enumerate(RUNS.items()):
            cwd = Path(tmp) / f"run{k}"
            cwd.mkdir()
            argv = ["-m", "pxlaplace"] + [
                str(cwd / "out") if a == "OUT" else a for a in args]
            if config is not None:
                cfg = dict(config, output={"dir": str(cwd / "dir")})
                (cwd.parent / f"run{k}.json").write_text(json.dumps(cfg))
                argv += ["--config", str(cwd.parent / f"run{k}.json")]
            _run(label, argv, cwd, env)
        for demo in sorted((ROOT / "demos").glob("*.py")):
            cwd = Path(tmp) / demo.stem
            cwd.mkdir()
            _run(demo.stem, [str(demo)], cwd, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
