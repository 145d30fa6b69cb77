"""Wall time of `import pxlaplace` and of the CLI on the README config.

Each figure is the median of five runs, each in a fresh interpreter, so
it includes the interpreter's start and every import the command pays
for.  The package is imported from the `src/` next to this script, and
the commands write their outputs to a temporary directory.  Also prints
whether `import pxlaplace` alone loaded scipy.

Usage: python tools/startup_time.py
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"
REPEATS = 5

# the config of the README's command-line section
README_CONFIG = {
    "domain": {"kind": "interval", "a": 0.0, "b": 1.0, "n": 256},
    "exponent": {"p": "2+x", "r": 1.5},
    "problem": {"kind": "problem1", "h": "1", "q": "1.2"},
    "solver": {"grad_tol": 1e-9},
}

COMMANDS = {
    "validate": ["validate"],
    "check-convexity --samples 200": ["check-convexity", "--samples", "200",
                                      "--seed", "1"],
    "check-diaz-saa": ["check-diaz-saa", "--seed", "1"],
    "solve --seed 7": ["solve", "--seed", "7"],
}


def _wall(argv: list, env: dict) -> float:
    """Wall seconds of one run of ``python argv``, which must exit 0."""
    t0 = perf_counter()
    subprocess.run([sys.executable, *argv], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    probe = "import sys, pxlaplace; print('scipy' in sys.modules)"
    loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                            check=True, capture_output=True,
                            text=True).stdout.strip()
    print(f"scipy loaded by `import pxlaplace`: {loaded}")
    print(f"median wall time of {REPEATS} fresh interpreters, "
          f"python {sys.version.split()[0]}")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.json"
        cfg.write_text(json.dumps(README_CONFIG))
        runs = {"import pxlaplace": ["-c", "import pxlaplace"]}
        for label, argv in COMMANDS.items():
            runs[label] = ["-m", "pxlaplace", *argv, "--config", str(cfg),
                           "--out", str(Path(tmp) / "out"), "--quiet"]
        for label, argv in runs.items():
            times = [_wall(argv, env) for _ in range(REPEATS)]
            print(f"{statistics.median(times):7.3f} s  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
