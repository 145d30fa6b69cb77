import json
import pathlib

import pytest

BASELINES = pathlib.Path(__file__).parent / "_baselines.json"


@pytest.fixture(scope="session")
def regression():
    """Compare a value against its pin in ``_baselines.json``.

    A missing pin fails; new pins are added to the file by hand.
    """
    stored = json.loads(BASELINES.read_text())

    def check(name: str, value: float, rel_tol: float = 1e-6):
        assert name in stored, f"regression {name}: no pin in {BASELINES.name}"
        ref = stored[name]
        assert value == pytest.approx(ref, rel=rel_tol), \
            f"regression {name}: {value} vs pinned {ref}"
        return value

    return check


def random_cone_values(rng, n, lo=0.1, hi=10.0):
    return rng.uniform(lo, hi, n)
