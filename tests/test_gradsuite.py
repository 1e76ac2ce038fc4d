import pytest

from rdteunet import gradsuite
from rdteunet.tensor import ConfigError

ROWS = [(name, check) for rows in gradsuite.SCOPES.values() for name, check in rows.items()]


@pytest.mark.parametrize("name, check", ROWS, ids=[name for name, _ in ROWS])
def test_gradsuite_row(name, check):
    # run_suite's path: float64, contract tolerance times the row's factor
    row = gradsuite.run_row(name, check)
    assert row.passed, f"{name}: max rel err {row.max_rel_err:.3g}"


def test_gradsuite_unknown_scope():
    with pytest.raises(ConfigError):
        gradsuite.run_suite("nope")
