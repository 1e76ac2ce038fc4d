import pytest

from rdteunet import gradsuite
from rdteunet.tensor import ConfigError

ROWS = [(name, check) for rows in gradsuite.SCOPES.values() for name, check in rows.items()]

# coordinates each row checks, so a row that silently drops a case fails
N_CHECKED = {
    "tensor.elementwise_chain": 10, "tensor.matmul": 72, "tensor.softmax": 15,
    "nn.conv2d": 130, "nn.conv2d_transpose": 45, "nn.batch_norm": 38, "nn.layer_norm": 15,
    "nn.avg_pool": 32, "nn.mlp": 80, "nn.resblock": 32,
    "stair.horizontal": 64, "stair.vertical": 64,
    "hvda.branch": 32, "hvda.attention": 34, "hvda.details_block": 100,
    "asbe.arconv": 122, "asbe.stem": 36,
    "euler.expand": 64, "euler.stream": 32, "euler.fuse": 36,
    "model.loss": 112, "model.param_subset": 20,
}


def test_every_row_has_a_coverage_count():
    assert sorted(N_CHECKED) == sorted(name for name, _ in ROWS)


@pytest.mark.parametrize("name, check", ROWS, ids=[name for name, _ in ROWS])
def test_gradsuite_row(name, check):
    # run_suite's path: float64, contract tolerance times the row's factor;
    # the coverage is asserted here so that each row runs once
    report = gradsuite.run_row(name, check)
    assert report.passed, f"{name}: max rel err {report.max_rel_err:.3g}"
    assert report.n_checked == N_CHECKED[name]


def test_gradsuite_unknown_scope():
    with pytest.raises(ConfigError):
        gradsuite.run_suite("nope")
