"""A small model must learn: the training loss falls within a fixed step budget,
and no pre-clip gradient norm runs away.

Config: `no_hvda`, base_width 4, 64x64, the 8 `datasynth` samples of seed 123
in two fixed batches of 4, Adam lr 3e-3, global clip 1.0, CE+Dice.

There is no DSC floor: at step 30 the `metrics.evaluate` mean_dsc is 0.16-0.21
for model seeds 0, 4 and 5 but 0.00-0.01 for seeds 1-3, so any floor above
zero would hold only for chosen seeds.
"""

import numpy as np
import pytest

import rdteunet.datasynth as ds
import rdteunet.model as M
from rdteunet.tensor import Tensor

STEPS = 30
# mean loss of the last two steps over that of the first two, measured at
# step 30 for model seeds 0-5: 0.50, 0.81, 0.68, 0.55, 0.65, 0.57
LOSS_RATIO = 0.9
# largest pre-clip global gradient norm of a learning run; the largest over
# the 30 steps reads 3.03 / 1.21 / 1.46 / 42.16 for model seeds 0-3
MAX_GRAD_NORM = 10.0


@pytest.mark.parametrize("seed", [
    0,
    pytest.param(3, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="decoder-side Euler fusion scale runaway: the pre-clip norm reaches "
               "42.2 at step 27 (ROADMAP item 9)")),
])
def test_no_hvda_loss_falls_on_datasynth(seed):
    samples = ds.generate(ds.GenSpec(count=8, size=64, num_classes=4, seed=123))
    images = np.stack([s.image.data for s in samples])
    masks = np.stack([ds.mask_ids(s) for s in samples])
    model = M.RdteUnet(M.ModelConfig(h=64, w=64, num_classes=4, base_width=4,
                                     variant="no_hvda", seed=seed))
    opt = M.Adam(model.store, lr=3e-3)
    losses, norms = [], []
    for step in range(STEPS):
        lo = 4 * (step % 2)
        loss, norm = M.train_step(model, opt, Tensor(images[lo:lo + 4]), masks[lo:lo + 4], 1.0)
        losses.append(loss)
        norms.append(norm)
    assert np.mean(losses[-2:]) <= LOSS_RATIO * np.mean(losses[:2]), losses
    assert max(norms) <= MAX_GRAD_NORM, norms
