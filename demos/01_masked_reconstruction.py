#!/usr/bin/env python3
"""Walk through the generative half of the base objective.

A feature group is a small stack of token vectors. We hide most of the
tokens of every group in a batch, let the decoder rebuild each full group
from the survivors plus a learned fill vector, and watch the blend weight
alpha hand influence over from reconstruction to classification as epochs
pass.
"""

import numpy as np

from gcmr import (LossConfig, alpha_schedule, init_decoder, mask_features,
                  reconstruct)

rng = np.random.default_rng(0)

# a batch of three 8-token groups of 6-dimensional features
groups = rng.normal(size=(3, 8, 6))
print("feature groups:", groups.shape)

# one uniform noise block per batch: each row hides its 6 lowest-noise tokens
masked = mask_features(groups, ratio=0.75, seed=42)
for j, row in enumerate(masked):
    print(f"group {j}: masked {int(row.sum())} of {row.size} tokens "
          f"(indices {tuple(int(i) for i in row.nonzero()[0])})")

# the same seed always hides the same tokens
assert (mask_features(groups, ratio=0.75, seed=42) == masked).all()

# an identity decoder reproduces the visible rows exactly; masked rows can
# only come from the fill vector, so their error stays large
dec = init_decoder(6)
recon = reconstruct(groups, masked, dec)
err_visible = float(((recon - groups)[~masked] ** 2).mean())
err_masked = float(((recon - groups)[masked] ** 2).mean())
print(f"reconstruction error: visible rows {err_visible:.3e}, "
      f"masked rows {err_masked:.3f}")

# alpha starts at c and decays by a factor e every two epochs, so early
# training is reconstruction-heavy and late training is classification-heavy
cfg = LossConfig(c=0.3)
print("\nepoch  alpha    1-alpha")
for epoch in (0, 2, 4, 8, 16):
    a = alpha_schedule(cfg, epoch)
    print(f"{epoch:>5}  {a:.5f}  {1 - a:.5f}")
