"""Synthetic panels with a dialed-in score/rate coupling.

Scores are standard normal. Rates are an affine image of
coupling*score + sqrt(1-coupling^2)*e1 + noise*e2 with independent standard
normal e1, e2, so the population correlation between score and rate is
exactly `coupling` when noise is 0 and coupling/sqrt(1+noise^2) otherwise.
The affine shift puts rates on a plausible unemployment-percent scale
without touching the correlation.
"""

from __future__ import annotations

import math

import numpy as np

from .pipeline import PanelDataset, PanelRow

__all__ = ["synthetic_panel", "RATE_CENTER", "RATE_SCALE"]

RATE_CENTER = 8.0
RATE_SCALE = 2.0
SYNTH_COUNTRY = "ZZ"


def synthetic_panel(n: int, coupling: float, noise: float, seed: int) -> PanelDataset:
    """Deterministic panel of n rows for the given seed."""
    if n < 3:
        raise ValueError(f"synthetic panel needs n >= 3, got {n}")
    if not (0.0 <= coupling <= 1.0):
        raise ValueError(f"coupling must lie in [0, 1], got {coupling}")
    if noise < 0.0:
        raise ValueError(f"noise must be non-negative, got {noise}")
    if not math.isfinite(noise):
        raise ValueError(f"noise must be finite, got {noise}")
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal(n)
    e1 = rng.standard_normal(n)
    e2 = rng.standard_normal(n)
    latent = coupling * scores + math.sqrt(1.0 - coupling**2) * e1 + noise * e2
    rates = RATE_CENTER + RATE_SCALE * latent
    width = len(str(n - 1))
    rows = tuple(
        PanelRow(
            url=f"site-{i:0{width}d}.example.test",
            country_code=SYNTH_COUNTRY,
            score=float(scores[i]),
            unemployment_rate=float(rates[i]),
        )
        for i in range(n)
    )
    return PanelDataset(rows=rows, raw_count=n)
