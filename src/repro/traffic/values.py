"""Packet value models.

The paper's general-value case allows arbitrary positive values; the
literature it cites distinguishes several structured regimes that our
experiments reuse:

* **unit** — all values 1 (the GM/CGU setting);
* **two-value {1, alpha}** — the QoS regime of Englert–Westermann and
  Kobayashi et al. (two service classes); the ratio alpha is the "α"
  of Section 1.2;
* **uniform / exponential / Pareto** — smooth and heavy-tailed value
  mixes used to stress PG/CPG's preemption thresholds.

A value model is a callable ``(rng) -> float`` plus a descriptive name.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


class ValueModel:
    """A named distribution over packet values."""

    def __init__(self, name: str, sample: Callable[[np.random.Generator], float]):
        self.name = name
        self._sample = sample

    def __call__(self, rng: np.random.Generator) -> float:
        v = float(self._sample(rng))
        if v <= 0:
            raise ValueError(f"value model {self.name} produced non-positive {v}")
        return v

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ValueModel({self.name})"


def unit_values() -> ValueModel:
    """Every packet has value 1 (the unit-value case)."""
    return ValueModel("unit", lambda rng: 1.0)


def uniform_values(lo: float = 1.0, hi: float = 100.0) -> ValueModel:
    """Values uniform on [lo, hi]."""
    if not 0 < lo <= hi < math.inf:
        raise ValueError(f"need finite 0 < lo <= hi, got [{lo}, {hi}]")
    return ValueModel(
        f"uniform[{lo:g},{hi:g}]", lambda rng: rng.uniform(lo, hi)
    )


def two_value(alpha: float = 10.0, p_high: float = 0.2) -> ValueModel:
    """Two service classes: value 1 w.p. (1 - p_high), value alpha w.p.
    p_high — the {1, α} regime of Section 1.2's related work."""
    if not 1.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 1, got {alpha}")
    if not 0.0 <= p_high <= 1.0:
        raise ValueError(f"p_high must be in [0,1], got {p_high}")
    return ValueModel(
        f"two-value(alpha={alpha:g},p={p_high:g})",
        lambda rng: alpha if rng.random() < p_high else 1.0,
    )


def exponential_values(mean: float = 10.0) -> ValueModel:
    """Values 1 + Exp(mean - 1): light-tailed, strictly positive."""
    if not 1.0 < mean < math.inf:
        raise ValueError(f"mean must be finite and > 1, got {mean}")
    return ValueModel(
        f"exp(mean={mean:g})", lambda rng: 1.0 + rng.exponential(mean - 1.0)
    )


def pareto_values(shape: float = 1.5, scale: float = 1.0) -> ValueModel:
    """Heavy-tailed Pareto values: ``scale * (1 + Pareto(shape))``.

    Small shapes create extreme value skew, the regime where preemption
    decisions (and the beta threshold) matter most.
    """
    if not (0 < shape < math.inf and 0 < scale < math.inf):
        raise ValueError(
            f"shape and scale must be finite and positive, got "
            f"shape={shape}, scale={scale}")
    return ValueModel(
        f"pareto(shape={shape:g},scale={scale:g})",
        lambda rng: scale * (1.0 + rng.pareto(shape)),
    )


def geometric_class_values(n_classes: int = 4, base: float = 4.0) -> ValueModel:
    """``n_classes`` priority classes with values base^0..base^(k-1),
    drawn uniformly — models strict-priority QoS tiers."""
    if (isinstance(n_classes, bool) or not isinstance(n_classes, int)
            or n_classes < 1 or not 1.0 < base < math.inf):
        raise ValueError(
            f"need an integer n_classes >= 1 and a finite base > 1, got "
            f"n_classes={n_classes!r}, base={base}")
    values = [base ** k for k in range(n_classes)]
    return ValueModel(
        f"classes(k={n_classes},base={base:g})",
        lambda rng: values[int(rng.integers(0, n_classes))],
    )
