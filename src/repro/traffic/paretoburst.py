"""Heavy-tailed burst traffic: Pareto-distributed ON periods.

The ON/OFF and Markov models have geometrically distributed burst
lengths — light tails, short-range dependence.  Measured network
traffic instead shows heavy-tailed activity periods (the self-similarity
literature the paper cites: Paxson–Floyd, Veres–Boda).  This model makes
each input alternate geometric OFF gaps with ON bursts whose lengths are
drawn from a Pareto distribution: ``len = ceil(Pareto(shape))`` slots,
so for ``shape <= 2`` burst lengths have infinite variance and a single
burst occasionally dominates an entire trace.

Each burst picks one destination and holds it for the burst's whole
duration (an incast-style flow), which concentrates the heavy tail on a
single output queue — the hardest regime for admission decisions.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from .base import TrafficModel, bernoulli_count
from .values import ValueModel


class ParetoBurstTraffic(TrafficModel):
    """Alternating-renewal arrivals with Pareto ON periods.

    Parameters
    ----------
    n_in, n_out:
        Switch dimensions.
    shape:
        Pareto tail index of the burst length (smaller = heavier tail;
        ``shape <= 2`` gives infinite variance).
    p_start:
        Per-slot probability that an idle input starts a burst (OFF
        gaps are geometric with mean ``1/p_start``).
    burst_load:
        Expected arrivals per ON input per slot (may exceed 1).
    max_burst:
        Hard cap on a single burst's length in slots, so one tail draw
        cannot exceed the trace horizon by orders of magnitude.
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        shape: float = 1.5,
        p_start: float = 0.15,
        burst_load: float = 2.0,
        max_burst: int = 1000,
        value_model: Optional[ValueModel] = None,
    ):
        if shape <= 0:
            raise ValueError(f"shape must be > 0, got {shape}")
        if not 0.0 < p_start <= 1.0:
            raise ValueError(f"p_start must be in (0,1], got {p_start}")
        if not (burst_load > 0 and math.isfinite(burst_load)):
            raise ValueError(
                f"burst_load must be finite and > 0, got {burst_load}")
        if max_burst < 1:
            raise ValueError(f"max_burst must be >= 1, got {max_burst}")
        super().__init__(
            n_in,
            n_out,
            value_model,
            name=f"pareto-burst(shape={shape:g},load={burst_load:g})",
        )
        self.shape = float(shape)
        self.p_start = float(p_start)
        self.burst_load = float(burst_load)
        self.max_burst = int(max_burst)
        # Per-input renewal state: remaining ON slots and the burst's target.
        self._remaining: Optional[np.ndarray] = None
        self._target: Optional[np.ndarray] = None

    def reset(self) -> None:
        """Drop in-flight burst state (remaining length and target) so
        the next run starts with every input idle."""
        self._remaining = None
        self._target = None

    def _draw_burst(self, rng: np.random.Generator, i: int) -> None:
        length = int(np.ceil(rng.pareto(self.shape) + 1e-12)) or 1
        self._remaining[i] = min(max(length, 1), self.max_burst)
        self._target[i] = int(rng.integers(0, self.n_out))

    def arrivals_for_slot(
        self, slot: int, rng: np.random.Generator
    ) -> List[Tuple[int, int]]:
        if slot == 0 or self._remaining is None:
            self._remaining = np.zeros(self.n_in, dtype=np.int64)
            self._target = np.zeros(self.n_in, dtype=np.int64)

        out: List[Tuple[int, int]] = []
        for i in range(self.n_in):
            if self._remaining[i] <= 0 and rng.random() < self.p_start:
                self._draw_burst(rng, i)
            if self._remaining[i] <= 0:
                continue
            self._remaining[i] -= 1
            for _ in range(bernoulli_count(rng, self.burst_load)):
                out.append((i, int(self._target[i])))
        return out
