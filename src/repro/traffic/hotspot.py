"""Nonuniform destination patterns: hotspot and diagonal traffic.

Standard stress patterns from the switching literature:

* **hotspot** — a fraction of all traffic targets one (or a few) output
  ports, creating sustained output contention; this is the regime where
  output-queue capacity and the scheduling policy's output choices
  dominate throughput.
* **diagonal** — input ``i`` sends mostly to output ``i`` and the rest
  to ``i+1 (mod N)``; the classical hard case for maximal-matching
  schedulers because the bipartite graph is near-degenerate.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from .base import TrafficModel, bernoulli_count
from .values import ValueModel


class HotspotTraffic(TrafficModel):
    """Bernoulli arrivals with a hotspot destination distribution.

    With probability ``hot_fraction`` a packet targets the hotspot
    output (port 0 by default); otherwise its destination is uniform
    over the remaining ports.
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        load: float = 0.9,
        hot_fraction: float = 0.5,
        hot_port: int = 0,
        value_model: Optional[ValueModel] = None,
    ):
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction must be in [0,1], got {hot_fraction}")
        if not 0 <= hot_port < n_out:
            raise ValueError(f"hot_port {hot_port} out of range")
        if not (load >= 0 and math.isfinite(load)):
            raise ValueError(f"load must be finite and >= 0, got {load}")
        super().__init__(
            n_in,
            n_out,
            value_model,
            name=f"hotspot(load={load:g},hot={hot_fraction:g}@{hot_port})",
        )
        self.load = float(load)
        self.hot_fraction = float(hot_fraction)
        self.hot_port = int(hot_port)

    def arrivals_for_slot(
        self, slot: int, rng: np.random.Generator
    ) -> List[Tuple[int, int]]:
        out: List[Tuple[int, int]] = []
        cold_ports = [j for j in range(self.n_out) if j != self.hot_port]
        for i in range(self.n_in):
            for _ in range(bernoulli_count(rng, self.load)):
                if self.n_out == 1 or rng.random() < self.hot_fraction:
                    dst = self.hot_port
                else:
                    dst = cold_ports[int(rng.integers(0, len(cold_ports)))]
                out.append((i, dst))
        return out


class DiagonalTraffic(TrafficModel):
    """Diagonal loading: input i -> output i w.p. ``diag_fraction``,
    else output (i+1) mod n_out.  Requires a square-ish switch
    (destinations are taken mod ``n_out``)."""

    def __init__(
        self,
        n_in: int,
        n_out: int,
        load: float = 0.9,
        diag_fraction: float = 2.0 / 3.0,
        value_model: Optional[ValueModel] = None,
    ):
        if not 0.0 <= diag_fraction <= 1.0:
            raise ValueError(f"diag_fraction must be in [0,1], got {diag_fraction}")
        if not (load >= 0 and math.isfinite(load)):
            raise ValueError(f"load must be finite and >= 0, got {load}")
        super().__init__(
            n_in,
            n_out,
            value_model,
            name=f"diagonal(load={load:g},diag={diag_fraction:g})",
        )
        self.load = float(load)
        self.diag_fraction = float(diag_fraction)

    def arrivals_for_slot(
        self, slot: int, rng: np.random.Generator
    ) -> List[Tuple[int, int]]:
        out: List[Tuple[int, int]] = []
        for i in range(self.n_in):
            for _ in range(bernoulli_count(rng, self.load)):
                if rng.random() < self.diag_fraction:
                    dst = i % self.n_out
                else:
                    dst = (i + 1) % self.n_out
                out.append((i, dst))
        return out
