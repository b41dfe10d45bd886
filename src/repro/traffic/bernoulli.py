"""Uniform Bernoulli i.i.d. traffic.

The classical admissible-traffic benchmark for switch scheduling: in
each slot, each input port independently receives a packet with
probability ``load``; its destination is uniform over the output ports.
``load <= 1`` keeps both inputs and outputs under line rate on average;
``load > 1`` is modelled by allowing multiple independent arrivals per
input per slot (a Poisson-ish burst), since the paper's arrival phase
explicitly allows "arbitrarily many packets" per slot.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from .base import TrafficModel, bernoulli_count
from .values import ValueModel


class BernoulliTraffic(TrafficModel):
    """i.i.d. Bernoulli arrivals with uniform destinations.

    Parameters
    ----------
    n_in, n_out:
        Switch dimensions.
    load:
        Expected arrivals per input port per slot.  Values > 1 produce
        ``floor(load)`` deterministic arrivals plus a Bernoulli
        remainder.
    value_model:
        Packet value distribution (default unit).
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        load: float = 0.8,
        value_model: Optional[ValueModel] = None,
    ):
        if not (load >= 0 and math.isfinite(load)):
            raise ValueError(f"load must be finite and >= 0, got {load}")
        super().__init__(n_in, n_out, value_model, name=f"bernoulli(load={load:g})")
        self.load = float(load)

    def arrivals_for_slot(
        self, slot: int, rng: np.random.Generator
    ) -> List[Tuple[int, int]]:
        out: List[Tuple[int, int]] = []
        for i in range(self.n_in):
            for _ in range(bernoulli_count(rng, self.load)):
                out.append((i, int(rng.integers(0, self.n_out))))
        return out
