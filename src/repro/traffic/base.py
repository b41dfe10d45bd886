"""Traffic model interface.

A :class:`TrafficModel` turns a seeded RNG and a slot count into a
:class:`~repro.traffic.trace.Trace`.  Models are deterministic given the
seed, so every experiment is replayable.

The common machinery here assigns packet ids in arrival order (the order
arrival events occur within a slot is the id order, matching the paper's
convention that all events happen at distinct fractional times).

Two entry points share one arrival contract:

* :meth:`TrafficModel.generate` materializes a full :class:`Trace`;
* :meth:`TrafficModel.arrival_source` wraps the same draw sequence in a
  per-slot callback matching the engine's ``run_streaming`` signature,
  so streaming runs are byte-identical to materialized ones.

``arrivals_for_slot`` may return either ``(src, dst)`` pairs — the value
is then drawn from ``value_model``, one draw per packet in arrival
order — or ``(src, dst, value)`` triples for models (like trace replay)
whose values are part of the instance rather than sampled.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..switch.packet import Packet
from .trace import Trace
from .values import ValueModel, unit_values


def bernoulli_count(rng: np.random.Generator, rate: float) -> int:
    """Arrivals for one (input, slot) cell at expected ``rate``:
    ``floor(rate)`` deterministic arrivals plus a Bernoulli remainder
    (consumes exactly one uniform draw — the shared convention that
    keeps every stochastic model's traces seed-stable)."""
    whole = int(rate)
    return whole + (1 if rng.random() < rate - whole else 0)


def normalized_dst_weights(n_out: int, weights) -> np.ndarray:
    """Validate and normalize a destination distribution; ``None``
    means uniform over the ``n_out`` output ports."""
    if weights is None:
        return np.full(n_out, 1.0 / n_out)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n_out,):
        raise ValueError("dst_weights must be n_out non-negative weights")
    # NaN/inf slip through sign/sum checks (NaN compares False, inf sums
    # to inf) and would only blow up much later inside rng.choice.
    if not np.isfinite(w).all():
        raise ValueError("dst_weights must be finite (got NaN or inf)")
    if (w < 0).any() or w.sum() <= 0:
        raise ValueError("dst_weights must be n_out non-negative weights")
    return w / w.sum()


class TrafficModel(ABC):
    """Generates traces for an ``n_in x n_out`` switch."""

    def __init__(
        self,
        n_in: int,
        n_out: int,
        value_model: Optional[ValueModel] = None,
        name: str = "traffic",
    ):
        if n_in < 1 or n_out < 1:
            raise ValueError("traffic model needs at least one port per side")
        self.n_in = n_in
        self.n_out = n_out
        self.value_model = value_model if value_model is not None else unit_values()
        self.name = name

    @abstractmethod
    def arrivals_for_slot(
        self, slot: int, rng: np.random.Generator
    ) -> List[tuple]:
        """Return the slot's arrivals as ``(src, dst)`` pairs or
        ``(src, dst, value)`` triples (see the module docstring)."""

    def reset(self) -> None:
        """Clear any cross-slot state so the model can be reused.

        Stateful models (Markov chains, burst generators) override this
        to drop their carried state.  Every entry point that starts a
        fresh run — :meth:`generate` and :meth:`arrival_source` — calls
        it first, so one model instance can drive many runs without
        leaking chain/burst state between them.  Stateless models keep
        this no-op.
        """

    def _emit_slot(
        self, t: int, rng: np.random.Generator, pid: int,
        packets: List[Packet],
    ) -> int:
        """Append slot ``t``'s packets (id-stamped) and return next pid."""
        for arrival in self.arrivals_for_slot(t, rng):
            if len(arrival) == 3:
                src, dst, value = arrival
            else:
                src, dst = arrival
                value = self.value_model(rng)
            packets.append(
                Packet(pid=pid, value=value, arrival=t, src=src, dst=dst)
            )
            pid += 1
        return pid

    def generate(self, n_slots: int, seed: int = 0) -> Trace:
        """Generate a trace of ``n_slots`` arrival slots."""
        self.reset()
        rng = np.random.default_rng(seed)
        packets: List[Packet] = []
        pid = 0
        for t in range(n_slots):
            pid = self._emit_slot(t, rng, pid, packets)
        return Trace(
            packets,
            self.n_in,
            self.n_out,
            name=f"{self.name}/{self.value_model.name}/seed{seed}",
            n_slots=n_slots,
        )

    def arrival_source(
        self, seed: int = 0
    ) -> Callable[[int, object], Sequence[Tuple[int, int, float]]]:
        """A per-slot arrival callback for ``run_streaming``.

        Returns ``source(t, switch) -> [(src, dst, value), ...]`` that
        replays exactly the draw sequence of ``generate(n_slots, seed)``
        — same RNG, same per-packet value draws, same order — so a
        streaming run is byte-identical to the materialized one.  The
        engine calls slots in order starting at 0; out-of-order calls
        raise, since skipping a slot would silently desynchronize the
        RNG stream.
        """
        self.reset()
        rng = np.random.default_rng(seed)
        expected = 0

        def source(t: int, switch: object) -> List[Tuple[int, int, float]]:
            nonlocal expected
            if t != expected:
                raise ValueError(
                    f"arrival_source must be called with consecutive slots "
                    f"(expected {expected}, got {t})"
                )
            expected += 1
            out: List[Tuple[int, int, float]] = []
            for arrival in self.arrivals_for_slot(t, rng):
                if len(arrival) == 3:
                    src, dst, value = arrival
                else:
                    src, dst = arrival
                    value = self.value_model(rng)
                out.append((src, dst, value))
            return out

        return source
