"""Trace replay: drive experiments from a recorded arrival sequence.

Interesting instances — adversarial gadgets, ratio outliers found in
sweeps, captures from other simulators — are saved via
:meth:`~repro.traffic.trace.Trace.save` (single-document JSON) or
:meth:`~repro.traffic.trace.Trace.save_stream` (chunked JSONL).  This
model replays such a recording through the
:class:`~repro.traffic.base.TrafficModel` interface so that every
consumer of traffic models (scenarios, benchmarks, the CLI) can run on
recorded inputs exactly like on synthetic ones.

Replay preserves the recorded packet *values* (the value model of the
original instance is part of the instance): ``arrivals_for_slot``
returns ``(src, dst, value)`` triples, so both the materialized and the
streaming path carry them.  ``generate`` is a pure function of its
arguments: the same recording and ``n_slots`` always produce the same
trace, for any seed.

Memory behaviour depends on the recording's format.  A chunked stream
file is **not** materialized at construction: only its header is read,
and :meth:`TraceReplayTraffic.arrival_source` replays it forward at
O(chunk) peak memory (``repeat=True`` re-reads the file per period), so
multi-million-packet recordings can drive ``run_streaming`` without
ever fitting in RAM.  ``generate`` and random-access
``arrivals_for_slot`` materialize the recording on first use — they are
the small-instance/control paths.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..switch.packet import Packet
from .base import TrafficModel
from .trace import Trace, is_stream_file, iter_stream_slots, read_stream_header


class TraceReplayTraffic(TrafficModel):
    """Replays a recorded :class:`Trace` (from memory or a file).

    Parameters
    ----------
    source:
        A :class:`Trace` instance, or a path to a file written by
        :meth:`Trace.save` or :meth:`Trace.save_stream` (format is
        sniffed; stream files stay on disk until a materializing
        method needs them).
    repeat:
        If true, the recording is tiled end-to-end — with period
        ``n_slots`` of the recording, trailing idle slots included —
        to fill the requested horizon; otherwise arrivals beyond the
        recording simply stop (and arrivals past ``n_slots`` are
        truncated).
    """

    def __init__(self, source: Union[Trace, str], repeat: bool = False):
        self._path: Optional[str] = None
        if isinstance(source, str) and is_stream_file(source):
            header = read_stream_header(source)
            self._path = source
            self._trace: Optional[Trace] = None
            n_in, n_out = int(header["n_in"]), int(header["n_out"])
            self._src_n_slots = int(header["n_slots"])
            src_name = str(header.get("name", "trace"))
        else:
            trace = Trace.load(source) if isinstance(source, str) else source
            self._trace = trace
            n_in, n_out = trace.n_in, trace.n_out
            self._src_n_slots = trace.n_slots
            src_name = trace.name
        super().__init__(n_in, n_out, None, name=f"replay({src_name})")
        self.repeat = bool(repeat)

    @property
    def source(self) -> Trace:
        """The recording as an in-memory :class:`Trace` (materializes a
        stream-backed recording on first access)."""
        if self._trace is None:
            self._trace = Trace.load_stream(self._path)
        return self._trace

    @property
    def src_n_slots(self) -> int:
        """Slot count of the recording (tiling period when repeating),
        available without materializing a stream-backed recording."""
        return self._src_n_slots

    def arrivals_for_slot(
        self, slot: int, rng: np.random.Generator
    ) -> List[Tuple[int, int, float]]:
        if self.repeat and self._src_n_slots > 0:
            slot = slot % self._src_n_slots
        return [(p.src, p.dst, p.value) for p in self.source.arrivals(slot)]

    def _iter_recorded_slots(self) -> Iterator[List[Tuple[int, int, float]]]:
        """Per-slot ``(src, dst, value)`` lists over one recording
        period, reading a stream-backed recording forward from disk."""
        if self._trace is not None:
            for t in range(self._trace.n_slots):
                yield [(p.src, p.dst, p.value)
                       for p in self._trace.arrivals(t)]
        else:
            for _t, pkts in iter_stream_slots(self._path):
                yield [(p.src, p.dst, p.value) for p in pkts]

    def arrival_source(
        self, seed: int = 0
    ) -> Callable[[int, object], Sequence[Tuple[int, int, float]]]:
        """Forward-only streaming source over the recording.

        Peak memory is one stream chunk for file-backed recordings.
        ``repeat=True`` restarts the recording (re-reading the file)
        each period; without repeat, slots past the recording are
        empty.  The seed is ignored — replay is seed-independent.
        """
        it = self._iter_recorded_slots()
        expected = 0

        def source(t: int, switch: object) -> List[Tuple[int, int, float]]:
            nonlocal it, expected
            if t != expected:
                raise ValueError(
                    f"arrival_source must be called with consecutive slots "
                    f"(expected {expected}, got {t})"
                )
            expected += 1
            nxt = next(it, None)
            if nxt is None:
                if self.repeat and self._src_n_slots > 0:
                    it = self._iter_recorded_slots()
                    nxt = next(it, None)
                if nxt is None:
                    return []
            return nxt

        return source

    def generate(self, n_slots: int, seed: int = 0) -> Trace:
        """Replay the recording over ``n_slots`` slots (materializing).

        Unlike the stochastic models, values come from the recording
        itself, so the result is seed-independent (the seed only names
        the trace, keeping report labels uniform across models).
        Without ``repeat`` the result keeps the recording's own slot
        count (capped at ``n_slots``), trailing idle slots included.
        """
        packets: List[Packet] = []
        pid = 0
        src = self.source
        src_slots = self._src_n_slots
        for t in range(n_slots):
            if not self.repeat and t >= src_slots:
                break
            base = t % src_slots if (self.repeat and src_slots) else t
            for p in src.arrivals(base):
                packets.append(Packet(pid, p.value, t, p.src, p.dst))
                pid += 1
        out_slots = n_slots if self.repeat else min(n_slots, src_slots)
        return Trace(
            packets,
            self.n_in,
            self.n_out,
            name=f"{self.name}/seed{seed}",
            n_slots=out_slots,
        )
