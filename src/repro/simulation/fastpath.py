"""Vectorized numpy backend for the slot loop (the ``fast`` backend).

This module re-implements :func:`repro.simulation.kernel.run_slot_loop`
as a *lockstep batch* over many traces ("lanes") at once, with all queue
state held in structure-of-arrays numpy buffers:

* every queue family (VOQs, crosspoint queues, output queues) is a
  ``(value, pid, length)`` triple of arrays with a leading lane axis
  ``S``, entries ``0..len-1`` sorted ascending by the packet key
  ``(value, -pid)`` — head at index ``len-1``, preemption tail at
  index ``0``, exactly mirroring
  :class:`repro.switch.queue.BoundedQueue`;
* arrival admission, queue pushes/pops and transmissions are batched
  numpy operations across lanes and ports, touching only the sparse set
  of non-empty queues, and per-cycle eligibility is packed into per-row
  Python int bitmasks (``np.packbits``) so the sequential matching
  scans cost O(ports), not O(ports^2);
* the genuinely sequential parts — greedy matching scans and the
  order-sensitive float accounting — run as small per-lane Python loops
  over data extracted from the arrays in the reference kernel's exact
  iteration order, so every accumulator receives bit-identical IEEE
  adds in bit-identical order.

The contract is **bit-identical equality** with the reference kernel on
every observable :class:`~repro.simulation.results.SimulationResult`
field; ``tests/test_backend_equivalence.py`` pins it differentially
across the whole scenario registry and a property-based random matrix.

Features the reference kernel has that this backend deliberately does
not (requesting them raises
:class:`~repro.simulation.backends.BackendUnsupported`, and ``auto``
falls back): streaming/adaptive sources, ``record=True`` event logs,
``check_invariants=True``, :class:`MatchingStats` collection, and policy
classes outside :data:`SUPPORTED_POLICIES`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..core.cgu import CGUPolicy
from ..core.cpg import CPGPolicy
from ..core.gm import GMPolicy
from ..core.pg import PGPolicy
from ..obs.recorder import resolve
from ..scheduling.baselines import (
    CrossbarGreedyWeightedPolicy,
    MaxMatchPolicy,
    MaxWeightMatchPolicy,
    RandomMatchPolicy,
    RoundRobinPolicy,
)
from ..scheduling.fifo import FifoCIOQPolicy, FifoCrossbarPolicy
from ..scheduling.matching import hopcroft_karp, max_weight_matching
from ..switch.config import SwitchConfig
from ..traffic.trace import Trace
from .backends import BackendUnsupported
from .engine import drain_bound
from .results import SimulationResult

#: Sentinel pid larger than any real one (head-of-line minimum scans).
_BIG_PID = np.iinfo(np.int64).max

#: Queue lengths and sorted positions fit comfortably in int16
#: (capacities are per-queue buffer sizes); the narrow dtype makes the
#: hot ``len > 0`` / ``len < B`` comparisons several times cheaper.
_LEN_DTYPE = np.int16


# ---------------------------------------------------------------------------
# Structure-of-arrays queue family
# ---------------------------------------------------------------------------

class _QueueFamily:
    """``S x Q`` bounded queues of capacity ``B`` as three arrays.

    ``val[s, q, 0:len[s, q]]`` ascending by ``(value, -pid)``; entries at
    and beyond ``len`` are garbage and must always be masked by ``len``.
    """

    __slots__ = ("val", "pid", "len", "B", "_k")

    def __init__(self, S: int, Q: int, B: int):
        self.val = np.zeros((S, Q, B), dtype=np.float64)
        self.pid = np.zeros((S, Q, B), dtype=np.int64)
        self.len = np.zeros((S, Q), dtype=_LEN_DTYPE)
        self.B = B
        self._k = np.arange(B, dtype=_LEN_DTYPE)

    # All (s, q) selector pairs handed to the mutators below must be
    # unique within one call — the scatter-back would otherwise race.

    def insert(self, s, q, v, p) -> None:
        """Sorted-insert packet ``(v, p)`` into each selected queue."""
        if len(s) == 0:
            return
        rv = self.val[s, q]          # [K, B] gather
        rp = self.pid[s, q]
        ln = self.len[s, q]
        k = self._k
        vc = v[:, None]
        pc = p[:, None]
        valid = k < ln[:, None]
        less = valid & ((rv < vc) | ((rv == vc) & (rp > pc)))
        pos = less.sum(axis=1, dtype=_LEN_DTYPE)[:, None]
        prev_v = np.concatenate([rv[:, :1], rv[:, :-1]], axis=1)
        prev_p = np.concatenate([rp[:, :1], rp[:, :-1]], axis=1)
        above = k > pos
        self.val[s, q] = np.where(k < pos, rv, np.where(above, prev_v, vc))
        self.pid[s, q] = np.where(k < pos, rp, np.where(above, prev_p, pc))
        self.len[s, q] = ln + 1

    def delete_at(self, s, q, pos) -> None:
        """Remove the entry at sorted position ``pos`` from each queue."""
        if len(s) == 0:
            return
        rv = self.val[s, q]
        rp = self.pid[s, q]
        ln = self.len[s, q]
        k = self._k
        posc = np.asarray(pos)[:, None]
        next_v = np.concatenate([rv[:, 1:], rv[:, :1]], axis=1)
        next_p = np.concatenate([rp[:, 1:], rp[:, :1]], axis=1)
        below = k < posc
        self.val[s, q] = np.where(below, rv, next_v)
        self.pid[s, q] = np.where(below, rp, next_p)
        self.len[s, q] = ln - 1

    def pop_heads(self, s, q) -> Tuple[np.ndarray, np.ndarray]:
        """Remove and return the head (max-key) packet of each queue."""
        ln = self.len[s, q] - np.int16(1)
        v = self.val[s, q, ln]
        p = self.pid[s, q, ln]
        self.len[s, q] = ln
        return v, p

    def head_vals_at(self, s, q) -> np.ndarray:
        """Head values of the selected (non-empty) queues."""
        return self.val[s, q, self.len[s, q] - np.int16(1)]

    def heads(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(values, pids, nonempty)`` of every head; empty queues get
        ``-inf`` values (below every real positive value)."""
        ln = self.len
        idx = np.maximum(ln - np.int16(1), np.int16(0))[:, :, None]
        hv = np.take_along_axis(self.val, idx, axis=2)[:, :, 0]
        hp = np.take_along_axis(self.pid, idx, axis=2)[:, :, 0]
        nonempty = ln > 0
        hv = np.where(nonempty, hv, -np.inf)
        return hv, hp, nonempty

    def hols(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(positions, values, pids)`` of every head-of-line (minimum
        pid) packet; empty queues get pid :data:`_BIG_PID`."""
        valid = self._k < self.len[:, :, None]
        pids = np.where(valid, self.pid, _BIG_PID)
        pos = pids.argmin(axis=2)
        hp = pids.min(axis=2)
        hv = np.take_along_axis(self.val, pos[:, :, None], axis=2)[:, :, 0]
        return pos, hv, hp

    def hols_at(self, s, q) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(positions, values, pids)`` of the head-of-line packet of
        each selected (non-empty) queue."""
        rp = self.pid[s, q]                       # [K, B]
        valid = self._k < self.len[s, q][:, None]
        pids = np.where(valid, rp, _BIG_PID)
        pos = pids.argmin(axis=1)
        hp = pids.min(axis=1)
        hv = self.val[s, q, pos]
        return pos, hv, hp


# ---------------------------------------------------------------------------
# Per-trace arrival preprocessing (memoized on the Trace instance)
# ---------------------------------------------------------------------------

class _SlotEvents:
    """One slot's arrivals, decomposed for batched admission.

    ``rounds`` partitions the event indices so that every round touches
    each VOQ cell at most once: event ``k`` lands in round ``r`` when it
    is the ``r``-th arrival into its cell within the slot.  Round ``r``
    decisions therefore see exactly the queue state left by all earlier
    arrivals to the same cell, which is all the sequential admission
    loop of the reference kernel ever observes.
    """

    __slots__ = ("cells", "vals", "pids", "val_list", "rounds")

    def __init__(self, packets, n_out: int):
        cells = [p.src * n_out + p.dst for p in packets]
        self.cells = np.array(cells, dtype=np.int64)
        self.vals = np.array([p.value for p in packets], dtype=np.float64)
        self.pids = np.array([p.pid for p in packets], dtype=np.int64)
        self.val_list = [p.value for p in packets]
        seen: Dict[int, int] = {}
        rounds: List[List[int]] = []
        for k, c in enumerate(cells):
            r = seen.get(c, 0)
            seen[c] = r + 1
            if r == len(rounds):
                rounds.append([])
            rounds[r].append(k)
        self.rounds = [np.array(ridx, dtype=np.int64) for ridx in rounds]


def _prep_trace(trace: Trace, n_out: int) -> List[Optional[_SlotEvents]]:
    cached = getattr(trace, "_fastpath_prep", None)
    if cached is not None and cached[0] == n_out:
        return cached[1]
    slots: List[Optional[_SlotEvents]] = [
        _SlotEvents(packets, n_out) if packets else None
        for packets in trace.arrival_slots()
    ]
    try:
        trace._fastpath_prep = (n_out, slots)
    except AttributeError:  # pragma: no cover - Trace has no __slots__
        pass
    return slots


class _GlobalSlot:
    """One slot's arrivals concatenated lane-major across the batch.

    Safe to precompute for the whole run: a lane with arrivals at slot
    ``t`` has ``t < n_arrival_slots`` and no lane can retire before the
    end of its arrival slots (retirement requires ``t >=
    n_arrival_slots`` or reaching the horizon, which is at least
    ``n_arrival_slots``).
    """

    __slots__ = ("ev_s", "ev_c", "ev_v", "ev_p", "rounds", "lanes", "n")

    def __init__(self, parts):
        # parts: list of (lane, _SlotEvents), lane-index ascending.
        offs = []
        off = 0
        for _lane, se in parts:
            offs.append(off)
            off += len(se.val_list)
        self.n = off
        self.ev_s = np.concatenate([
            np.full(len(se.val_list), lane.idx, dtype=np.int64)
            for lane, se in parts])
        self.ev_c = np.concatenate([se.cells for _l, se in parts])
        self.ev_v = np.concatenate([se.vals for _l, se in parts])
        self.ev_p = np.concatenate([se.pids for _l, se in parts])
        max_r = max(len(se.rounds) for _l, se in parts)
        self.rounds = [
            np.concatenate([
                se.rounds[r] + off
                for (_l, se), off in zip(parts, offs)
                if r < len(se.rounds)
            ])
            for r in range(max_r)
        ]
        self.lanes = [
            (lane, off, se.val_list)
            for (lane, se), off in zip(parts, offs)
        ]


# ---------------------------------------------------------------------------
# Per-trace lane state (Python-scalar accounting, reference order)
# ---------------------------------------------------------------------------

class _Lane:
    __slots__ = (
        "idx", "slots", "n_arr", "horizon", "result", "buffered",
        "n_arrived", "value_arrived", "n_accepted", "value_accepted",
        "n_rejected", "value_rejected", "n_pre_voq", "v_pre_voq",
        "n_pre_cross", "v_pre_cross", "n_pre_out", "v_pre_out",
        "benefit", "n_sent", "sent_po", "val_po",
        "rng", "grant_ptr", "accept_ptr", "slots_exec",
    )

    def __init__(self, idx: int, slots, n_arr: int, horizon: int,
                 result: SimulationResult):
        self.idx = idx
        self.slots = slots
        self.n_arr = n_arr
        self.horizon = horizon
        self.result = result
        self.buffered = 0
        self.n_arrived = 0
        self.value_arrived = 0.0
        self.n_accepted = 0
        self.value_accepted = 0.0
        self.n_rejected = 0
        self.value_rejected = 0.0
        self.n_pre_voq = 0
        self.v_pre_voq = 0.0
        self.n_pre_cross = 0
        self.v_pre_cross = 0.0
        self.n_pre_out = 0
        self.v_pre_out = 0.0
        self.benefit = 0.0
        self.n_sent = 0
        self.sent_po: List[int] = []
        self.val_po: List[float] = []
        self.rng = None
        self.grant_ptr: List[int] = []
        self.accept_ptr: List[int] = []
        self.slots_exec = 0


# ---------------------------------------------------------------------------
# Policy steppers
# ---------------------------------------------------------------------------

class _Stepper:
    """One scheduling-phase implementation; subclasses mirror exactly one
    reference policy class."""

    #: "reject" (drop when the VOQ is full) or "pushout" (preempt the
    #: VOQ tail when strictly less valuable) — the only two arrival
    #: rules across all supported policies.
    arrival = "reject"
    #: "head" (most valuable) or "hol" (earliest pid) transmissions.
    transmit = "head"

    def __init__(self, run: "_BatchRun", proto):
        self.run = run

    def init_lane(self, lane: _Lane) -> None:
        """Install per-lane policy state (pointers, rng)."""

    def cycle(self, t: int, cyc: int) -> None:
        raise NotImplementedError


def _rotated_first(mask: int, offset: int, n: int, full: int) -> int:
    """Index of the first set bit of ``mask`` scanning ``offset,
    offset+1, ..., n-1, 0, ..., offset-1``."""
    if offset:
        mask = ((mask >> offset) | (mask << (n - offset))) & full
    return ((mask & -mask).bit_length() - 1 + offset) % n


def _bits_to_list(mask: int) -> List[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _GMStepper(_Stepper):
    arrival = "reject"

    def __init__(self, run, proto):
        super().__init__(run, proto)
        self.rotate = proto.rotate
        self._orders: Dict[int, Tuple[int, ...]] = {}

    def _order(self, offset: int) -> Tuple[int, ...]:
        cached = self._orders.get(offset)
        if cached is None:
            ni = self.run.NI
            cached = tuple(range(offset, ni)) + tuple(range(offset))
            self._orders[offset] = cached
        return cached

    def cycle(self, t, cyc):
        run = self.run
        ni, nj = run.NI, run.NJ
        offset = (t * run.speedup + cyc) % ni if self.rotate else 0
        order = self._order(offset)
        rowbits = run.voq_rowbits()
        # Starting ``avail`` from the open outputs folds the
        # output-not-full condition of the edge mask into the scan.
        openbits = run.pack_bool_rows(run.out.len < run.B_out)
        ms: List[int] = []
        mq: List[int] = []
        mj: List[int] = []
        for s in run.active_ids:
            avail = openbits[s]
            if not avail:
                continue
            base = s * ni
            for i in order:
                m = rowbits[base + i] & avail
                if m:
                    low = m & -m
                    avail ^= low
                    j = low.bit_length() - 1
                    ms.append(s)
                    mq.append(i * nj + j)
                    mj.append(j)
                    if not avail:
                        break
        run.apply_cioq_head_transfers(ms, mq, mj)


class _MaxMatchStepper(_Stepper):
    arrival = "reject"

    def cycle(self, t, cyc):
        run = self.run
        ni, nj = run.NI, run.NJ
        rowbits = run.voq_rowbits()
        openbits = run.pack_bool_rows(run.out.len < run.B_out)
        ms: List[int] = []
        mq: List[int] = []
        mj: List[int] = []
        for s in run.active_ids:
            ob = openbits[s]
            base = s * ni
            adj = [_bits_to_list(rowbits[base + i] & ob) for i in range(ni)]
            for i, j in hopcroft_karp(ni, nj, adj):
                ms.append(s)
                mq.append(i * nj + j)
                mj.append(j)
        run.apply_cioq_head_transfers(ms, mq, mj)


class _RandomStepper(_Stepper):
    arrival = "reject"

    def __init__(self, run, proto):
        super().__init__(run, proto)
        self.seed = proto.seed

    def init_lane(self, lane):
        lane.rng = np.random.default_rng(self.seed)

    def cycle(self, t, cyc):
        run = self.run
        nj = run.NJ
        mask = run.cioq_edge_mask()
        ss, ii, jj = np.nonzero(mask)
        if ss.size == 0:
            return
        il = ii.tolist()
        jl = jj.tolist()
        bounds = np.searchsorted(ss, run.active_bounds).tolist()
        ms: List[int] = []
        mq: List[int] = []
        mj: List[int] = []
        for pos, s in enumerate(run.active_ids):
            lo, hi = bounds[2 * pos], bounds[2 * pos + 1]
            if lo == hi:
                continue
            order = run.lanes[s].rng.permutation(hi - lo)
            left = 0
            right = 0
            for k in order.tolist():
                i = il[lo + k]
                j = jl[lo + k]
                ib = 1 << i
                jb = 1 << j
                if not (left & ib) and not (right & jb):
                    left |= ib
                    right |= jb
                    ms.append(s)
                    mq.append(i * nj + j)
                    mj.append(j)
        run.apply_cioq_head_transfers(ms, mq, mj)


class _RoundRobinStepper(_Stepper):
    arrival = "reject"

    def init_lane(self, lane):
        lane.grant_ptr = [0] * self.run.NJ
        lane.accept_ptr = [0] * self.run.NI

    def cycle(self, t, cyc):
        run = self.run
        ni, nj = run.NI, run.NJ
        mask = run.cioq_edge_mask()
        colbits = run.pack_bool_rows(
            np.ascontiguousarray(mask.transpose(0, 2, 1)).reshape(-1, ni))
        full_ni = run.full_NI
        ms: List[int] = []
        mq: List[int] = []
        mj: List[int] = []
        for s in run.active_ids:
            lane = run.lanes[s]
            gptr = lane.grant_ptr
            aptr = lane.accept_ptr
            base = s * nj
            grants: List[List[int]] = [[] for _ in range(ni)]
            for j in range(nj):
                m = colbits[base + j]
                if m:
                    i = _rotated_first(m, gptr[j], ni, full_ni)
                    grants[i].append(j)
            for i in range(ni):
                if not grants[i]:
                    continue
                ap = aptr[i]
                best = min(grants[i], key=lambda j: (j - ap) % nj)
                ms.append(s)
                mq.append(i * nj + best)
                mj.append(best)
                aptr[i] = (best + 1) % nj
                gptr[best] = (i + 1) % ni
        run.apply_cioq_head_transfers(ms, mq, mj)


class _PGStepper(_Stepper):
    arrival = "pushout"

    def __init__(self, run, proto):
        super().__init__(run, proto)
        self.beta = proto.beta

    def cycle(self, t, cyc):
        run = self.run
        nj = run.NJ
        ss, cc = run.voq_sparse()
        if ss.size == 0:
            return
        gv = run.voq.head_vals_at(ss, cc)
        full_out = run.out.len >= run.B_out
        tailv = run.out.val[:, :, 0]
        thr = np.where(full_out, self.beta * tailv, 0.0)
        keep = gv > thr[ss, cc % nj]
        if not keep.any():
            return
        ss = ss[keep]
        cc = cc[keep]
        gv = gv[keep]
        # A stable sort by descending value keeps the (lane, i, j)
        # ascending nonzero order among ties — exactly the reference
        # edge sort key (-value, i, j), applied per lane by the scan.
        order = np.argsort(-gv, kind="stable")
        ss = ss[order]
        cc = cc[order]
        ii = cc // nj
        jj = cc - ii * nj
        run.greedy_cioq_preempt(
            ss.tolist(), cc.tolist(), ii.tolist(), jj.tolist(),
            full_out, tailv)


class _MaxWeightStepper(_Stepper):
    arrival = "pushout"

    def __init__(self, run, proto):
        super().__init__(run, proto)
        self.beta = proto.beta

    def cycle(self, t, cyc):
        run = self.run
        nj = run.NJ
        hv, _hp, _ne = run.voq.heads()
        hv3 = hv.reshape(run.S, run.NI, nj)
        full_out = run.out.len >= run.B_out
        tailv = run.out.val[:, :, 0]
        thr = np.where(full_out, self.beta * tailv, 0.0)
        elig = hv3 > thr[:, None, :]
        if not run.all_active:
            elig &= run.active_mask[:, None, None]
        any_edge = elig.any(axis=(1, 2)).tolist()
        weights = np.where(elig, hv3, 0.0)
        fo = full_out.tolist()
        tv = tailv.tolist()
        ms: List[int] = []
        mq: List[int] = []
        mj: List[int] = []
        ps: List[int] = []
        pj: List[int] = []
        for s in run.active_ids:
            if not any_edge[s]:
                continue
            lane = run.lanes[s]
            fo_s = fo[s]
            tv_s = tv[s]
            for i, j, _w in max_weight_matching(weights[s].tolist()):
                if fo_s[j]:
                    lane.n_pre_out += 1
                    lane.v_pre_out += tv_s[j]
                    lane.buffered -= 1
                    ps.append(s)
                    pj.append(j)
                ms.append(s)
                mq.append(i * nj + j)
                mj.append(j)
        run.apply_cioq_head_transfers(ms, mq, mj, pre_s=ps, pre_j=pj)


class _FifoCIOQStepper(_Stepper):
    arrival = "pushout"
    transmit = "hol"

    def cycle(self, t, cyc):
        run = self.run
        nj = run.NJ
        ss, cc = run.voq_sparse()
        if ss.size == 0:
            return
        open_out = (run.out.len < run.B_out)[ss, cc % nj]
        if not open_out.any():
            return
        ss = ss[open_out]
        cc = cc[open_out]
        pos, hv, hp = run.voq.hols_at(ss, cc)
        # Same global stable-sort trick as PG, keyed by the HOL value.
        order = np.argsort(-hv, kind="stable")
        so = ss[order]
        co = cc[order]
        io = co // nj
        jo = co - io * nj
        sl = so.tolist()
        cl = co.tolist()
        il = io.tolist()
        jl = jo.tolist()
        ol = order.tolist()
        left = [0] * run.S
        right = [0] * run.S
        ms: List[int] = []
        mc: List[int] = []
        midx: List[int] = []
        for k, (s, c, i, j) in enumerate(zip(sl, cl, il, jl)):
            ib = 1 << i
            lm = left[s]
            if lm & ib:
                continue
            jb = 1 << j
            rm = right[s]
            if rm & jb:
                continue
            left[s] = lm | ib
            right[s] = rm | jb
            ms.append(s)
            mc.append(c)
            midx.append(ol[k])
        if not ms:
            return
        s_arr = np.array(ms, dtype=np.int64)
        c_arr = np.array(mc, dtype=np.int64)
        sel = np.array(midx, dtype=np.int64)
        run.voq.delete_at(s_arr, c_arr, pos[sel])
        run.out.insert(s_arr, c_arr % nj, hv[sel], hp[sel])


class _CGUStepper(_Stepper):
    arrival = "reject"

    def __init__(self, run, proto):
        super().__init__(run, proto)
        self.rotate = proto.rotate
        ni, nj = run.NI, run.NJ
        # Rolled priority tables: ``_pr_in[off][j] == (j - off) % nj``,
        # so the first index at-or-after the rotation offset is the
        # argmin of the table over the eligible entries.
        self._pr_in = [
            np.roll(np.arange(nj, dtype=np.int16), off) for off in range(nj)
        ]
        self._pr_out = [
            np.roll(np.arange(ni, dtype=np.int16), off) for off in range(ni)
        ]

    def cycle(self, t, cyc):
        run = self.run
        ni, nj = run.NI, run.NJ
        S = run.S
        count = t * run.speedup + cyc
        # Input subphase: first (rotated) j with VOQ non-empty and
        # crosspoint non-full, per input.
        off_in = count % nj if self.rotate else 0
        elig = (run.voq.len > 0) & (run.cross.len < run.B_cross)
        if not run.all_active:
            elig &= run.active_mask[:, None]
        elig3 = elig.reshape(S, ni, nj)
        pr = self._pr_in[off_in]
        masked = np.where(elig3, pr[None, None, :], np.int16(nj))
        am = masked.argmin(axis=2)
        hit = np.take_along_axis(masked, am[:, :, None], axis=2)[:, :, 0] < nj
        ss, ii = np.nonzero(hit)
        if ss.size:
            q_arr = ii * nj + am[ss, ii]
            v, p = run.voq.pop_heads(ss, q_arr)
            run.cross.insert(ss, q_arr, v, p)
        # Output subphase: first (rotated) i with crosspoint non-empty,
        # per non-full output.
        off_out = count % ni if self.rotate else 0
        crossne = run.cross.len > 0
        if not run.all_active:
            crossne &= run.active_mask[:, None]
        elig_out = crossne.reshape(S, ni, nj) & (
            run.out.len < run.B_out)[:, None, :]
        pri = self._pr_out[off_out]
        masked = np.where(elig_out, pri[None, :, None], np.int16(ni))
        am = masked.argmin(axis=1)
        hit = np.take_along_axis(masked, am[:, None, :], axis=1)[:, 0, :] < ni
        ss, jj = np.nonzero(hit)
        if ss.size:
            q_arr = am[ss, jj] * nj + jj
            v, p = run.cross.pop_heads(ss, q_arr)
            run.out.insert(ss, jj, v, p)


class _CPGStepper(_Stepper):
    arrival = "pushout"

    def __init__(self, run, proto):
        super().__init__(run, proto)
        self.beta = proto.beta
        self.alpha = proto.alpha

    def cycle(self, t, cyc):
        run = self.run
        ni, nj = run.NI, run.NJ
        S = run.S
        # -- input subphase: best (value, -pid) eligible VOQ head per i.
        hv, hp, ne = run.voq.heads()
        hv3 = hv.reshape(S, ni, nj)
        hp3 = hp.reshape(S, ni, nj)
        cl = run.cross.len.reshape(S, ni, nj)
        cfull = cl >= run.B_cross
        lcv = run.cross.val[:, :, 0].reshape(S, ni, nj)
        elig = ne.reshape(S, ni, nj) & (
            ~cfull | (hv3 > self.beta * lcv))
        if not run.all_active:
            elig &= run.active_mask[:, None, None]
        bv = np.where(elig, hv3, -np.inf).max(axis=2)
        has = bv > -np.inf
        tie = elig & (hv3 == bv[:, :, None])
        bp = np.where(tie, hp3, _BIG_PID).min(axis=2)
        bj = (tie & (hp3 == bp[:, :, None])).argmax(axis=2)
        ss, ii = np.nonzero(has)
        if ss.size:
            jj = bj[ss, ii]
            cells = ii * nj + jj
            pre = cfull[ss, ii, jj]
            if pre.any():
                vic_v = lcv[ss, ii, jj]
                sl = ss.tolist()
                prel = pre.tolist()
                vicl = vic_v.tolist()
                for k, s in enumerate(sl):
                    if prel[k]:
                        lane = run.lanes[s]
                        lane.n_pre_cross += 1
                        lane.v_pre_cross += vicl[k]
                        lane.buffered -= 1
                v, p = run.voq.pop_heads(ss, cells)
                run.cross.delete_at(ss[pre], cells[pre],
                                    np.zeros(int(pre.sum()),
                                             dtype=_LEN_DTYPE))
                run.cross.insert(ss, cells, v, p)
            else:
                v, p = run.voq.pop_heads(ss, cells)
                run.cross.insert(ss, cells, v, p)
        # -- output subphase: best crosspoint head per j, thresholded
        # admission into the output queue.
        chv, chp, cne = run.cross.heads()
        chv3 = chv.reshape(S, ni, nj)
        chp3 = chp.reshape(S, ni, nj)
        cne3 = cne.reshape(S, ni, nj)
        if not run.all_active:
            cne3 = cne3 & run.active_mask[:, None, None]
        bv = np.where(cne3, chv3, -np.inf).max(axis=1)       # [S, NJ]
        has = bv > -np.inf
        tie = cne3 & (chv3 == bv[:, None, :])
        bp = np.where(tie, chp3, _BIG_PID).min(axis=1)
        bi = (tie & (chp3 == bp[:, None, :])).argmax(axis=1)
        out_full = run.out.len >= run.B_out
        ljv = run.out.val[:, :, 0]
        admit = has & (~out_full | (bv > self.alpha * ljv))
        ss, jj = np.nonzero(admit)
        if ss.size == 0:
            return
        ii = bi[ss, jj]
        cells = ii * nj + jj
        pre = out_full[ss, jj]
        if pre.any():
            vic_v = ljv[ss, jj]
            sl = ss.tolist()
            prel = pre.tolist()
            vicl = vic_v.tolist()
            for k, s in enumerate(sl):
                if prel[k]:
                    lane = run.lanes[s]
                    lane.n_pre_out += 1
                    lane.v_pre_out += vicl[k]
                    lane.buffered -= 1
            v, p = run.cross.pop_heads(ss, cells)
            run.out.delete_at(ss[pre], jj[pre],
                              np.zeros(int(pre.sum()), dtype=_LEN_DTYPE))
            run.out.insert(ss, jj, v, p)
        else:
            v, p = run.cross.pop_heads(ss, cells)
            run.out.insert(ss, jj, v, p)


class _CGWStepper(_Stepper):
    arrival = "reject"

    def cycle(self, t, cyc):
        run = self.run
        ni, nj = run.NI, run.NJ
        S = run.S
        # Input: best (value, -pid) VOQ head among non-full crosspoints.
        hv, hp, ne = run.voq.heads()
        hv3 = hv.reshape(S, ni, nj)
        hp3 = hp.reshape(S, ni, nj)
        cfull = run.cross.len.reshape(S, ni, nj) >= run.B_cross
        elig = ne.reshape(S, ni, nj) & ~cfull
        if not run.all_active:
            elig &= run.active_mask[:, None, None]
        bv = np.where(elig, hv3, -np.inf).max(axis=2)
        has = bv > -np.inf
        tie = elig & (hv3 == bv[:, :, None])
        bp = np.where(tie, hp3, _BIG_PID).min(axis=2)
        bj = (tie & (hp3 == bp[:, :, None])).argmax(axis=2)
        ss, ii = np.nonzero(has)
        if ss.size:
            cells = ii * nj + bj[ss, ii]
            v, p = run.voq.pop_heads(ss, cells)
            run.cross.insert(ss, cells, v, p)
        # Output: best crosspoint head per non-full output.
        chv, chp, cne = run.cross.heads()
        chv3 = chv.reshape(S, ni, nj)
        chp3 = chp.reshape(S, ni, nj)
        cne3 = cne.reshape(S, ni, nj) & (
            run.out.len < run.B_out)[:, None, :]
        if not run.all_active:
            cne3 &= run.active_mask[:, None, None]
        bv = np.where(cne3, chv3, -np.inf).max(axis=1)
        has = bv > -np.inf
        tie = cne3 & (chv3 == bv[:, None, :])
        bp = np.where(tie, chp3, _BIG_PID).min(axis=1)
        bi = (tie & (chp3 == bp[:, None, :])).argmax(axis=1)
        ss, jj = np.nonzero(has)
        if ss.size:
            cells = bi[ss, jj] * nj + jj
            v, p = run.cross.pop_heads(ss, cells)
            run.out.insert(ss, jj, v, p)


class _FifoCrossbarStepper(_Stepper):
    arrival = "pushout"
    transmit = "hol"

    def cycle(self, t, cyc):
        run = self.run
        ni, nj = run.NI, run.NJ
        S = run.S
        # Input: best (hol value, -hol pid) per input among non-full
        # crosspoints.
        pos, hv, hp = run.voq.hols()
        hv3 = hv.reshape(S, ni, nj)
        hp3 = hp.reshape(S, ni, nj)
        ne3 = (run.voq.len > 0).reshape(S, ni, nj)
        cfull = run.cross.len.reshape(S, ni, nj) >= run.B_cross
        elig = ne3 & ~cfull
        if not run.all_active:
            elig &= run.active_mask[:, None, None]
        bv = np.where(elig, hv3, -np.inf).max(axis=2)
        has = bv > -np.inf
        tie = elig & (hv3 == bv[:, :, None])
        bp = np.where(tie, hp3, _BIG_PID).min(axis=2)
        bj = (tie & (hp3 == bp[:, :, None])).argmax(axis=2)
        ss, ii = np.nonzero(has)
        if ss.size:
            cells = ii * nj + bj[ss, ii]
            v = hv[ss, cells]
            p = hp[ss, cells]
            run.voq.delete_at(ss, cells, pos[ss, cells])
            run.cross.insert(ss, cells, v, p)
        # Output: best crosspoint hol per non-full output.
        cpos, chv, chp = run.cross.hols()
        chv3 = chv.reshape(S, ni, nj)
        chp3 = chp.reshape(S, ni, nj)
        cne3 = (run.cross.len > 0).reshape(S, ni, nj) & (
            run.out.len < run.B_out)[:, None, :]
        if not run.all_active:
            cne3 &= run.active_mask[:, None, None]
        bv = np.where(cne3, chv3, -np.inf).max(axis=1)
        has = bv > -np.inf
        tie = cne3 & (chv3 == bv[:, None, :])
        bp = np.where(tie, chp3, _BIG_PID).min(axis=1)
        bi = (tie & (chp3 == bp[:, None, :])).argmax(axis=1)
        ss, jj = np.nonzero(has)
        if ss.size:
            cells = bi[ss, jj] * nj + jj
            v = chv[ss, cells]
            p = chp[ss, cells]
            run.cross.delete_at(ss, cells, cpos[ss, cells])
            run.out.insert(ss, jj, v, p)


#: Policy classes (by exact type) the fast backend implements, per model.
SUPPORTED_POLICIES: Dict[Tuple[str, Type], Type[_Stepper]] = {
    ("cioq", GMPolicy): _GMStepper,
    ("cioq", PGPolicy): _PGStepper,
    ("cioq", MaxMatchPolicy): _MaxMatchStepper,
    ("cioq", MaxWeightMatchPolicy): _MaxWeightStepper,
    ("cioq", RandomMatchPolicy): _RandomStepper,
    ("cioq", RoundRobinPolicy): _RoundRobinStepper,
    ("cioq", FifoCIOQPolicy): _FifoCIOQStepper,
    ("crossbar", CGUPolicy): _CGUStepper,
    ("crossbar", CPGPolicy): _CPGStepper,
    ("crossbar", CrossbarGreedyWeightedPolicy): _CGWStepper,
    ("crossbar", FifoCrossbarPolicy): _FifoCrossbarStepper,
}


# ---------------------------------------------------------------------------
# The lockstep batch run
# ---------------------------------------------------------------------------

class _BatchRun:
    def __init__(self, model: str, proto, config: SwitchConfig,
                 traces: Sequence[Trace], max_extra_slots: Optional[int],
                 trace_occupancy: bool, metrics=None):
        stepper_cls = SUPPORTED_POLICIES.get((model, type(proto)))
        if stepper_cls is None:
            raise BackendUnsupported(
                f"the fast backend has no {model} stepper for "
                f"{type(proto).__name__}"
            )
        if getattr(proto, "stats", None) is not None:
            raise BackendUnsupported(
                "the fast backend cannot collect MatchingStats"
            )
        S = len(traces)
        self.S = S
        self.NI = config.n_in
        self.NJ = config.n_out
        self.B_in = config.b_in
        self.B_out = config.b_out
        self.B_cross = config.b_cross
        self.speedup = config.speedup
        self.model = model
        self.crossbar = model == "crossbar"
        self.trace_occupancy = trace_occupancy
        self.full_NI = (1 << self.NI) - 1
        self.full_NJ = (1 << self.NJ) - 1

        self.voq = _QueueFamily(S, self.NI * self.NJ, self.B_in)
        self.out = _QueueFamily(S, self.NJ, self.B_out)
        self.cross = (_QueueFamily(S, self.NI * self.NJ, self.B_cross)
                      if self.crossbar else None)

        extra = (drain_bound(config) if max_extra_slots is None
                 else max_extra_slots)
        self.lanes: List[_Lane] = []
        for idx, trace in enumerate(traces):  # dims checked by the engine
            horizon = trace.n_slots + extra
            result = SimulationResult(
                policy_name=proto.name, config=config,
                n_arrival_slots=trace.n_slots, horizon=horizon,
            )
            lane = _Lane(idx, _prep_trace(trace, self.NJ), trace.n_slots,
                         horizon, result)
            lane.sent_po = [0] * self.NJ
            lane.val_po = [0.0] * self.NJ
            self.lanes.append(lane)

        self.active: List[_Lane] = list(self.lanes)
        self.active_mask = np.ones(S, dtype=bool)
        self.active_ids: List[int] = [lane.idx for lane in self.active]
        self.all_active = True

        # Lane-major concatenated arrival events per slot, for the
        # whole batch (lanes cannot retire before their arrivals end).
        self.max_n_arr = max((lane.n_arr for lane in self.lanes), default=0)
        self.slot_events: List[Optional[_GlobalSlot]] = []
        for t in range(self.max_n_arr):
            parts = [(lane, lane.slots[t]) for lane in self.lanes
                     if t < lane.n_arr and lane.slots[t] is not None]
            self.slot_events.append(_GlobalSlot(parts) if parts else None)

        self.stepper = stepper_cls(self, proto)
        self.pushout = self.stepper.arrival == "pushout"
        for lane in self.lanes:
            self.stepper.init_lane(lane)

        # Metrics guard: resolved once per batch, never per slot (the
        # same compiled-out contract as the reference kernel).
        self.metrics = resolve(metrics)
        self.m_every = self.metrics.every_k if self.metrics is not None else 0
        self.m_timed = self.metrics is not None and self.metrics.timed
        # Per-lane sample buffers, flushed lane-major after the run so
        # the recorder's series is byte-identical to running the same
        # traces serially through the reference kernel.
        self._samples: Optional[List[List[tuple]]] = (
            [[] for _ in range(S)] if self.m_every > 0 else None)

    # -- shared mask/bit helpers -------------------------------------------

    @property
    def active_bounds(self) -> List[int]:
        out = []
        for s in self.active_ids:
            out.append(s)
            out.append(s + 1)
        return out

    def pack_bool_rows(self, mat: np.ndarray) -> List[int]:
        """Pack each boolean row of a 2-D array into one Python int
        bitmask (bit ``c`` = column ``c``; little-endian platform)."""
        packed = np.packbits(mat, axis=1, bitorder="little")
        nb = packed.shape[1]
        if nb <= 8:
            if nb < 8:
                buf = np.zeros((packed.shape[0], 8), dtype=np.uint8)
                buf[:, :nb] = packed
                packed = buf
            return packed.view(np.uint64).ravel().tolist()
        w = (nb + 7) // 8
        if nb < 8 * w:
            buf = np.zeros((packed.shape[0], 8 * w), dtype=np.uint8)
            buf[:, :nb] = packed
            packed = buf
        stride = 8 * w
        data = packed.tobytes()
        return [
            int.from_bytes(data[o:o + stride], "little")
            for o in range(0, len(data), stride)
        ]

    def voq_rowbits(self) -> List[int]:
        """Per-(lane, input) bitmask of non-empty VOQs (inactive lanes'
        rows are garbage; scans must restrict to ``active_ids``)."""
        return self.pack_bool_rows(
            (self.voq.len > 0).reshape(-1, self.NJ))

    def voq_sparse(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(lane, cell)`` indices of every non-empty VOQ in an active
        lane, lane-major and cell-ascending."""
        ne = self.voq.len > 0
        if not self.all_active:
            ne &= self.active_mask[:, None]
        return np.nonzero(ne)

    def cioq_edge_mask(self) -> np.ndarray:
        """GM's induced graph: VOQ non-empty and output not full."""
        mask = (self.voq.len > 0).reshape(self.S, self.NI, self.NJ) & (
            self.out.len < self.B_out)[:, None, :]
        if not self.all_active:
            mask &= self.active_mask[:, None, None]
        return mask

    # -- shared transfer applicators ---------------------------------------

    def apply_cioq_head_transfers(self, ms, mq, mj, pre_s=None, pre_j=None):
        """Pop VOQ heads at cells ``mq`` and insert them into outputs
        ``mj``; optionally first delete the tails of outputs
        ``(pre_s, pre_j)`` (preemption victims, already accounted)."""
        if not ms:
            return
        s_arr = np.array(ms, dtype=np.int64)
        q_arr = np.array(mq, dtype=np.int64)
        j_arr = np.array(mj, dtype=np.int64)
        v, p = self.voq.pop_heads(s_arr, q_arr)
        if pre_s:
            self.out.delete_at(np.array(pre_s, dtype=np.int64),
                               np.array(pre_j, dtype=np.int64),
                               np.zeros(len(pre_s), dtype=_LEN_DTYPE))
        self.out.insert(s_arr, j_arr, v, p)

    def greedy_cioq_preempt(self, sl, cl, il, jl, full_out, tailv):
        """PG's greedy maximal matching over globally value-sorted edges
        (independent per-lane port masks), with preemption accounting in
        each lane's chosen-transfer order."""
        fo = full_out.tolist()
        tv = tailv.tolist()
        lanes = self.lanes
        left = [0] * self.S
        right = [0] * self.S
        ms: List[int] = []
        mq: List[int] = []
        mj: List[int] = []
        ps: List[int] = []
        pj: List[int] = []
        for s, c, i, j in zip(sl, cl, il, jl):
            ib = 1 << i
            lm = left[s]
            if lm & ib:
                continue
            jb = 1 << j
            rm = right[s]
            if rm & jb:
                continue
            left[s] = lm | ib
            right[s] = rm | jb
            ms.append(s)
            mq.append(c)
            mj.append(j)
            if fo[s][j]:
                lane = lanes[s]
                lane.n_pre_out += 1
                lane.v_pre_out += tv[s][j]
                lane.buffered -= 1
                ps.append(s)
                pj.append(j)
        self.apply_cioq_head_transfers(ms, mq, mj, pre_s=ps, pre_j=pj)

    # -- slot phases --------------------------------------------------------

    def _arrival_phase(self, t: int) -> None:
        g = self.slot_events[t] if t < self.max_n_arr else None
        if g is None:
            return
        voq = self.voq
        b_in = self.B_in
        single = len(g.rounds) == 1
        accbuf = prebuf = tvbuf = None
        if not single:
            accbuf = np.empty(g.n, dtype=bool)
            if self.pushout:
                prebuf = np.zeros(g.n, dtype=bool)
                tvbuf = np.empty(g.n, dtype=np.float64)
        acc = pre = tailv = None
        for ids in g.rounds:
            if single:
                s_idx, cells, vals, pids = g.ev_s, g.ev_c, g.ev_v, g.ev_p
            else:
                s_idx = g.ev_s[ids]
                cells = g.ev_c[ids]
                vals = g.ev_v[ids]
                pids = g.ev_p[ids]
            ln = voq.len[s_idx, cells]
            if self.pushout:
                space = ln < b_in
                tailv = voq.val[s_idx, cells, 0]
                acc = space | (tailv < vals)
                pre = acc & ~space
                if pre.any():
                    voq.delete_at(s_idx[pre], cells[pre],
                                  np.zeros(int(pre.sum()), dtype=_LEN_DTYPE))
            else:
                acc = ln < b_in
            voq.insert(s_idx[acc], cells[acc], vals[acc], pids[acc])
            if not single:
                accbuf[ids] = acc
                if self.pushout:
                    prebuf[ids] = pre
                    tvbuf[ids] = tailv
        if single:
            accbuf = acc
            prebuf = pre
            tvbuf = tailv
        # Reference-order accounting, one Python loop per lane.
        accl = accbuf.tolist()
        if self.pushout:
            prel = prebuf.tolist()
            tvl = tvbuf.tolist()
            for lane, off, vlist in g.lanes:
                k = off
                for pv in vlist:
                    lane.n_arrived += 1
                    lane.value_arrived += pv
                    if accl[k]:
                        if prel[k]:
                            lane.n_pre_voq += 1
                            lane.v_pre_voq += tvl[k]
                            lane.buffered -= 1
                        lane.n_accepted += 1
                        lane.value_accepted += pv
                        lane.buffered += 1
                    else:
                        lane.n_rejected += 1
                        lane.value_rejected += pv
                    k += 1
        else:
            for lane, off, vlist in g.lanes:
                k = off
                for pv in vlist:
                    lane.n_arrived += 1
                    lane.value_arrived += pv
                    if accl[k]:
                        lane.n_accepted += 1
                        lane.value_accepted += pv
                        lane.buffered += 1
                    else:
                        lane.n_rejected += 1
                        lane.value_rejected += pv
                    k += 1

    def _transmit_phase(self, t: int) -> None:
        out = self.out
        nonempty = out.len > 0
        if not self.all_active:
            nonempty &= self.active_mask[:, None]
        ss, jj = np.nonzero(nonempty)
        if ss.size == 0:
            return
        if self.stepper.transmit == "hol":
            pos, v, _hp = out.hols_at(ss, jj)
            out.delete_at(ss, jj, pos)
        else:
            v, _p = out.pop_heads(ss, jj)
        lanes = self.lanes
        for s, j, pv in zip(ss.tolist(), jj.tolist(), v.tolist()):
            lane = lanes[s]
            lane.benefit += pv
            lane.n_sent += 1
            lane.buffered -= 1
            lane.sent_po[j] += 1
            lane.val_po[j] += pv

    def _occupancy_phase(self, t: int) -> None:
        vt = self.voq.len.sum(axis=1).tolist()
        ot = self.out.len.sum(axis=1).tolist()
        ct = (self.cross.len.sum(axis=1).tolist() if self.crossbar
              else [0] * self.S)
        for lane in self.active:
            s = lane.idx
            lane.result.occupancy.append((t, vt[s], ct[s], ot[s]))

    def _sample_phase(self, t: int, sent_before: List[int]) -> None:
        """Buffer one end-of-slot metrics sample per active lane.

        Occupancy totals come from vectorized ``len`` reductions across
        the whole batch (one numpy sum per queue family, not a Python
        walk per lane), matching ``switch.occupancy_totals()`` exactly.
        """
        vt = self.voq.len.sum(axis=1).tolist()
        ot = self.out.len.sum(axis=1).tolist()
        ct = (self.cross.len.sum(axis=1).tolist() if self.crossbar
              else [0] * self.S)
        samples = self._samples
        for lane in self.active:
            s = lane.idx
            samples[s].append((
                t, s, vt[s], ct[s], ot[s],
                lane.n_sent - sent_before[s], lane.n_arrived, lane.n_sent,
                lane.n_rejected,
                lane.n_pre_voq + lane.n_pre_cross + lane.n_pre_out,
            ))

    def _flush_metrics(self, t_arrival: float, t_schedule: float,
                       t_transmit: float, run0: float) -> None:
        """Flush buffered samples (lane-major) and per-lane run counters
        into the recorder, in the exact order serial reference runs over
        the same traces would have produced them."""
        m = self.metrics
        if self._samples is not None:
            slot_sample = m.slot_sample
            for lane in self.lanes:
                for samp in self._samples[lane.idx]:
                    slot_sample(*samp)
        for lane in self.lanes:
            m.counter("runs_total")
            m.counter("slots_total", lane.slots_exec)
            m.counter("packets_arrived_total", lane.n_arrived)
            m.counter("packets_sent_total", lane.n_sent)
            m.counter("packets_rejected_total", lane.n_rejected)
            m.counter("packets_preempted_total",
                      lane.n_pre_voq + lane.n_pre_cross + lane.n_pre_out)
            m.counter("benefit_total", lane.benefit)
        if self.m_timed:
            m.add_time("phase_arrival_seconds", t_arrival)
            m.add_time("phase_schedule_seconds", t_schedule)
            m.add_time("phase_transmit_seconds", t_transmit)
            m.add_time("run_seconds", perf_counter() - run0)

    def _retire(self, t: int) -> None:
        still = []
        for lane in self.active:
            if (not (lane.buffered == 0 and t >= lane.n_arr)
                    and t + 1 < lane.horizon):
                still.append(lane)
            else:
                lane.slots_exec = t + 1
        if len(still) != len(self.active):
            self.active = still
            self.active_ids = [lane.idx for lane in still]
            self.all_active = len(still) == self.S
            self.active_mask[:] = False
            if still:
                self.active_mask[self.active_ids] = True

    def _finalize(self, lane: _Lane) -> SimulationResult:
        res = lane.result
        res.n_arrived = lane.n_arrived
        res.value_arrived = lane.value_arrived
        res.n_accepted = lane.n_accepted
        res.value_accepted = lane.value_accepted
        res.n_rejected = lane.n_rejected
        res.value_rejected = lane.value_rejected
        res.n_preempted_voq = lane.n_pre_voq
        res.value_preempted_voq = lane.v_pre_voq
        res.n_preempted_cross = lane.n_pre_cross
        res.value_preempted_cross = lane.v_pre_cross
        res.n_preempted_out = lane.n_pre_out
        res.value_preempted_out = lane.v_pre_out
        res.benefit = lane.benefit
        res.n_sent = lane.n_sent
        res.sent_per_output = {
            j: c for j, c in enumerate(lane.sent_po) if c
        }
        res.value_per_output = {
            j: lane.val_po[j] for j in res.sent_per_output
        }
        # Residuals in buffered_packets() order: VOQ grid, (crosspoint
        # grid,) outputs; within each queue head -> tail.
        n_res = 0
        v_res = 0.0
        s = lane.idx
        families = [self.voq, self.cross, self.out] if self.crossbar else [
            self.voq, self.out]
        for fam in families:
            lens = fam.len[s]
            nz = np.nonzero(lens)[0]
            if nz.size == 0:
                continue
            for q, l in zip(nz.tolist(), lens[nz].tolist()):
                n_res += l
                row = fam.val[s, q, :l].tolist()
                for vv in reversed(row):
                    v_res += vv
        res.n_residual = n_res
        res.value_residual = v_res
        res.check_conservation()
        return res

    def run(self) -> List[SimulationResult]:
        every = self.m_every
        sampling = every > 0
        timed = self.m_timed
        t_arrival = t_schedule = t_transmit = 0.0
        run0 = perf_counter() if timed else 0.0
        sent_before: List[int] = []
        t = 0
        while self.active:
            sample_slot = sampling and t % every == 0
            if sample_slot:
                sent_before = [lane.n_sent for lane in self.lanes]
            if timed:
                ph0 = perf_counter()
                self._arrival_phase(t)
                ph1 = perf_counter()
                t_arrival += ph1 - ph0
                for cyc in range(self.speedup):
                    self.stepper.cycle(t, cyc)
                ph2 = perf_counter()
                t_schedule += ph2 - ph1
                self._transmit_phase(t)
                t_transmit += perf_counter() - ph2
            else:
                self._arrival_phase(t)
                for cyc in range(self.speedup):
                    self.stepper.cycle(t, cyc)
                self._transmit_phase(t)
            if self.trace_occupancy:
                self._occupancy_phase(t)
            if sample_slot:
                self._sample_phase(t, sent_before)
            self._retire(t)
            t += 1
        results = [self._finalize(lane) for lane in self.lanes]
        if self.metrics is not None:
            self._flush_metrics(t_arrival, t_schedule, t_transmit, run0)
        return results


# ---------------------------------------------------------------------------
# Entry point (called via the engine's backend dispatch)
# ---------------------------------------------------------------------------

def run_batch(
    model: str,
    proto,
    config: SwitchConfig,
    traces: Sequence[Trace],
    *,
    record: bool = False,
    max_extra_slots: Optional[int] = None,
    check_invariants: bool = False,
    trace_occupancy: bool = False,
    metrics=None,
) -> List[SimulationResult]:
    """Run ``proto`` (a policy instance used read-only, as the parameter
    prototype) over every trace in lockstep; returns one
    :class:`SimulationResult` per trace, in order.

    With an active ``metrics`` recorder, per-slot samples are buffered
    during the lockstep loop and flushed lane-major afterwards, so the
    recorder ends up byte-identical to serial reference runs over the
    same traces (lane ``i`` is tagged ``i``)."""
    if record:
        raise BackendUnsupported(
            "the fast backend does not implement record=True event logs"
        )
    if check_invariants:
        raise BackendUnsupported(
            "the fast backend does not implement check_invariants=True"
        )
    return _BatchRun(model, proto, config, traces, max_extra_slots,
                     trace_occupancy, metrics=metrics).run()

