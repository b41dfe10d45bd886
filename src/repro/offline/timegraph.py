"""Time-expanded offline optimum for CIOQ switches.

The offline optimum OPT of the competitive framework maximizes delivered
value knowing the whole input sequence.  Because all queues are non-FIFO
and values are fixed, OPT never benefits from preemption or from
accepting a packet it will not deliver (rejecting at arrival dominates:
it frees the same capacity earlier).  Hence OPT is exactly the maximum-
value set of packets that can be routed through the time-expanded switch
— arrival slot -> VOQ inventory -> one scheduling-cycle hop -> output
queue inventory -> transmission slot — subject to:

* VOQ occupancy <= B(Q_ij) right after each arrival phase (occupancy is
  largest at that point within a slot),
* at most one packet leaves input port i per scheduling cycle,
* at most one packet enters output queue j per scheduling cycle,
* output occupancy <= B(Q_j) right after each scheduling phase,
* at most one transmission per output port per slot.

The port constraints couple cycle arcs that share no graph node (a
packet must leave through *its own* output), so the exact problem is the
small integer program assembled by :class:`CIOQOptModel` and solved with
HiGHS via :func:`scipy.optimize.milp`.  The constraint matrix is
network-flow-like, so the LP relaxation's simplex vertex is usually
already integral: :meth:`CIOQOptModel.solve` accepts that vertex
when it certifies itself optimal and branches only when it does not
(LP vertex, then a MILP restricted to the packets the LP left
fractional, then the full MILP; see ``docs/offline_opt.md``).

**Drain lemma.**  With no further arrivals, any feasible buffer state of
either switch model can be fully delivered within ``Delta + b_out + 1``
slots, where ``Delta <= max(n_in, n_out) * (b_in + b_cross)`` bounds the
maximum number of buffered packets incident to any one port.  Proof
sketch: form the bipartite multigraph with one edge (i, j) per buffered
packet still short of output queue j.  By Koenig's edge-coloring theorem
it decomposes into ``Delta`` matchings; schedule one matching per slot,
moving each scheduled packet one stage toward (and into) its output
queue — for the crossbar a VOQ packet traverses the crosspoint and the
output subphase within the same cycle when space permits, else the
crosspoint entry is drained first, so each scheduled edge still lands
one (i, j) packet in Q_j.  Using at most one entry per output per slot,
an output queue never exceeds its occupancy bound (it transmits every
slot it is non-empty), so no entry is ever blocked.  After ``Delta``
slots every packet sits in its output queue; at most ``b_out`` more
slots flush the queues.  Hence OPT never needs more than
:func:`window_drain_slots` slots after the last arrival slot
(:func:`default_horizon`), instead of the engine's O(N^2 * b)
:func:`~repro.simulation.engine.drain_bound`.

**Open end.**  By the same lemma no drain slots are needed at all.
Without an explicit horizon both exact models end at the last arrival
slot (``horizon = trace.n_slots``) and keep the final-slot inventories
as variables bounded by the buffer capacities; a packet counts once it
is transmitted or still buffered at the end.  Transmitting whenever an
output queue is non-empty never hurts a schedule (a work-conserving
output queue is never longer), so every final state can be taken as
one the lemma drains, and this OPT equals OPT drained over any longer
horizon.  An explicit ``horizon=H`` keeps meaning "drain by H", and
schedule extraction needs it: the open-ended model does not say when
its final inventories leave.  The equivalence tests cross-validate the
open end against both drained horizons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from ..switch.config import SwitchConfig
from ..traffic.trace import Trace


@dataclass
class OptResult:
    """Outcome of an offline-optimum computation.

    Exact solves report ``benefit`` alone; the windowed and bounds
    solvers (:mod:`repro.offline.windowed`, :mod:`repro.offline.bounds`)
    additionally certify a bracket ``opt_lower <= OPT <= opt_upper`` and
    set ``benefit = opt_upper`` (the conservative denominator for
    competitive ratios).  ``mode`` records which solver produced the
    result so downstream consumers never mistake a bracket for an exact
    optimum.
    """

    benefit: float
    n_delivered: int
    accepted_pids: List[int] = field(default_factory=list)
    status: str = "optimal"
    #: Departure events: (slot, cycle, i, j) with multiplicity.
    departures: List[Tuple[int, int, int, int]] = field(default_factory=list)
    #: Transmission events: (slot, j) with multiplicity.
    transmissions: List[Tuple[int, int]] = field(default_factory=list)
    #: Which solver produced the result: "exact", "windowed" or "bounds".
    mode: str = "exact"
    #: Certified bracket ends; ``None`` means "exact" (both equal benefit).
    opt_lower: Optional[float] = None
    opt_upper: Optional[float] = None
    #: Window width in arrival slots (windowed mode only).
    window: Optional[int] = None
    #: Number of windows the trace was split into (1 for exact/bounds).
    n_windows: int = 1

    @property
    def is_exact(self) -> bool:
        """True when ``benefit`` is the true optimum, not a bracket end."""
        return self.mode == "exact" or self.bracket_width == 0.0

    @property
    def bracket(self) -> Tuple[float, float]:
        """Certified ``(lower, upper)`` bracket on the true OPT value."""
        if self.opt_lower is None or self.opt_upper is None:
            return (self.benefit, self.benefit)
        return (self.opt_lower, self.opt_upper)

    @property
    def bracket_width(self) -> float:
        lo, hi = self.bracket
        return hi - lo

    @property
    def rel_bracket_width(self) -> float:
        """Bracket width relative to the upper end (0 for exact)."""
        lo, hi = self.bracket
        return 0.0 if hi == 0 else (hi - lo) / hi


def window_drain_slots(config: SwitchConfig) -> int:
    """Drain period that always suffices for OPT: O(N * b) slots.

    ``max(n_in, n_out) * (b_in + b_cross) + b_out + 1`` empties either
    switch model with no further arrivals (the drain lemma of the module
    docstring).
    """
    return (
        max(config.n_in, config.n_out) * (config.b_in + config.b_cross)
        + config.b_out
        + 1
    )


def default_horizon(trace: Trace, config: SwitchConfig) -> int:
    """Arrival slots plus :func:`window_drain_slots`: by the drain lemma
    (proved in this module's docstring) OPT drained over this horizon
    equals OPT over any longer one.  Schedule extraction builds over it."""
    return trace.n_slots + window_drain_slots(config)


#: An LP vertex entry within this distance of an integer counts as integral.
INTEGRAL_TOL = 1e-6
#: Relative slack within which an integral point's objective meets the
#: LP bound.
OBJECTIVE_RTOL = 1e-9


class TimeExpandedModel:
    """Shared constructor and certified solver of the exact OPT models.

    Subclasses assemble, in ``build``, the minimised ``objective`` over
    ``n_var`` variables within ``bounds``, the rows
    ``row_lb <= A x <= row_ub`` and the packet variables ``var_a``.
    Every coefficient and bound is integral, so feasibility of an
    integral point is checked exactly in floating point.
    """

    #: Which rung certified the last solve: ``"lp"``, ``"restricted"``
    #: or ``"milp"``; ``None`` until a solve ran (the empty trace needs
    #: none).
    certified_by: Optional[str] = None

    def __init__(
        self,
        trace: Trace,
        config: SwitchConfig,
        horizon: Optional[int] = None,
    ):
        if trace.n_in != config.n_in or trace.n_out != config.n_out:
            raise ValueError("trace/config dimension mismatch")
        self.trace = trace
        self.config = config
        #: No explicit horizon: end at the last arrival slot and keep the
        #: final inventories (see "Open end" in the module docstring).
        self.open_ended = horizon is None
        self.horizon = trace.n_slots if horizon is None else horizon
        if trace.packets and self.horizon <= trace.packets[-1].arrival:
            raise ValueError("horizon must extend past the last arrival")
        self._built = False

    @property
    def carry_end(self) -> int:
        """Slots ``t < carry_end`` carry inventory past their end; a
        drained model's last slot carries none."""
        return self.horizon if self.open_ended else self.horizon - 1

    def _milp(self, integral: bool, bounds: Optional[Bounds] = None):
        return milp(
            c=self.objective,
            constraints=LinearConstraint(self.A, self.row_lb, self.row_ub),
            integrality=np.full(self.n_var, int(integral)),
            bounds=self.bounds if bounds is None else bounds,
            options={"mip_rel_gap": 0},
        )

    def _checked(self, res, what: str):
        if res.status != 0 or res.x is None:
            raise RuntimeError(f"{type(self).__name__} {what} failed: "
                               f"status={res.status} message={res.message!r}")
        return res

    def _attains(self, x: np.ndarray, bound: float) -> bool:
        """Whether the integral point ``x`` is feasible with objective
        within :data:`OBJECTIVE_RTOL` of the LP ``bound``."""
        ax = self.A @ x
        return bool(
            np.all(x >= self.bounds.lb) and np.all(x <= self.bounds.ub)
            and np.all(ax >= self.row_lb) and np.all(ax <= self.row_ub)
            and self.objective @ x
            <= bound + OBJECTIVE_RTOL * max(1.0, abs(bound))
        )

    def solve_lp_relaxation(self) -> float:
        """Benefit of the LP relaxation (integrality dropped).

        Always an upper bound on the exact optimum, and on most
        instances equal to it (fractional vertices are rare).
        """
        if not self.trace.packets:
            return 0.0
        self.build()
        return float(-self._checked(self._milp(False), "LP relaxation").fun)

    def _certified_point(self) -> np.ndarray:
        """An optimal point of the MILP, from the first rung that proves it.

        1. ``lp`` — the LP relaxation's vertex, rounded, when it is
           integral within :data:`INTEGRAL_TOL` and attains the LP bound:
           an integral point attaining the relaxation's optimum is
           optimal for the MILP.
        2. ``restricted`` — the MILP with every packet variable the LP
           left integral fixed at its LP value, when its optimum attains
           the LP bound.
        3. ``milp`` — the full MILP.
        """
        self.build()
        lp = self._checked(self._milp(False), "LP relaxation")
        x = np.round(lp.x)
        integral = np.abs(lp.x - x) <= INTEGRAL_TOL
        if integral.all() and self._attains(x, lp.fun):
            self.certified_by = "lp"
            return x
        a = np.asarray(self.var_a)
        fixed = a[integral[a]]
        lower, upper = self.bounds.lb.copy(), self.bounds.ub.copy()
        lower[fixed] = upper[fixed] = x[fixed]
        res = self._milp(True, Bounds(lower, upper))
        if res.status == 0 and res.x is not None:
            x = np.round(res.x)
            if self._attains(x, lp.fun):
                self.certified_by = "restricted"
                return x
        self.certified_by = "milp"
        return self._checked(self._milp(True), "MILP").x

    def _solve(self, extract_schedule: bool) -> OptResult:
        """Solve to proven optimality.  Each model defines its own
        ``solve`` over this, so the two can be instrumented apart."""
        if extract_schedule and self.open_ended:
            raise ValueError(
                "schedule extraction needs a drained model: pass horizon="
                f"{default_horizon(self.trace, self.config)} "
                "(default_horizon(trace, config))"
            )
        packets = self.trace.packets
        if not packets:
            return OptResult(benefit=0.0, n_delivered=0)
        x = self._certified_point()
        delivered = [p for p, v in zip(packets, self.var_a) if x[v] > 0.5]
        result = OptResult(
            benefit=float(sum(p.value for p in delivered)),
            n_delivered=len(delivered),
            accepted_pids=[p.pid for p in delivered],
        )
        if extract_schedule:
            self._schedule(x, result)
        return result


class CIOQOptModel(TimeExpandedModel):
    """Exact offline optimum for a CIOQ instance via integer programming.

    Variable classes (all integral):

    * ``a_p``    in {0,1} — packet p is accepted and either transmitted
      or still buffered at the end of the last slot,
    * ``x_ijts`` in {0,1} — a packet moves Q_ij -> Q_j in cycle (t, s),
    * ``h_ijt``  in [0, b_in]  — VOQ inventory carried from slot t to t+1,
    * ``g_jt``   in [0, b_out] — output inventory carried from t to t+1,
    * ``w_jt``   in {0,1} — a transmission from output j in slot t.

    Open-ended (no explicit horizon), the final slot's ``h`` and ``g``
    hold what is still buffered, which the drain lemma delivers.  With
    an explicit horizon they are simply not created, which forces OPT
    to drain by it, so ``a_p`` means delivered.
    """

    # -- model assembly -------------------------------------------------------

    def build(self) -> None:
        if self._built:
            return
        cfg = self.config
        H = self.horizon
        S = cfg.speedup
        packets = self.trace.packets

        # Active windows: (i, j) pairs only matter from their first arrival.
        first_arrival: Dict[Tuple[int, int], int] = {}
        arrivals_at: Dict[Tuple[int, int, int], List[int]] = {}
        for idx, p in enumerate(packets):
            key = (p.src, p.dst)
            if key not in first_arrival or p.arrival < first_arrival[key]:
                first_arrival[key] = p.arrival
            arrivals_at.setdefault((p.src, p.dst, p.arrival), []).append(idx)
        out_first: Dict[int, int] = {}
        for (i, j), t0 in first_arrival.items():
            if j not in out_first or t0 < out_first[j]:
                out_first[j] = t0

        # ---- variable numbering ----
        n_var = 0
        self.var_a: List[int] = []
        for _ in packets:
            self.var_a.append(n_var)
            n_var += 1
        self.var_x: Dict[Tuple[int, int, int, int], int] = {}
        for (i, j), t0 in first_arrival.items():
            for t in range(t0, H):
                for s in range(S):
                    self.var_x[(i, j, t, s)] = n_var
                    n_var += 1
        self.var_h: Dict[Tuple[int, int, int], int] = {}
        for (i, j), t0 in first_arrival.items():
            for t in range(t0, self.carry_end):
                self.var_h[(i, j, t)] = n_var
                n_var += 1
        self.var_g: Dict[Tuple[int, int], int] = {}
        self.var_w: Dict[Tuple[int, int], int] = {}
        for j, t0 in out_first.items():
            for t in range(t0, self.carry_end):
                self.var_g[(j, t)] = n_var
                n_var += 1
            for t in range(t0, H):
                self.var_w[(j, t)] = n_var
                n_var += 1
        self.n_var = n_var

        lower = np.zeros(n_var)
        upper = np.ones(n_var)
        for key, v in self.var_h.items():
            upper[v] = cfg.b_in
        for key, v in self.var_g.items():
            upper[v] = cfg.b_out
        self.bounds = Bounds(lower, upper)

        obj = np.zeros(n_var)
        for idx, p in enumerate(packets):
            obj[self.var_a[idx]] = -p.value  # milp minimizes
        self.objective = obj

        # ---- constraint rows (COO assembly) ----
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        lb: List[float] = []
        ub: List[float] = []
        r = 0

        def add_entry(col: int, val: float) -> None:
            rows.append(r)
            cols.append(col)
            vals.append(val)

        # VOQ conservation and capacity, per (i, j, t).
        for (i, j), t0 in first_arrival.items():
            for t in range(t0, H):
                accepted_here = arrivals_at.get((i, j, t), [])
                # Conservation: accepts + h_{t-1} - sum_s x - h_t = 0.
                for idx in accepted_here:
                    add_entry(self.var_a[idx], 1.0)
                if (i, j, t - 1) in self.var_h:
                    add_entry(self.var_h[(i, j, t - 1)], 1.0)
                for s in range(S):
                    add_entry(self.var_x[(i, j, t, s)], -1.0)
                if (i, j, t) in self.var_h:
                    add_entry(self.var_h[(i, j, t)], -1.0)
                lb.append(0.0)
                ub.append(0.0)
                r += 1
                # Capacity: accepts + h_{t-1} <= b_in (only binding when
                # arrivals occur; h alone is bounded by its var bound).
                if accepted_here:
                    for idx in accepted_here:
                        add_entry(self.var_a[idx], 1.0)
                    if (i, j, t - 1) in self.var_h:
                        add_entry(self.var_h[(i, j, t - 1)], 1.0)
                    lb.append(-np.inf)
                    ub.append(float(cfg.b_in))
                    r += 1

        # Port budgets per cycle.
        by_input: Dict[Tuple[int, int, int], List[int]] = {}
        by_output: Dict[Tuple[int, int, int], List[int]] = {}
        for (i, j, t, s), v in self.var_x.items():
            by_input.setdefault((i, t, s), []).append(v)
            by_output.setdefault((j, t, s), []).append(v)
        for group in by_input.values():
            if len(group) == 1:
                continue  # single arc: its own [0,1] bound suffices
            for v in group:
                add_entry(v, 1.0)
            lb.append(-np.inf)
            ub.append(1.0)
            r += 1
        for group in by_output.values():
            if len(group) == 1:
                continue
            for v in group:
                add_entry(v, 1.0)
            lb.append(-np.inf)
            ub.append(1.0)
            r += 1

        # Output queue conservation and capacity, per (j, t).
        x_into_out: Dict[Tuple[int, int], List[int]] = {}
        for (i, j, t, s), v in self.var_x.items():
            x_into_out.setdefault((j, t), []).append(v)
        for j, t0 in out_first.items():
            for t in range(t0, H):
                incoming = x_into_out.get((j, t), [])
                for v in incoming:
                    add_entry(v, 1.0)
                if (j, t - 1) in self.var_g:
                    add_entry(self.var_g[(j, t - 1)], 1.0)
                add_entry(self.var_w[(j, t)], -1.0)
                if (j, t) in self.var_g:
                    add_entry(self.var_g[(j, t)], -1.0)
                lb.append(0.0)
                ub.append(0.0)
                r += 1
                # Capacity: incoming + g_{t-1} <= b_out.
                if incoming:
                    for v in incoming:
                        add_entry(v, 1.0)
                    if (j, t - 1) in self.var_g:
                        add_entry(self.var_g[(j, t - 1)], 1.0)
                    lb.append(-np.inf)
                    ub.append(float(cfg.b_out))
                    r += 1

        self.A = sparse.coo_matrix(
            (vals, (rows, cols)), shape=(r, n_var)
        ).tocsc()
        self.row_lb = np.asarray(lb)
        self.row_ub = np.asarray(ub)
        self._built = True

    # -- solving ----------------------------------------------------------------

    def solve(self, extract_schedule: bool = False) -> OptResult:
        """Solve the model to proven optimality; ``extract_schedule``
        needs an explicit horizon."""
        return self._solve(extract_schedule)

    def _schedule(self, x: np.ndarray, result: OptResult) -> None:
        result.departures = sorted(
            (t, s, i, j) for (i, j, t, s), v in self.var_x.items() if x[v] > 0.5
        )
        result.transmissions = sorted(
            (t, j) for (j, t), v in self.var_w.items() if x[v] > 0.5
        )

