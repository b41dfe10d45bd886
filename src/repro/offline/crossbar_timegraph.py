"""Time-expanded offline optimum for buffered crossbar switches.

Same modelling approach as :mod:`repro.offline.timegraph`, extended with
the crosspoint stage.  Each scheduling cycle (t, s) splits into the
input subphase (VOQ -> crosspoint, at most one packet per *input port*)
followed by the output subphase (crosspoint -> output queue, at most one
packet per *output port*); a packet may traverse both subphases of the
same cycle (it is present in the crosspoint queue when the output
subphase runs).

Crosspoint occupancy peaks right after the input subphase, so the
capacity constraint is ``carry_in + y <= B(C_ij)`` per cycle.

Variable classes (all integral):

* ``a_p``    in {0,1}        — packet p accepted and delivered,
* ``y_ijts`` in {0,1}        — input-subphase transfer Q_ij -> C_ij,
* ``z_ijts`` in {0,1}        — output-subphase transfer C_ij -> Q_j,
* ``h_ijt``  in [0, b_in]    — VOQ inventory slot t -> t+1,
* ``cc_ijts`` in [0, b_cross] — crosspoint inventory cycle -> next cycle,
* ``g_jt``   in [0, b_out]   — output inventory slot t -> t+1,
* ``w_jt``   in {0,1}        — transmission from output j in slot t.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds

from .timegraph import OptResult, TimeExpandedModel


class CrossbarOptModel(TimeExpandedModel):
    """Exact offline optimum for a buffered crossbar instance."""

    def build(self) -> None:
        if self._built:
            return
        cfg = self.config
        H = self.horizon
        S = cfg.speedup
        packets = self.trace.packets

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

        def cycles_from(t0: int):
            for t in range(t0, H):
                for s in range(S):
                    yield t, s

        # ---- variable numbering ----
        n_var = 0
        self.var_a: List[int] = []
        for _ in packets:
            self.var_a.append(n_var)
            n_var += 1
        self.var_y: Dict[Tuple[int, int, int, int], int] = {}
        self.var_z: Dict[Tuple[int, int, int, int], int] = {}
        self.var_cc: Dict[Tuple[int, int, int, int], int] = {}
        for (i, j), t0 in first_arrival.items():
            for t, s in cycles_from(t0):
                self.var_y[(i, j, t, s)] = n_var
                n_var += 1
                self.var_z[(i, j, t, s)] = n_var
                n_var += 1
                if not (t == H - 1 and s == S - 1):
                    self.var_cc[(i, j, t, s)] = n_var
                    n_var += 1
        self.var_h: Dict[Tuple[int, int, int], int] = {}
        for (i, j), t0 in first_arrival.items():
            for t in range(t0, H - 1):
                self.var_h[(i, j, t)] = n_var
                n_var += 1
        self.var_g: Dict[Tuple[int, int], int] = {}
        self.var_w: Dict[Tuple[int, int], int] = {}
        for j, t0 in out_first.items():
            for t in range(t0, H - 1):
                self.var_g[(j, t)] = n_var
                n_var += 1
            for t in range(t0, H):
                self.var_w[(j, t)] = n_var
                n_var += 1
        self.n_var = n_var

        lower = np.zeros(n_var)
        upper = np.ones(n_var)
        for v in self.var_h.values():
            upper[v] = cfg.b_in
        for v in self.var_cc.values():
            upper[v] = cfg.b_cross
        for v in self.var_g.values():
            upper[v] = cfg.b_out
        self.bounds = Bounds(lower, upper)

        obj = np.zeros(n_var)
        for idx, p in enumerate(packets):
            obj[self.var_a[idx]] = -p.value
        self.objective = obj

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

        def prev_cycle(t: int, s: int, t0: int) -> Optional[Tuple[int, int]]:
            if s > 0:
                return (t, s - 1)
            if t > t0:
                return (t - 1, S - 1)
            return None

        # VOQ conservation and capacity.
        for (i, j), t0 in first_arrival.items():
            for t in range(t0, H):
                accepted_here = arrivals_at.get((i, j, t), [])
                for idx in accepted_here:
                    add_entry(self.var_a[idx], 1.0)
                if (i, j, t - 1) in self.var_h:
                    add_entry(self.var_h[(i, j, t - 1)], 1.0)
                for s in range(S):
                    add_entry(self.var_y[(i, j, t, s)], -1.0)
                if (i, j, t) in self.var_h:
                    add_entry(self.var_h[(i, j, t)], -1.0)
                lb.append(0.0)
                ub.append(0.0)
                r += 1
                if accepted_here:
                    for idx in accepted_here:
                        add_entry(self.var_a[idx], 1.0)
                    if (i, j, t - 1) in self.var_h:
                        add_entry(self.var_h[(i, j, t - 1)], 1.0)
                    lb.append(-np.inf)
                    ub.append(float(cfg.b_in))
                    r += 1

        # Input-port budget per (i, t, s): sum_j y <= 1.
        by_input: Dict[Tuple[int, int, int], List[int]] = {}
        for (i, j, t, s), v in self.var_y.items():
            by_input.setdefault((i, t, s), []).append(v)
        for group in by_input.values():
            if len(group) == 1:
                continue
            for v in group:
                add_entry(v, 1.0)
            lb.append(-np.inf)
            ub.append(1.0)
            r += 1

        # Crosspoint conservation and mid-cycle capacity per (i, j, t, s).
        for (i, j), t0 in first_arrival.items():
            for t, s in cycles_from(t0):
                pc = prev_cycle(t, s, t0)
                carry_in = self.var_cc.get((i, j) + pc) if pc else None
                # Conservation: carry_in + y - z - carry_out = 0.
                if carry_in is not None:
                    add_entry(carry_in, 1.0)
                add_entry(self.var_y[(i, j, t, s)], 1.0)
                add_entry(self.var_z[(i, j, t, s)], -1.0)
                carry_out = self.var_cc.get((i, j, t, s))
                if carry_out is not None:
                    add_entry(carry_out, -1.0)
                lb.append(0.0)
                ub.append(0.0)
                r += 1
                # Mid-cycle capacity: carry_in + y <= b_cross.
                if carry_in is not None:
                    add_entry(carry_in, 1.0)
                    add_entry(self.var_y[(i, j, t, s)], 1.0)
                    lb.append(-np.inf)
                    ub.append(float(cfg.b_cross))
                    r += 1

        # Output-port budget per (j, t, s): sum_i z <= 1.
        by_output: Dict[Tuple[int, int, int], List[int]] = {}
        for (i, j, t, s), v in self.var_z.items():
            by_output.setdefault((j, t, s), []).append(v)
        for group in by_output.values():
            if len(group) == 1:
                continue
            for v in group:
                add_entry(v, 1.0)
            lb.append(-np.inf)
            ub.append(1.0)
            r += 1

        # Output queue conservation and capacity per (j, t).
        z_into_out: Dict[Tuple[int, int], List[int]] = {}
        for (i, j, t, s), v in self.var_z.items():
            z_into_out.setdefault((j, t), []).append(v)
        for j, t0 in out_first.items():
            for t in range(t0, H):
                incoming = z_into_out.get((j, t), [])
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

    def solve(self, extract_schedule: bool = False) -> OptResult:
        """Solve to proven optimality."""
        return self._solve(extract_schedule)

    def _schedule(self, x: np.ndarray, result: OptResult) -> None:
        # Departures reported at both stages; shadow replay for the
        # crossbar consumes input-subphase (y) and output-subphase (z)
        # events separately via the raw maps below.
        self.y_events = sorted(
            (t, s, i, j) for (i, j, t, s), v in self.var_y.items() if x[v] > 0.5
        )
        self.z_events = sorted(
            (t, s, i, j) for (i, j, t, s), v in self.var_z.items() if x[v] > 0.5
        )
        result.departures = list(self.y_events)
        result.transmissions = sorted(
            (t, j) for (j, t), v in self.var_w.items() if x[v] > 0.5
        )
