"""Preemptive Greedy (PG) — Section 2.2 of the paper.

PG is the paper's general-value CIOQ algorithm, shown (3 + 2*sqrt(2))-
competitive, about 5.83, for any speedup when beta = sqrt(2) + 1
(Theorem 2).  It improves on the 6-competitive maximum-matching
algorithm of Kesselman and Rosen by using a *greedy maximal weighted*
matching instead.

With ``g_ij(t)`` the most valuable packet of VOQ ``Q_ij`` and ``l_ij(t)``
/ ``l_j(t)`` the least valuable packets of ``Q_ij`` / output queue
``Q_j``:

* **Arrival phase** — accept ``p`` iff ``|Q_ij| < B(Q_ij)`` or
  ``v(l_ij) < v(p)``; when accepting into a full queue, preempt
  ``l_ij``.
* **Scheduling phase** — edge (u_i, v_j) exists iff ``|Q_ij| > 0`` and
  (``|Q_j| < B(Q_j)`` or ``v(g_ij) > beta * v(l_j)``); its weight is
  ``v(g_ij)``.  Compute a greedy maximal matching scanning edges in
  descending weight; transfer ``g_ij`` along each matched edge,
  preempting ``l_j`` when the output queue is full.
* **Transmission phase** — send the most valuable packet of every
  non-empty output queue.

The preemption threshold ``beta >= 1`` trades admission aggressiveness
against preemption waste; the analysis optimum is ``beta* = 1 + sqrt(2)``
(see :mod:`repro.core.params` and experiment T2).
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..scheduling.base import ArrivalDecision, CIOQPolicy
from ..scheduling.matching import MatchingStats, greedy_maximal_matching_weighted
from ..switch.cioq import CIOQSwitch, Transfer
from ..switch.packet import Packet

#: The analysis-optimal preemption threshold beta* = 1 + sqrt(2).
BETA_STAR = 1.0 + math.sqrt(2.0)


class PGPolicy(CIOQPolicy):
    """Preemptive Greedy: (3 + 2 sqrt 2)-competitive weighted CIOQ
    scheduling.

    Parameters
    ----------
    beta:
        Preemption threshold (>= 1).  Defaults to the analysis optimum
        ``1 + sqrt(2)``.
    stats:
        Optional :class:`MatchingStats` accumulator.
    """

    def __init__(self, beta: float = BETA_STAR, stats: Optional[MatchingStats] = None):
        if not (math.isfinite(beta) and beta >= 1.0):
            raise ValueError(f"beta must be finite and >= 1, got {beta}")
        self.beta = float(beta)
        self.stats = stats
        self.name = f"PG(beta={self.beta:.4g})"

    def on_arrival(self, switch: CIOQSwitch, packet: Packet) -> ArrivalDecision:
        q = switch.voq[packet.src][packet.dst]
        items = q._items
        if len(items) < q.capacity:
            return ArrivalDecision.accepted()
        tail = items[0]
        if tail.value < packet.value:
            return ArrivalDecision.accepted(preempt=tail)
        return ArrivalDecision.reject()

    def _edge_eligible(self, switch: CIOQSwitch, i: int, j: int) -> Optional[Packet]:
        """Return g_ij if edge (i, j) is in G_{T[s]}, else None."""
        g = switch.voq[i][j].head()
        if g is None:
            return None
        out_q = switch.out[j]
        if not out_q.is_full:
            return g
        tail = out_q.tail()
        assert tail is not None
        if g.value > self.beta * tail.value:
            return g
        return None

    def schedule(self, switch: CIOQSwitch, slot: int, cycle: int) -> List[Transfer]:
        # Hot loop: same edge rule as _edge_eligible, with queue internals
        # read directly (see BoundedQueue docs).  Edges are built as
        # (-weight, i, j, g) so that a plain tuple sort yields exactly the
        # descending-weight, (u, v)-tie-broken scan order the paper (and
        # greedy_maximal_matching_weighted) prescribes.
        beta = self.beta
        voq, outs = switch.voq, switch.out
        n_out = switch.n_out
        # Per-output admission state is constant within one cycle: a full
        # output queue Q_j admits g only if v(g) > beta * v(l_j); an open
        # one admits anything (threshold 0 — values are positive).  The
        # full queues' tails are the preemption victims.
        thresholds = [0.0] * n_out
        victims: List[Optional[Packet]] = [None] * n_out
        for j, oq in enumerate(outs):
            oitems = oq._items
            if len(oitems) >= oq.capacity:
                tail = oitems[0]
                thresholds[j] = beta * tail.value
                victims[j] = tail
        edges = []
        append = edges.append
        for i in range(switch.n_in):
            row = voq[i]
            for j in range(n_out):
                items = row[j]._items
                if items:
                    g = items[-1]
                    gv = g.value
                    if gv > thresholds[j]:
                        append((-gv, i, j, g))

        if self.stats is not None:
            # Instrumented path: route through the shared matching engine
            # so the efficiency experiment's operation counters accumulate.
            matching = greedy_maximal_matching_weighted(
                [(i, j, -negw) for negw, i, j, _g in edges], stats=self.stats
            )
            matched = {(i, j) for i, j, _w in matching}
            chosen = [(i, j, g) for negw, i, j, g in sorted(edges)
                      if (i, j) in matched]
        else:
            edges.sort()
            n_free = min(switch.n_in, n_out)
            matched_left = set()
            matched_right = set()
            chosen = []
            for _negw, i, j, g in edges:
                if i not in matched_left and j not in matched_right:
                    matched_left.add(i)
                    matched_right.add(j)
                    chosen.append((i, j, g))
                    n_free -= 1
                    if not n_free:
                        break

        return [Transfer(i, j, g, preempt=victims[j]) for i, j, g in chosen]
