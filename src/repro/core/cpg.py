"""Crossbar Preemptive Greedy (CPG) — Section 3.2 of the paper.

CPG is the paper's general-value buffered-crossbar algorithm, shown
about 14.83-competitive for any speedup (Theorem 4), improving on the
16.24-competitive algorithm of Kesselman, Kogan and Segal.  The key
difference from the prior algorithm is that the two preemption
thresholds — ``beta`` at the crosspoint queues, ``alpha`` at the output
queues — take *different* optimal values (the prior work used
``beta == alpha``; experiment T9 quantifies the gap).

With ``g_ij``/``l_ij`` the greatest/least-value packets of VOQ ``Q_ij``,
``gc_ij``/``lc_ij`` those of crosspoint queue ``C_ij``, and ``l_j`` the
least-value packet of output queue ``Q_j``:

* **Arrival phase** — as PG: accept iff the VOQ is not full or
  ``v(l_ij) < v(p)``, preempting ``l_ij`` in the latter case.
* **Input subphase** — for each input port ``i``, among
  ``J = { j : |Q_ij| > 0 and (|C_ij| < B(C_ij) or
  v(g_ij) > beta * v(lc_ij)) }`` choose the ``j`` maximizing
  ``v(g_ij)``; transfer ``g_ij`` to ``C_ij``, preempting ``lc_ij`` if
  the crosspoint queue is full.
* **Output subphase** — for each output port ``j``, choose the ``i``
  maximizing ``v(gc_ij)`` among non-empty crosspoint queues; transfer
  ``gc_ij`` to ``Q_j`` iff ``|Q_j| < B(Q_j)`` or
  ``v(gc_ij) > alpha * v(l_j)``, preempting ``l_j`` if full.
* **Transmission phase** — send the most valuable packet of every
  non-empty output queue.

All ties are broken deterministically by packet id (Assumption A3).
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..scheduling.base import ArrivalDecision, CrossbarPolicy
from ..switch.crossbar import CrossbarSwitch, InputTransfer, OutputTransfer
from ..switch.packet import Packet
from .params import cpg_optimal_params


class CPGPolicy(CrossbarPolicy):
    """Crossbar Preemptive Greedy: ~14.83-competitive weighted crossbar
    scheduling.

    Parameters
    ----------
    beta:
        Crosspoint-queue preemption threshold (>= 1).  Defaults to the
        analysis optimum (~1.8393).
    alpha:
        Output-queue preemption threshold (>= 1).  Defaults to the
        analysis optimum ``2 / (beta - 1)^2`` (~2.8393).
    """

    def __init__(self, beta: Optional[float] = None, alpha: Optional[float] = None):
        beta_star, alpha_star, _ = cpg_optimal_params()
        self.beta = float(beta) if beta is not None else beta_star
        self.alpha = float(alpha) if alpha is not None else alpha_star
        if not all(math.isfinite(t) and t >= 1.0 for t in (self.beta, self.alpha)):
            raise ValueError(
                f"thresholds must be finite and >= 1, got beta={self.beta}, alpha={self.alpha}"
            )
        self.name = f"CPG(beta={self.beta:.4g}, alpha={self.alpha:.4g})"

    def on_arrival(self, switch: CrossbarSwitch, packet: Packet) -> ArrivalDecision:
        q = switch.voq[packet.src][packet.dst]
        if not q.is_full:
            return ArrivalDecision.accepted()
        tail = q.tail()
        assert tail is not None
        if tail.value < packet.value:
            return ArrivalDecision.accepted(preempt=tail)
        return ArrivalDecision.reject()

    def input_subphase(
        self, switch: CrossbarSwitch, slot: int, cycle: int
    ) -> List[InputTransfer]:
        transfers: List[InputTransfer] = []
        for i in range(switch.n_in):
            best: Optional[Packet] = None
            best_j = -1
            for j in range(switch.n_out):
                g = switch.voq[i][j].head()
                if g is None:
                    continue
                c = switch.cross[i][j]
                if c.is_full:
                    lc = c.tail()
                    assert lc is not None
                    if not g.value > self.beta * lc.value:
                        continue
                if best is None or g.beats(best):
                    best = g
                    best_j = j
            if best is not None:
                c = switch.cross[i][best_j]
                victim = c.tail() if c.is_full else None
                transfers.append(InputTransfer(i, best_j, best, preempt=victim))
        return transfers

    def output_subphase(
        self, switch: CrossbarSwitch, slot: int, cycle: int
    ) -> List[OutputTransfer]:
        transfers: List[OutputTransfer] = []
        for j in range(switch.n_out):
            best: Optional[Packet] = None
            best_i = -1
            for i in range(switch.n_in):
                gc = switch.cross[i][j].head()
                if gc is None:
                    continue
                if best is None or gc.beats(best):
                    best = gc
                    best_i = i
            if best is None:
                continue
            out_q = switch.out[j]
            if out_q.is_full:
                lj = out_q.tail()
                assert lj is not None
                if not best.value > self.alpha * lj.value:
                    continue
                transfers.append(OutputTransfer(best_i, j, best, preempt=lj))
            else:
                transfers.append(OutputTransfer(best_i, j, best))
        return transfers
