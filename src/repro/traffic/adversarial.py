"""Adversarial instance generators.

Competitive ratios are worst-case statements, so random traffic alone
cannot exhibit them.  This module provides two kinds of hard instances:

1. **Deterministic gadgets** — fixed sequences encoding the structural
   weaknesses the lower-bound literature (Section 1.2) exploits:
   admission loss under VOQ bursts, preemption-chain waste under
   escalating values, and the beta-threshold admission/preemption
   trade-off the paper's conclusion discusses.

2. **Adaptive adversaries** — slot-by-slot generators that observe the
   *online* switch state and aim arrivals at its weakest queue.  Against
   a deterministic policy this is equivalent to the oblivious adversary
   of the competitive framework (the adversary could have precomputed
   the run).  :func:`generate_adaptive_trace` runs the online policy
   while the adversary builds the sequence, then returns the recorded
   :class:`~repro.traffic.trace.Trace` so the exact offline optimum can
   be computed on it afterwards.

Measured ratios on these instances are *lower bounds on the worst case*
of the specific policy run — they demonstrate the guarantees are not
vacuous (experiment T7), not that the analysis is tight.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, List, Optional, Tuple

from ..switch.cioq import CIOQSwitch
from ..switch.config import SwitchConfig
from ..switch.packet import Packet
from .trace import Trace

ArrivalSpec = Tuple[int, int, float]  # (src, dst, value)


# ---------------------------------------------------------------------------
# Deterministic gadgets
# ---------------------------------------------------------------------------

def burst_reject_gadget(
    n: int = 4,
    b_in: int = 2,
    n_rounds: int = 8,
) -> Trace:
    """Unit-value VOQ-overflow gadget for an n x n switch.

    Every round, each input receives a burst of ``2 * b_in`` packets for
    a single round-dependent output (overflowing any VOQ of capacity
    ``b_in``), followed by ``b_in`` quiet slots in which only one fresh
    packet per input arrives, aimed at the output the burst just
    saturated.  A greedy online algorithm has its VOQ still full and
    rejects the fresh packets; the optimum can reject part of the burst
    instead and keep room.  Measured ratios grow with ``b_in``.
    """
    packets: List[Packet] = []
    pid = 0
    t = 0
    for r in range(n_rounds):
        hot = r % n
        for i in range(n):
            for _ in range(2 * b_in):
                packets.append(Packet(pid, 1.0, t, i, hot))
                pid += 1
        for q in range(b_in):
            t += 1
            for i in range(n):
                packets.append(Packet(pid, 1.0, t, i, hot))
                pid += 1
        t += 1
    return Trace(packets, n, n, name=f"burst-reject(n={n},b_in={b_in})")


def escalating_values_gadget(
    beta: float,
    n: int = 2,
    chain_length: int = 6,
    n_chains: int = 4,
    eps: float = 0.05,
) -> Trace:
    """Preemption-chain gadget for weighted policies (PG analysis,
    Lemma 7).

    Within a single slot, a chain of packets with values
    ``1, c, c^2, ..., c^k`` (``c = beta + eps``) arrives at input 0, all
    for output 0.  Each is just valuable enough to preempt its
    predecessor at a capacity-1 queue, so an online policy with
    threshold ``beta`` preempts its way up the chain and salvages only
    ``c^k`` — while the optimum simply rejects everything but the top
    packet and loses nothing.  Chains repeat every other slot on
    rotating outputs so transmissions cannot amortize the waste.
    """
    if beta < 1.0:
        raise ValueError(f"beta must be >= 1, got {beta}")
    c = beta + eps
    packets: List[Packet] = []
    pid = 0
    for chain in range(n_chains):
        t = 2 * chain
        dst = chain % n
        for k in range(chain_length + 1):
            packets.append(Packet(pid, c ** k, t, 0, dst))
            pid += 1
    return Trace(
        packets, n, n, name=f"escalating(beta={beta:g},k={chain_length})"
    )


def beta_admission_gadget(
    beta: float,
    n: int = 2,
    b_out: int = 4,
    rate: int = 3,
    n_rounds: int = 3,
    eps: float = 0.05,
) -> Trace:
    """The "first term" scenario of the paper's Section 4 discussion:
    PG's ratio pays ``beta`` when it admits cheap packets into output
    queues that block almost-``beta``-times-more-valuable traffic.

    Each round: (a) value-1 packets from every input fill output 0's
    queue; (b) during the ``b_out`` slots the queue takes to drain, a
    stream of value-``(beta - eps)`` packets floods VOQ (0, 0) — PG
    cannot schedule them (``v <= beta * 1``) and, once the VOQ
    overflows, cannot even accept them (equal-value tails are not
    preempted), while the optimum simply rejects the 1s and delivers
    the whole stream.  Run against ``PGPolicy(beta=beta)`` with
    ``SwitchConfig.square(n, speedup=n, b_in=b_out, b_out=b_out)``;
    measured ratios are ~1.3 (paper bound 5.83), and sweeping the
    *policy's* beta on this fixed trace reproduces the admission-
    aggressiveness trade-off (experiments T7/T9).
    """
    if beta < 1.0:
        raise ValueError(f"beta must be >= 1, got {beta}")
    v = beta - eps
    if v <= 1.0:
        raise ValueError("beta - eps must exceed the low value 1")
    packets: List[Packet] = []
    pid = 0
    t = 0
    for _ in range(n_rounds):
        for _ in range(b_out):
            for i in range(n):
                packets.append(Packet(pid, 1.0, t, i, 0))
                pid += 1
            t += 1
        for _ in range(b_out):
            for _ in range(rate):
                packets.append(Packet(pid, v, t, 0, 0))
                pid += 1
            t += 1
        t += rate * b_out  # quiet drain period
    return Trace(packets, n, n, name=f"beta-admission(beta={beta:g})")


def two_value_contention_gadget(
    alpha: float = 10.0,
    n: int = 4,
    b_out: int = 4,
    n_rounds: int = 6,
) -> Trace:
    """Two-value gadget for the beta trade-off of Section 4.

    Each round floods output 0 with value-1 packets from every input
    (filling online output queues with cheap traffic), then delivers a
    burst of value-``alpha`` packets for the same output.  A small beta
    admits the high-value burst by preempting the cheap packets (good
    here); a large beta refuses to preempt and forfeits the burst.  The
    reverse pattern (cheap traffic that would all have been deliverable)
    appears in rounds where no burst follows, punishing small beta.
    """
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    packets: List[Packet] = []
    pid = 0
    t = 0
    for r in range(n_rounds):
        burst_round = r % 2 == 0
        for _ in range(b_out):
            for i in range(n):
                packets.append(Packet(pid, 1.0, t, i, 0))
                pid += 1
            t += 1
        if burst_round:
            for i in range(n):
                for _ in range(b_out):
                    packets.append(Packet(pid, alpha, t, i, 0))
                    pid += 1
            t += 1
        # Quiet drain period.
        t += b_out
    return Trace(packets, n, n, name=f"two-value(alpha={alpha:g})")


# ---------------------------------------------------------------------------
# Adaptive adversaries
# ---------------------------------------------------------------------------

class AdaptiveAdversary(ABC):
    """Generates arrivals slot-by-slot while observing the online switch."""

    name = "adaptive"

    @abstractmethod
    def next_arrivals(self, slot: int, switch: CIOQSwitch) -> List[ArrivalSpec]:
        """Arrivals for ``slot``, chosen after seeing the online state
        at the end of slot ``slot - 1``."""


class FullQueuePressureAdversary(AdaptiveAdversary):
    """Unit-value adversary that aims packets at the online algorithm's
    fullest VOQs.

    Each slot it sends one packet to every VOQ that is currently *full*
    in the online switch (guaranteed rejections for non-preemptive
    policies, while an optimum that drained differently could accept)
    plus a sustaining packet to the most loaded output of each input so
    queues never empty.  This adapts the classical multi-queue greedy
    lower-bound pressure pattern to the CIOQ setting.
    """

    name = "full-queue-pressure"

    def __init__(self, sustain: bool = True):
        self.sustain = sustain

    def next_arrivals(self, slot: int, switch: CIOQSwitch) -> List[ArrivalSpec]:
        out: List[ArrivalSpec] = []
        if slot == 0:
            # Opening burst: fill every VOQ to capacity.
            for i in range(switch.n_in):
                for j in range(switch.n_out):
                    for _ in range(switch.config.b_in):
                        out.append((i, j, 1.0))
            return out
        for i in range(switch.n_in):
            row = switch.voq[i]
            targeted = False
            for j in range(switch.n_out):
                if row[j].is_full:
                    out.append((i, j, 1.0))
                    targeted = True
            if self.sustain and not targeted:
                # Keep the input busy: top up its longest VOQ.
                j_best = max(range(switch.n_out), key=lambda j: len(row[j]))
                out.append((i, j_best, 1.0))
        return out


class SingleOutputOverloadAdversary(AdaptiveAdversary):
    """Unit-value adversary reducing the switch to the IQ model: all
    packets target output 0, and bursts of ``b_in`` packets are aimed at
    a *full* online VOQ (rotating among the full ones) — guaranteed
    rejections for a greedy online algorithm, while the optimum, which
    drained that VOQ earlier, accepts them and delivers during the drain
    period.

    The classical multi-queue lower bounds (Section 1.2: >= 2 - 1/m for
    greedy policies) use exactly this end-effect structure over short
    sequences; on N=6, B=3, ~18 slots this adversary pushes GM's
    measured ratio to ~1.6-1.7 (bound: 3).
    """

    name = "single-output-overload"

    def next_arrivals(self, slot: int, switch: CIOQSwitch) -> List[ArrivalSpec]:
        b_in = switch.config.b_in
        out: List[ArrivalSpec] = []
        if slot == 0:
            for i in range(switch.n_in):
                out.extend([(i, 0, 1.0)] * b_in)
            return out
        fulls = [
            i for i in range(switch.n_in) if len(switch.voq[i][0]) >= b_in
        ]
        if fulls:
            i = fulls[slot % len(fulls)]
            out.extend([(i, 0, 1.0)] * b_in)
        else:
            i = max(range(switch.n_in), key=lambda k: len(switch.voq[k][0]))
            out.append((i, 0, 1.0))
        return out


class RotatingBurstAdversary(AdaptiveAdversary):
    """Unit-value adversary sustaining the overload gap over long
    sequences: phase ``p`` attacks output ``p mod N`` with an initial
    over-capacity burst into every VOQ of that output, then refills
    exactly the online algorithm's *full* VOQs each slot.  The optimum
    drains phase-``p`` packets in parallel with later phases (different
    outputs), so the per-phase gap accumulates instead of amortizing;
    measured GM ratios stay ~1.25-1.35 regardless of sequence length.
    """

    name = "rotating-burst"

    def __init__(self, phase_len: Optional[int] = None):
        self.phase_len = phase_len

    def next_arrivals(self, slot: int, switch: CIOQSwitch) -> List[ArrivalSpec]:
        b_in = switch.config.b_in
        length = self.phase_len if self.phase_len is not None else b_in + 1
        j = (slot // length) % switch.n_out
        out: List[ArrivalSpec] = []
        if slot % length == 0:
            for i in range(switch.n_in):
                out.extend([(i, j, 1.0)] * (2 * b_in))
        else:
            for i in range(switch.n_in):
                if len(switch.voq[i][j]) >= b_in:
                    out.append((i, j, 1.0))
        return out


class PreemptionBaitAdversary(AdaptiveAdversary):
    """Weighted adversary that escalates values just above ``beta`` times
    the cheapest packet in the online algorithm's fullest output queue,
    baiting threshold policies into preemption chains (the x(q_m)
    recursion of Lemma 7)."""

    name = "preemption-bait"

    def __init__(self, beta: float, eps: float = 0.05, ceiling: float = 1e9):
        if beta < 1.0:
            raise ValueError(f"beta must be >= 1, got {beta}")
        self.beta = beta
        self.eps = eps
        self.ceiling = ceiling

    def next_arrivals(self, slot: int, switch: CIOQSwitch) -> List[ArrivalSpec]:
        out: List[ArrivalSpec] = []
        if slot == 0:
            for i in range(switch.n_in):
                for j in range(switch.n_out):
                    for _ in range(switch.config.b_in):
                        out.append((i, j, 1.0))
            return out
        src = slot % switch.n_in
        for j in range(switch.n_out):
            # Bait the arrival-phase preemption: if the targeted VOQ is
            # full, arrive just above beta times its cheapest resident
            # (also above the resident itself), forcing the online
            # algorithm to discard buffered value for marginal gain.
            voq = switch.voq[src][j]
            tail = voq.tail()
            if voq.is_full and tail is not None:
                bait = min((self.beta + self.eps) * tail.value, self.ceiling)
                out.append((src, j, bait))
            else:
                out.append((src, j, 1.0))
        return out


def generate_adaptive_trace(
    policy_factory: Callable[[], "object"],
    config: SwitchConfig,
    adversary: AdaptiveAdversary,
    n_slots: int,
) -> Trace:
    """Run ``policy`` on a CIOQ switch while ``adversary`` generates the
    arrivals, and return the recorded trace.

    The returned trace can then be fed to both the same policy (whose
    run is deterministic, hence identical) and the offline optimum for
    ratio measurement.
    """
    # Local import: the engine imports traffic types, avoid a cycle.
    from ..simulation.engine import run_streaming

    arrivals_log: List[List[ArrivalSpec]] = []

    def source(slot: int, switch: CIOQSwitch) -> List[ArrivalSpec]:
        specs = adversary.next_arrivals(slot, switch)
        arrivals_log.append(list(specs))
        return specs

    run_streaming(policy_factory(), config, source, n_slots)

    packets: List[Packet] = []
    pid = 0
    for t, specs in enumerate(arrivals_log):
        for src, dst, value in specs:
            packets.append(Packet(pid, value, t, src, dst))
            pid += 1
    return Trace(
        packets,
        config.n_in,
        config.n_out,
        name=f"adaptive/{adversary.name}",
    )
