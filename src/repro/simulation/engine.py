"""Discrete-time simulation engine.

Implements the slot structure of Section 1.3 exactly: each time slot
consists of an **arrival phase** (arbitrarily many packets, processed in
arrival-event order), a **scheduling phase** of ``speedup`` cycles (each
an admissible schedule: a matching for CIOQ, per-port subphase transfers
for the buffered crossbar), and a **transmission phase** (at most one
packet per output port).

After the last arrival slot the engine keeps running ("drain slots", no
arrivals) until the switch is empty or a safety horizon is reached, so
that the benefit counts every packet the policy can eventually deliver —
matching the competitive framework, where sequences are finite and time
continues afterwards.  The safety horizon ``n_slots + total buffer
capacity`` always suffices: every non-empty switch transmits at least
one packet per slot once no arrivals occur (all paper policies and
baselines are work-conserving at output ports, and buffered packets keep
flowing forward because output queues drain).

The engine validates every policy decision against the switch's
feasibility rules, counts all losses, and asserts conservation at the
end of each run.

Every run goes through one private body, :func:`_simulate`, which
derives the switch model from the policy's class, decides once between
the ``fast`` backend (:func:`_run_fast`) and the reference slot loop in
:mod:`repro.simulation.kernel`, and builds the arrival function, horizon
and result.  The public entry points are thin: :func:`run_cioq` and
:func:`run_crossbar` for one trace, :func:`run_cioq_batch` and
:func:`run_crossbar_batch` for seed ladders, and :func:`run_streaming`
for arrivals produced online.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..scheduling.base import CIOQPolicy, CrossbarPolicy
from ..switch.cioq import CIOQSwitch
from ..switch.config import SwitchConfig
from ..switch.crossbar import CrossbarSwitch
from ..switch.packet import Packet
from ..traffic.trace import Trace
from .backends import (
    DEFAULT_BACKEND,
    BackendUnavailable,
    BackendUnsupported,
    auto_prefers_reference,
    load_fastpath,
    validate_backend,
)
from .kernel import run_slot_loop
from .results import SimulationResult

ArrivalSpec = Tuple[int, int, float]

#: Switch model name -> (policy interface, switch class).
_MODELS = {
    "cioq": (CIOQPolicy, CIOQSwitch),
    "crossbar": (CrossbarPolicy, CrossbarSwitch),
}


def drain_bound(config: SwitchConfig) -> int:
    """Slots that always suffice to drain a full switch with no arrivals."""
    total_capacity = (
        config.n_in * config.n_out * (config.b_in + config.b_cross)
        + config.n_out * config.b_out
    )
    return total_capacity + 1


def _model_of(policy, expected: Optional[str] = None) -> str:
    """The switch model ``policy`` decides for; ``TypeError`` when it is
    neither, or not the ``expected`` one."""
    for model, (interface, _) in _MODELS.items():
        if isinstance(policy, interface) and expected in (None, model):
            return model
    raise TypeError(
        f"{type(policy).__name__} is not a "
        f"{expected or 'cioq or crossbar'} policy"
    )


def _check_dims(trace: Trace, config: SwitchConfig) -> None:
    if trace.n_in != config.n_in or trace.n_out != config.n_out:
        raise ValueError(
            f"trace is {trace.n_in}x{trace.n_out} but switch is "
            f"{config.n_in}x{config.n_out}"
        )


def _online_arrivals(source: Callable, switch) -> Callable[[int], List[Packet]]:
    """Wrap an online ``source(slot, switch)`` of ``(src, dst, value)``
    triples as a per-slot arrival function, assigning packet ids in
    arrival-event order as :class:`~repro.traffic.base.TrafficModel`
    does for batch traces."""
    pid = 0

    def arrivals_for(t: int) -> List[Packet]:
        nonlocal pid
        packets: List[Packet] = []
        for src, dst, value in source(t, switch):
            packets.append(Packet(pid, value, t, src, dst))
            pid += 1
        return packets

    return arrivals_for


def _run_fast(model: str, policy, config: SwitchConfig,
              traces: List[Trace], backend: str,
              **options) -> Optional[List[SimulationResult]]:
    """The one fast-path dispatch: the ``fast`` backend's results for
    ``traces``, or ``None`` when the reference kernel should run them."""
    if backend == "reference":
        return None
    if backend == "auto" and auto_prefers_reference(policy, config):
        return None  # below the size crossover the reference kernel wins
    try:
        return load_fastpath().run_batch(model, policy, config, traces,
                                         **options)
    except (BackendUnavailable, BackendUnsupported):
        if backend == "fast":
            raise
        return None


def _simulate(
    policy,
    config: SwitchConfig,
    trace: Optional[Trace],
    *,
    source: Optional[Callable] = None,
    n_slots: int = 0,
    record: bool = False,
    max_extra_slots: Optional[int] = None,
    check_invariants: bool = False,
    trace_occupancy: bool = False,
    backend: str = DEFAULT_BACKEND,
    metrics=None,
    lane: int = 0,
    expected: Optional[str] = None,
) -> SimulationResult:
    """Simulate ``policy`` over ``trace`` or, when ``trace`` is ``None``,
    over the first ``n_slots`` slots of the online ``source``.

    ``lane`` tags metrics samples (a batch's reference fallback passes
    each trace's index); ``expected`` names the model the caller's entry
    point is for.
    """
    model = _model_of(policy, expected)
    validate_backend(backend)
    if trace is None:
        if backend == "fast":
            raise BackendUnsupported(
                "the fast backend does not support streaming arrival sources"
            )
    else:
        _check_dims(trace, config)
        fast = _run_fast(
            model, policy, config, [trace], backend, record=record,
            max_extra_slots=max_extra_slots,
            check_invariants=check_invariants,
            trace_occupancy=trace_occupancy, metrics=metrics,
        )
        if fast is not None:
            return fast[0]
        n_slots = trace.n_slots

    switch = _MODELS[model][1](config)
    policy.reset(switch)
    arrivals_for = (_online_arrivals(source, switch) if trace is None
                    else trace.arrival_slots().__getitem__)
    extra = drain_bound(config) if max_extra_slots is None else max_extra_slots
    horizon = n_slots + extra
    result = SimulationResult(
        policy_name=policy.name,
        config=config,
        n_arrival_slots=n_slots,
        horizon=horizon,
    )
    return run_slot_loop(
        switch,
        policy,
        arrivals_for,
        n_slots,
        horizon,
        result,
        crossbar=model == "crossbar",
        record=record,
        check_invariants=check_invariants,
        trace_occupancy=trace_occupancy,
        metrics=metrics,
        lane=lane,
    )


def _run_batch(
    model: str,
    policy_factory: Callable[[], object],
    config: SwitchConfig,
    traces: Sequence[Trace],
    max_extra_slots: Optional[int],
    trace_occupancy: bool,
    backend: str,
    metrics,
) -> List[SimulationResult]:
    validate_backend(backend)
    proto = policy_factory()
    _model_of(proto, model)
    traces = list(traces)
    if not traces:
        return []
    for trace in traces:
        _check_dims(trace, config)
    fast = _run_fast(
        model, proto, config, traces, backend,
        max_extra_slots=max_extra_slots, trace_occupancy=trace_occupancy,
        metrics=metrics,
    )
    if fast is not None:
        return fast
    # Reference fallback: lane-tag each trace's samples by batch index,
    # matching the fast backend's lane numbering.
    return [
        _simulate(
            policy_factory(), config, trace,
            max_extra_slots=max_extra_slots, trace_occupancy=trace_occupancy,
            metrics=metrics, lane=i,
        )
        for i, trace in enumerate(traces)
    ]


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def run_cioq(
    policy: CIOQPolicy,
    config: SwitchConfig,
    trace: Trace,
    record: bool = False,
    max_extra_slots: Optional[int] = None,
    check_invariants: bool = False,
    trace_occupancy: bool = False,
    backend: str = DEFAULT_BACKEND,
    metrics=None,
) -> SimulationResult:
    """Simulate ``policy`` on a CIOQ switch over ``trace``.

    Parameters
    ----------
    record:
        Keep the full schedule/transmission logs (needed by the
        theory-shadow replay and for delay statistics; off by default
        to save memory).
    max_extra_slots:
        Cap on drain slots after the last arrival (default:
        :func:`drain_bound`).
    check_invariants:
        Assert queue-structure invariants after every phase (slow;
        used by tests).
    trace_occupancy:
        Record end-of-slot buffer occupancy totals into
        ``result.occupancy`` (schema documented on
        :class:`~repro.simulation.results.SimulationResult`).
    backend:
        Slot-loop execution backend (see
        :mod:`repro.simulation.backends`): ``reference`` (default),
        ``fast`` (vectorized numpy, bit-identical by contract), or
        ``auto`` (fast when possible, falling back to reference).
    metrics:
        Optional :class:`repro.obs.MetricsRecorder`; ``None`` (default)
        and disabled recorders are payload- and performance-equivalent
        to a metrics-free build (see :mod:`repro.obs`).

    A policy for the other switch model raises ``TypeError``.
    """
    return _simulate(
        policy, config, trace, record=record,
        max_extra_slots=max_extra_slots, check_invariants=check_invariants,
        trace_occupancy=trace_occupancy, backend=backend, metrics=metrics,
        expected="cioq",
    )


def run_crossbar(
    policy: CrossbarPolicy,
    config: SwitchConfig,
    trace: Trace,
    record: bool = False,
    max_extra_slots: Optional[int] = None,
    check_invariants: bool = False,
    trace_occupancy: bool = False,
    backend: str = DEFAULT_BACKEND,
    metrics=None,
) -> SimulationResult:
    """Simulate ``policy`` on a buffered crossbar switch over ``trace``.

    Each scheduling cycle runs the input subphase (at most one VOQ ->
    crosspoint transfer per input port) then the output subphase (at
    most one crosspoint -> output transfer per output port), per
    Section 1.3 of the paper.  Accepts the same keyword options as
    :func:`run_cioq`.
    """
    return _simulate(
        policy, config, trace, record=record,
        max_extra_slots=max_extra_slots, check_invariants=check_invariants,
        trace_occupancy=trace_occupancy, backend=backend, metrics=metrics,
        expected="crossbar",
    )


def run_streaming(
    policy,
    config: SwitchConfig,
    source: Callable[[int, object], Sequence[ArrivalSpec]],
    n_slots: int,
    *,
    record: bool = False,
    backend: str = DEFAULT_BACKEND,
    metrics=None,
) -> SimulationResult:
    """Like :func:`run_cioq`/:func:`run_crossbar` (the model follows the
    policy's class) but with arrivals produced online by
    ``source(slot, switch)`` as ``(src, dst, value)`` triples.

    ``source`` is consulted for the first ``n_slots`` slots (before the
    arrival phase of each); afterwards the switch drains.  Packet ids
    are assigned in arrival-event order, exactly as
    :class:`~repro.traffic.base.TrafficModel` does for batch traces.
    Adaptive adversaries use this to inspect the online state before
    choosing the next arrivals, and a
    :class:`~repro.traffic.base.TrafficModel`'s ``arrival_source(seed)``
    plugs in here for memory-bounded replay, byte-identical to running
    the materialized ``generate(n_slots, seed)`` trace.

    Streaming sources observe online switch state, so the vectorized
    backend cannot run them: ``backend="fast"`` raises
    :class:`~repro.simulation.backends.BackendUnsupported`, and
    ``backend="auto"`` silently uses the reference kernel.
    """
    return _simulate(
        policy, config, None, source=source, n_slots=n_slots, record=record,
        backend=backend, metrics=metrics,
    )


def run_cioq_batch(
    policy_factory: Callable[[], CIOQPolicy],
    config: SwitchConfig,
    traces: Sequence[Trace],
    *,
    max_extra_slots: Optional[int] = None,
    trace_occupancy: bool = False,
    backend: str = DEFAULT_BACKEND,
    metrics=None,
) -> List[SimulationResult]:
    """Run a fresh policy (one per trace, built by ``policy_factory``)
    over every trace, returning results in trace order.

    With ``backend="fast"`` or ``"auto"`` the whole batch executes in
    lockstep inside the vectorized kernel — this is how replicate seed
    ladders amortize the slot loop.  The reference backend runs the
    traces serially; by the bit-identical backend contract both produce
    exactly the same results.
    """
    return _run_batch(
        "cioq", policy_factory, config, traces,
        max_extra_slots, trace_occupancy, backend, metrics,
    )


def run_crossbar_batch(
    policy_factory: Callable[[], CrossbarPolicy],
    config: SwitchConfig,
    traces: Sequence[Trace],
    *,
    max_extra_slots: Optional[int] = None,
    trace_occupancy: bool = False,
    backend: str = DEFAULT_BACKEND,
    metrics=None,
) -> List[SimulationResult]:
    """Crossbar counterpart of :func:`run_cioq_batch`."""
    return _run_batch(
        "crossbar", policy_factory, config, traces,
        max_extra_slots, trace_occupancy, backend, metrics,
    )
