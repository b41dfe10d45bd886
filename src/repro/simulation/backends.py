"""Backend registry for the slot-loop engine.

Every engine entry point (:mod:`repro.simulation.engine`) accepts a
``backend`` argument naming one of three execution strategies for the
arrival/schedule/transmit slot loop; the engine's one private body
resolves it once per run:

``reference``
    The pure-Python object-per-packet kernel
    (:mod:`repro.simulation.kernel`).  It has no third-party
    dependencies — importing and running it never requires numpy — and
    it is the semantic ground truth every other backend is pinned to.

``fast``
    The vectorized numpy kernel (:mod:`repro.simulation.fastpath`).
    It batches queue state across ports *and* across whole traces
    (seed ladders), and is required to be **bit-identical** to the
    reference backend on every observable ``SimulationResult`` field.
    Requesting it raises :class:`BackendUnavailable` when numpy is not
    installed and :class:`BackendUnsupported` for features it does not
    implement (streaming sources, event recording, invariant checking,
    matching-stats collection, or policy classes outside its table).

``auto``
    Try ``fast``; on :class:`BackendUnavailable` or
    :class:`BackendUnsupported` fall back to ``reference`` silently.
    This is the right default for sweeps that mix batchable policy
    points with exotic ones.  ``auto`` also applies the
    :data:`AUTO_CROSSOVER` size heuristic: for policy classes whose
    vectorized kernel only wins above a port-count crossover, small
    switches run on the reference kernel directly (``fast`` never
    applies the heuristic — an explicit request is honored as-is).

Because the two backends are interchangeable by contract, backend
choice is deliberately *excluded* from sweep cache keys: a cached
payload is valid regardless of which backend produced it.  The
differential test matrix in ``tests/test_backend_equivalence.py`` is
what makes that contract safe.
"""

from __future__ import annotations

import importlib.util
from typing import Tuple

#: Every recognised backend name, in documentation order.
BACKENDS: Tuple[str, ...] = ("reference", "fast", "auto")

#: The engine-wide default.
DEFAULT_BACKEND = "reference"

#: Port-count crossover per policy class for the ``auto`` backend.
#: Below the crossover (``max(n_in, n_out) < value``) the vectorized
#: kernel's fixed per-slot numpy overhead outweighs its batching win
#: and ``auto`` selects ``reference`` instead: ``BENCH_engine.json``
#: records PG on an 8x8 switch at 0.94x vs reference, while every
#: measured policy wins from 32 ports up.  Entries are keyed by the
#: policy class ``__name__``; absent classes always try ``fast``.
AUTO_CROSSOVER = {"PGPolicy": 16}


def auto_prefers_reference(policy, config) -> bool:
    """True when the ``auto`` backend should skip the fast kernel for
    ``policy`` on a switch of ``config``'s size.

    Purely a scheduling hint — by the bit-identical backend contract it
    never changes a result, only which kernel produces it — so it is
    consulted by the engine dispatchers for ``backend="auto"`` and
    nowhere else.
    """
    crossover = AUTO_CROSSOVER.get(type(policy).__name__)
    if crossover is None:
        return False
    return max(config.n_in, config.n_out) < crossover


class BackendError(RuntimeError):
    """Base class for backend-selection failures."""


class BackendUnavailable(BackendError):
    """The requested backend cannot run in this environment
    (e.g. ``fast`` without numpy installed)."""


class BackendUnsupported(BackendError):
    """The requested backend does not implement the requested feature
    (e.g. ``fast`` with ``record=True`` or an unknown policy class)."""


def validate_backend(name: str) -> str:
    """Return ``name`` if it is a registered backend, else raise
    ``ValueError`` listing the valid choices."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {', '.join(BACKENDS)}"
        )
    return name


def numpy_available() -> bool:
    """True when numpy is importable (probed without importing it).

    Treats a broken or explicitly blocked install (``find_spec``
    raising, e.g. ``sys.modules["numpy"] = None`` in tests) the same as
    an absent one.
    """
    try:
        return importlib.util.find_spec("numpy") is not None
    except (ImportError, ValueError):
        return False


def available_backends() -> Tuple[str, ...]:
    """The subset of :data:`BACKENDS` usable in this environment.

    ``reference`` and ``auto`` are always usable (``auto`` degrades to
    ``reference``); ``fast`` requires numpy.
    """
    if numpy_available():
        return BACKENDS
    return tuple(b for b in BACKENDS if b != "fast")


def load_fastpath():
    """Import and return :mod:`repro.simulation.fastpath`.

    Raises :class:`BackendUnavailable` when numpy is missing, so
    callers can distinguish "environment cannot" from "feature not
    implemented" (:class:`BackendUnsupported`).
    """
    if not numpy_available():
        raise BackendUnavailable(
            "the 'fast' backend requires numpy, which is not installed; "
            "use backend='reference' or backend='auto'"
        )
    from . import fastpath

    return fastpath
