"""Per-request phase clocks: summed wall time and a count per named phase.

The compile daemon answers a warm request in about a millisecond, which
is too fine for the span tracer (a span costs more than some phases) and
too coarse to leave unexplained.  A :class:`PhaseClock` sums, per phase
name, the seconds spent and how often the phase ran.  Like the tracer and
the statistics registry it is ambient (:func:`use_phase_clock`): code
deep in the service marks a phase with :func:`timed_phase`, and the mark
costs one context-variable read when no clock is installed.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional

__all__ = ["PhaseClock", "record_phase", "timed_phase", "use_phase_clock"]


class PhaseClock:
    """Thread-safe ``phase -> (seconds, count)`` accumulator."""

    def __init__(self) -> None:
        self._totals: Dict[str, List[float]] = {}
        self._lock = threading.Lock()

    def add(self, phase: str, seconds: float) -> None:
        with self._lock:
            total = self._totals.setdefault(phase, [0.0, 0])
            total[0] += seconds
            total[1] += 1

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """``{phase: {"seconds": total, "count": n}}``."""
        with self._lock:
            return {
                phase: {"seconds": seconds, "count": count}
                for phase, (seconds, count) in sorted(self._totals.items())
            }


_ACTIVE_CLOCK: ContextVar[Optional[PhaseClock]] = ContextVar(
    "repro_active_phase_clock", default=None
)


@contextmanager
def use_phase_clock(clock: PhaseClock) -> Iterator[PhaseClock]:
    """Install ``clock`` as the ambient phase sink for the block."""
    token = _ACTIVE_CLOCK.set(clock)
    try:
        yield clock
    finally:
        _ACTIVE_CLOCK.reset(token)


def record_phase(phase: str, seconds: float) -> None:
    """Add ``seconds`` to ``phase`` of the ambient clock, if any."""
    clock = _ACTIVE_CLOCK.get()
    if clock is not None:
        clock.add(phase, seconds)


@contextmanager
def timed_phase(phase: str) -> Iterator[None]:
    """Add the block's wall time to ``phase`` of the ambient clock, if any."""
    clock = _ACTIVE_CLOCK.get()
    if clock is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        clock.add(phase, time.perf_counter() - start)
