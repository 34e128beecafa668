"""Simulation clock.

Each :class:`~repro.engine.kernel.SimulationKernel` owns one
:class:`Clock`; the network cores are handed the cycle explicitly.  The
clock only ever moves forward, under the control of the kernel.
"""

from __future__ import annotations

__all__ = ["Clock"]


class Clock:
    """A monotonically increasing cycle counter.

    The clock starts at cycle 0.  Anyone may read :attr:`now`; only the
    simulation kernel should call :meth:`tick`.
    """

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0

    @property
    def now(self) -> int:
        """The current simulation cycle."""
        return self._now

    def tick(self, cycles: int = 1) -> int:
        """Advance the clock by ``cycles`` and return the new time.

        The kernel passes the whole span its core's ``run`` covered in
        one tick.

        Parameters
        ----------
        cycles:
            Number of cycles to advance.  Must be positive; the clock can
            never move backwards.
        """
        if cycles <= 0:
            raise ValueError(f"clock can only advance forward, got {cycles}")
        self._now += int(cycles)
        return self._now

    def __repr__(self) -> str:
        return f"Clock(now={self._now})"
