"""Global simulation clock.

Every component of the simulated network (routers, links, network
interfaces, statistics collectors) shares a single :class:`Clock`
instance.  The clock only ever moves forward, under the control of the
simulation kernel.
"""

from __future__ import annotations

__all__ = ["Clock"]


class Clock:
    """A monotonically increasing cycle counter.

    The clock starts at cycle 0.  Components read :attr:`now` freely; only
    the simulation kernel should call :meth:`tick`.
    """

    __slots__ = ("_now",)

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start at a negative cycle: {start}")
        self._now = int(start)

    @property
    def now(self) -> int:
        """The current simulation cycle."""
        return self._now

    def tick(self, cycles: int = 1) -> int:
        """Advance the clock by ``cycles`` and return the new time.

        The kernel passes ``cycles > 1`` to fast-forward over spans in
        which every component forecasts no work.

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

    def reset(self) -> None:
        """Reset the clock to cycle 0 (used when re-running a simulation)."""
        self._now = 0

    def __repr__(self) -> str:
        return f"Clock(now={self._now})"
