"""Degree windows and trust bookkeeping.

A :class:`GradedWindow` is the finite cohomological-degree range on which
a presentation stores data.  A :class:`Trust` records on which degrees
the stored data provably agrees with the unbounded mathematical object;
``None`` endpoints mean unbounded (the object is fully known on that
side).  Every operation derives its output's trust from its inputs'.
"""

from __future__ import annotations

from dataclasses import dataclass

# Hard bound on degrees any presentation may reach; suspensions and
# duals outside it raise WindowError rather than silently wrapping.
GLOBAL_DEGREE_BOUND = 512


class WindowError(ValueError):
    """A requested window falls outside the configured global bounds."""


@dataclass(frozen=True)
class GradedWindow:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise WindowError(f"window {self.lo}..{self.hi} has lo > hi")
        if abs(self.lo) > GLOBAL_DEGREE_BOUND or abs(self.hi) > GLOBAL_DEGREE_BOUND:
            raise WindowError(f"window {self.lo}..{self.hi} exceeds global degree bound")

    def contains(self, d: int) -> bool:
        return self.lo <= d <= self.hi

    def shift(self, n: int) -> "GradedWindow":
        return GradedWindow(self.lo - n, self.hi - n)

    def flip(self) -> "GradedWindow":
        return GradedWindow(-self.hi, -self.lo)

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def __str__(self):
        return f"{self.lo}..{self.hi}"


@dataclass(frozen=True)
class Trust:
    """Closed degree interval of trustworthy data; None = unbounded."""

    lo: int | None = None
    hi: int | None = None

    @classmethod
    def everywhere(cls) -> "Trust":
        return cls(None, None)

    def contains(self, d: int) -> bool:
        if self.lo is not None and d < self.lo:
            return False
        if self.hi is not None and d > self.hi:
            return False
        return True

    def shift(self, n: int) -> "Trust":
        """Trust of degrees j after reindexing j -> j with data from j+n."""
        lo = None if self.lo is None else self.lo - n
        hi = None if self.hi is None else self.hi - n
        return Trust(lo, hi)

    def flip(self) -> "Trust":
        lo = None if self.hi is None else -self.hi
        hi = None if self.lo is None else -self.lo
        return Trust(lo, hi)

    def meet(self, other: "Trust") -> "Trust":
        lo = self.lo if other.lo is None else (other.lo if self.lo is None else max(self.lo, other.lo))
        hi = self.hi if other.hi is None else (other.hi if self.hi is None else min(self.hi, other.hi))
        return Trust(lo, hi)

    def raise_lo(self, lo: int) -> "Trust":
        new_lo = lo if self.lo is None else max(self.lo, lo)
        return Trust(new_lo, self.hi)

    def cap_hi(self, hi: int) -> "Trust":
        new_hi = hi if self.hi is None else min(self.hi, hi)
        return Trust(self.lo, new_hi)

    @property
    def is_everywhere(self) -> bool:
        return self.lo is None and self.hi is None

    def __str__(self):
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"

    def to_json(self):
        return {"lo": self.lo, "hi": self.hi}
