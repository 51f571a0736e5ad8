"""Hardware-independent work counters.

The paper's efficiency claims are asymptotic (Table 1): Scan and CFSFDP-A pay
``Theta(n^2)`` distance computations while the proposed algorithms are
sub-quadratic.  Wall-clock seconds in a pure-Python reproduction are dominated
by interpreter constant factors at moderate cardinalities, so every estimator
in this library *also* counts the number of point-to-point distance
evaluations it performs per phase.  Those counts are machine- and
language-independent and reproduce the paper's complexity comparison exactly;
the benchmark harness reports both.

:class:`WorkCounter` is a tiny mutable accumulator shared between an estimator
and its index structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["WorkCounter"]


@dataclass
class WorkCounter:
    """Accumulates named operation counts (distance evaluations, node visits).

    The counter is intentionally permissive: unknown keys start at zero, and
    the object can be merged into another counter with :meth:`merge`.
    """

    counts: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the counter ``key``."""
        self.counts[key] = self.counts.get(key, 0.0) + float(amount)

    def get(self, key: str) -> float:
        """Return the current value of ``key`` (zero when never incremented)."""
        return float(self.counts.get(key, 0.0))

    def merge(self, other: "WorkCounter") -> None:
        """Add every count of ``other`` into this counter."""
        for key, value in other.counts.items():
            self.add(key, value)

    def reset(self) -> None:
        """Clear all counts."""
        self.counts.clear()

    def as_dict(self) -> dict[str, float]:
        """Return a copy of the counts."""
        return dict(self.counts)
