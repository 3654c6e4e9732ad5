"""Integer partitions and signed partitions (class / character labels)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from math import factorial


@total_ordering
@dataclass(frozen=True)
class Partition:
    """A partition of n as a non-increasing tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 1 for p in self.parts):
            raise ValueError(f"parts must be positive: {self.parts}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts must be non-increasing: {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    # Class order used everywhere: ascending as tuples, so [1^n] comes
    # first and [n] last.
    def __lt__(self, other: "Partition") -> bool:
        return self.parts < other.parts

    def multiplicities(self) -> dict[int, int]:
        m: dict[int, int] = {}
        for p in self.parts:
            m[p] = m.get(p, 0) + 1
        return m

    def label(self) -> str:
        """Compact bracket label, e.g. [3,2,1^2]."""
        out = []
        i = 0
        while i < len(self.parts):
            j = i
            while j < len(self.parts) and self.parts[j] == self.parts[i]:
                j += 1
            k = j - i
            out.append(f"{self.parts[i]}^{k}" if k > 1 else f"{self.parts[i]}")
            i = j
        return "[" + ",".join(out) + "]"

    def __str__(self) -> str:
        return self.label()


@dataclass(frozen=True)
class SignedPartition:
    """Index of an irreducible character of S_n x C2: a partition with a sign."""

    base: Partition
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    def label(self) -> str:
        return self.base.label() + ("+" if self.sign == 1 else "-")

    def __str__(self) -> str:
        return self.label()


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, ascending as tuples ([1^n] first, [n] last)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def gen(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    parts = sorted(gen(n, n))
    return [Partition(p) for p in parts]


def class_size(lam: Partition) -> int:
    """Number of permutations of cycle type lam: n! / prod(i^m_i * m_i!)."""
    n = lam.n
    denom = 1
    for part, mult in lam.multiplicities().items():
        denom *= part**mult * factorial(mult)
    return factorial(n) // denom
