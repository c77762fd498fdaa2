"""Numerical semigroups, their gap lists, and partitions.

A numerical semigroup of genus g is a cofinite additive subsemigroup of
the non-negative integers with exactly g gaps a_1 < ... < a_g, and every
datum of it is read off that list.  Its index sequence is
s_i = a_(g+1-i) - 1 for i <= g, with the tail s_i = g - 1 - i beyond.
The semigroups are recorded under two Grassmannian component
conventions, both partitions of length at most g:

* index g - 1: (a_g - g + 1, ..., a_2 - 1, a_1), every part positive;
* index g, where -1 is never in the sequence: (a_g - g, ..., a_1 - 1) with
  zeros dropped, NumericalSemigroup.partition.  The parts weakly
  decrease because a_(j+1) > a_j, and they are non-negative because
  a_j >= j.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Iterator, Optional

from .errors import DataError

__all__ = [
    "Partition",
    "in_staircase",
    "NumericalSemigroup",
    "enumerate_semigroups",
    "partitions_of",
    "partitions_up_to",
    "semigroup_record",
]


class Partition(tuple):
    """Weakly decreasing tuple of positive integers, the tuple of its parts."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        self = super().__new__(cls, parts)
        if any(p < 1 for p in self):
            raise ValueError("partition parts must be positive")
        if any(self[i] < self[i + 1] for i in range(len(self) - 1)):
            raise ValueError("partition parts must be weakly decreasing")
        return self

    @classmethod
    def of(cls, parts: Iterable[int]) -> "Partition":
        return cls(tuple(int(p) for p in parts if int(p) != 0))

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    def part(self, i: int) -> int:
        """1-based part, zero beyond the length."""
        if i < 1:
            raise IndexError("parts are 1-based")
        return self[i - 1] if i <= len(self) else 0

    def conjugate(self) -> "Partition":
        if not self:
            return Partition()
        return Partition(sum(1 for p in self if p > j) for j in range(self[0]))

    def __repr__(self) -> str:
        return f"Partition{tuple(self)}"


def in_staircase(mu: Partition, g: int) -> bool:
    """Whether mu fits in the staircase delta_g = (g, g-1, ..., 1).

    That is mu_i <= g - i + 1 for every i; partitions longer than g
    never fit.
    """
    return all(p <= g - i for i, p in enumerate(mu))


def partitions_of(weight: int, cap: int, length: int) -> Iterator[tuple[int, ...]]:
    """The partitions of weight with parts <= cap and at most length parts,
    as tuples, lexicographically descending.

    The number of parts equal to cap is chosen first, from the largest
    down, then that of cap - 1, and so on, so the recursion is as deep as
    cap, not as the number of parts: the partition of 1,200 into ones is
    one level.
    """
    if not weight:
        yield ()
    elif cap and length:
        for count in range(min(weight // cap, length), -1, -1):
            for rest in partitions_of(weight - count * cap, cap - 1, length - count):
                yield (cap,) * count + rest


def partitions_up_to(max_weight: int, max_length: int | None = None) -> list[Partition]:
    """All partitions of weight <= max_weight (optionally length-capped), in
    canonical order: by weight, then lexicographically descending."""
    length = max_length if max_length is not None else max_weight
    return [Partition(p) for w in range(max_weight + 1) for p in partitions_of(w, w, length)]


class NumericalSemigroup(namedtuple("NumericalSemigroup", "gaps")):
    """The strictly increasing gap list, which fixes the semigroup."""

    __slots__ = ()

    def __new__(cls, gaps: Iterable[int]) -> "NumericalSemigroup":
        gaps = tuple(int(a) for a in gaps)
        if any(a < 1 for a in gaps):
            raise DataError("gaps must be positive")
        if any(gaps[i] >= gaps[i + 1] for i in range(len(gaps) - 1)):
            raise DataError("gaps must be strictly increasing")
        witness = _closure_witness(set(gaps))
        if witness is not None:
            x, y = witness
            raise DataError(f"closure violation: {x}+{y}={x + y} is a gap")
        return super().__new__(cls, gaps)

    @classmethod
    def from_gaps(cls, gaps: Iterable[int]) -> "NumericalSemigroup":
        """The semigroup of the gaps given in any order, repeats allowed."""
        return cls(sorted(set(int(a) for a in gaps)))

    @property
    def genus(self) -> int:
        """The number of gaps."""
        return len(self.gaps)

    def contains(self, n: int) -> bool:
        return n >= 0 and n not in self.gaps

    @property
    def frobenius(self) -> int:
        """Largest gap, -1 for the full semigroup."""
        return self.gaps[-1] if self.gaps else -1

    @property
    def partition(self) -> Partition:
        """(a_g - g, ..., a_1 - 1) with zeros dropped: the partition of
        the cycle of points with this semigroup (index-g convention)."""
        return Partition.of(a - j for j, a in reversed(list(enumerate(self.gaps, 1))))

    @property
    def multiplicity(self) -> int:
        """Smallest nonzero element."""
        m = 1
        while m in self.gaps:
            m += 1
        return m

    def min_generators(self) -> tuple[int, ...]:
        """Elements not expressible as a sum of two nonzero elements.

        They lie in [m, F + m]: above that, n = m + (n - m) with n - m > F.
        The full semigroup (F = -1, m = 1) has the one generator 1.
        """
        bound = max(self.frobenius, 0) + self.multiplicity
        gens = []
        for n in range(1, bound + 1):
            if not self.contains(n):
                continue
            if any(self.contains(x) and self.contains(n - x) for x in range(1, n)):
                continue
            gens.append(n)
        return tuple(gens)

    def __repr__(self) -> str:
        return f"NumericalSemigroup(genus={self.genus}, gaps={list(self.gaps)})"


def _closure_witness(gaps: set[int]) -> Optional[tuple[int, int]]:
    """First pair x <= y of non-gaps, in lexicographic order, whose sum is
    a gap, or None if closed.

    Sums above the largest gap are always non-gaps, so x <= top / 2.  For
    each non-gap x the first y is z - x for the smallest gap z >= 2x with
    z - x a non-gap.  No list up to the largest gap is built, and the
    walk is short: closed gaps have top <= 2g - 1, and otherwise at most
    g values of x are gaps and at most g more have top - x a gap, so a
    witness turns up by x = 2g + 1.
    """
    ordered = sorted(gaps)
    top = ordered[-1] if ordered else 0
    for x in range(1, top // 2 + 1):
        if x in gaps:
            continue
        for z in ordered:
            if z >= 2 * x and z - x not in gaps:
                return (x, z - x)
    return None


def enumerate_semigroups(genus: int) -> list[NumericalSemigroup]:
    """All numerical semigroups of the given genus, ordered by gap list.

    Walks the semigroup tree: children of H are obtained by removing a
    minimal generator n larger than the Frobenius number, which reaches
    every semigroup of each genus exactly once; n tops the gap list, so
    the child's gaps stay increasing.  For g = 0..13 there are 1, 1, 2,
    4, 7, 12, 23, 39, 67, 118, 204, 343, 592 and 1001, a count that grows
    like powers of the golden ratio (Zhai, "Fibonacci-like growth of
    numerical semigroups of a given genus", Semigroup Forum 86, 2013).
    """
    if genus < 0:
        raise DataError("genus must be non-negative")
    level = [NumericalSemigroup(())]
    for _ in range(genus):
        level = [
            NumericalSemigroup(h.gaps + (n,))
            for h in level
            for n in h.min_generators()
            if n > h.frobenius
        ]
    return sorted(level)


def semigroup_record(semigroup: NumericalSemigroup) -> dict:
    """JSON-ready record with the sequence head and both partitions."""
    gaps = semigroup.gaps
    return {
        "genus": semigroup.genus,
        "gaps": list(gaps),
        "sequence_head": [a - 1 for a in reversed(gaps)],
        "partition_gr_gm1": [a - j + 1 for j, a in reversed(list(enumerate(gaps, 1)))],
        "partition_hprime": list(semigroup.partition),
    }
