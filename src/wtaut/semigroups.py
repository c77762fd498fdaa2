"""Numerical semigroups, gap sequences, and Schubert index combinatorics.

A numerical semigroup of genus g is a cofinite additive subsemigroup of
the non-negative integers with exactly g gaps.  Each semigroup has a
strictly decreasing index sequence s_1 > s_2 > ... with virtual
cardinality g - 1 (the gaps shifted down by one, padded with the tail
s_i = g - 1 - i).  Seen as a set of integers (its Maya diagram), a
sequence of virtual cardinality d has the partition mu_i = s_i + i - d,
trailing zeros dropped (partition_from_sequence); that is the one rule
from sequences to partitions.  The semigroups are recorded under two
Grassmannian component conventions:

* partition_from_sequence of the sequence itself, of virtual cardinality
  g - 1;
* hprime_partition, the component of index g, where -1 never occurs:
  partition_from_sequence of the sequence with every negative entry
  raised by one, of virtual cardinality g.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Iterable, Iterator, Optional

from .errors import DataError, ResourceError

__all__ = [
    "Partition",
    "NumericalSemigroup",
    "IndexSequence",
    "enumerate_semigroups",
    "weierstrass_sequence",
    "semigroup_from_sequence",
    "partition_from_sequence",
    "hprime_partition",
    "is_realizable",
    "dual_index_set",
    "partitions_of",
    "partitions_up_to",
    "semigroup_record",
    "DEFAULT_MAX_GENUS",
]

DEFAULT_MAX_GENUS = 12


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


class NumericalSemigroup(namedtuple("NumericalSemigroup", "genus gaps")):
    """Genus plus the strictly increasing gap list."""

    __slots__ = ()

    def __new__(cls, genus: int, gaps: Iterable[int]) -> "NumericalSemigroup":
        gaps = tuple(int(a) for a in gaps)
        if genus != len(gaps):
            raise DataError("genus must equal the number of gaps")
        if any(a < 1 for a in gaps):
            raise DataError("gaps must be positive")
        if any(gaps[i] >= gaps[i + 1] for i in range(len(gaps) - 1)):
            raise DataError("gaps must be strictly increasing")
        witness = _closure_witness(set(gaps))
        if witness is not None:
            x, y = witness
            raise DataError(f"closure violation: {x}+{y}={x + y} is a gap")
        return super().__new__(cls, genus, gaps)

    @classmethod
    def from_gaps(cls, gaps: Iterable[int]) -> "NumericalSemigroup":
        gap_tuple = tuple(sorted(set(int(a) for a in gaps)))
        return cls(len(gap_tuple), gap_tuple)

    def contains(self, n: int) -> bool:
        return n >= 0 and n not in self.gaps

    @property
    def frobenius(self) -> int:
        """Largest gap, -1 for the full semigroup."""
        return self.gaps[-1] if self.gaps else -1

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
    """Pair of non-gaps whose sum is a gap, or None if closed.

    Sums above the largest gap are always non-gaps, so checking
    x + y <= max(gaps) is a complete test.
    """
    if not gaps:
        return None
    top = max(gaps)
    nongaps = [n for n in range(1, top + 1) if n not in gaps]
    for x, y in itertools.combinations_with_replacement(nongaps, 2):
        if x + y <= top and (x + y) in gaps:
            return (x, y)
    return None


class IndexSequence(namedtuple("IndexSequence", "d head")):
    """Strictly decreasing integer sequence with eventual tail s_i = d - i.

    Only the exceptional head is stored; d is the virtual cardinality of
    the realized set.  The head is kept minimal: a trailing entry equal
    to the tail value at its position is absorbed into the tail.
    """

    __slots__ = ()

    def __new__(cls, d: int, head: Iterable[int] = ()) -> "IndexSequence":
        head = tuple(int(s) for s in head)
        # normalize: drop trailing entries that already obey the tail rule
        while head and head[-1] == d - len(head):
            head = head[:-1]
        if any(head[i] <= head[i + 1] for i in range(len(head) - 1)):
            raise DataError("index sequence must be strictly decreasing")
        if head and head[-1] <= d - (len(head) + 1):
            raise DataError("head does not decrease into the tail")
        return super().__new__(cls, d, head)

    @property
    def head_length(self) -> int:
        return len(self.head)

    def s(self, i: int) -> int:
        """1-based entry, tail rule beyond the head."""
        if i < 1:
            raise IndexError("entries are 1-based")
        if i <= len(self.head):
            return self.head[i - 1]
        return self.d - i

    def contains(self, n: int) -> bool:
        return n in self.head or n <= self.d - (len(self.head) + 1)

    def entries(self, count: int) -> tuple[int, ...]:
        return tuple(self.s(i) for i in range(1, count + 1))

    def __repr__(self) -> str:
        return f"IndexSequence(d={self.d}, head={list(self.head)})"


def enumerate_semigroups(genus: int, max_genus: int = DEFAULT_MAX_GENUS) -> list[NumericalSemigroup]:
    """All numerical semigroups of the given genus, ordered by gap list.

    Walks the semigroup tree: children of H are obtained by removing a
    minimal generator larger than the Frobenius number, which reaches
    every semigroup of each genus exactly once.
    """
    if genus < 0:
        raise DataError("genus must be non-negative")
    if genus > max_genus:
        raise ResourceError(
            f"genus {genus} exceeds the configured maximum {max_genus}"
        )
    level = [NumericalSemigroup(0, ())]
    for _ in range(genus):
        level = [
            NumericalSemigroup.from_gaps(h.gaps + (n,))
            for h in level
            for n in h.min_generators()
            if n > h.frobenius
        ]
    return sorted(level, key=lambda h: h.gaps)


def weierstrass_sequence(semigroup: NumericalSemigroup) -> IndexSequence:
    """Index sequence of a semigroup: s_i = a_{g-i+1} - 1, tail g - 1 - i."""
    g = semigroup.genus
    head = tuple(semigroup.gaps[g - i] - 1 for i in range(1, g + 1))
    return IndexSequence(d=g - 1, head=head)


def semigroup_from_sequence(seq: IndexSequence) -> Optional[NumericalSemigroup]:
    """Invert weierstrass_sequence: the set of n with n - 1 not in the sequence.

    Returns None when that set is not a numerical semigroup (not contained
    in the non-negative integers, missing 0, or not additively closed).
    """
    # every integer <= -2 must lie in the sequence, else a negative number
    # would be a member of the candidate set; -1 must not, else 0 is a gap
    low = seq.d - (seq.head_length + 1)
    if seq.contains(-1) or not all(seq.contains(n) for n in range(low, -1)):
        return None
    gaps = [n for n in range(1, max(seq.head, default=0) + 2) if seq.contains(n - 1)]
    try:
        return NumericalSemigroup.from_gaps(gaps)
    except DataError:  # not additively closed
        return None


def partition_from_sequence(seq: IndexSequence) -> Partition:
    """mu_i = s_i + i - d with trailing zeros dropped.

    A strictly decreasing sequence with tail d - i has s_i >= d - i, so
    every mu_i is non-negative, and the mu_i weakly decrease.
    """
    return Partition.of(s + i - seq.d for i, s in enumerate(seq.head, start=1))


def hprime_partition(seq: IndexSequence, genus: int) -> Partition:
    """Partition of a genus-g sequence under the index-g component convention.

    Requires the tail rule s_i = g - 1 - i and -1 not in the sequence.
    Raising every negative entry by one closes the gap at -1 and gives a
    sequence of virtual cardinality g, whose partition_from_sequence this
    is.  The result has length at most g.
    """
    if seq.d != genus - 1:
        raise DataError("sequence is not in the genus-g component")
    if seq.contains(-1):
        raise DataError("sequence not in H'")
    raised = [s + (s < 0) for s in seq.entries(max(seq.head_length, genus))]
    part = partition_from_sequence(IndexSequence(genus, raised))
    if part.length > genus:
        raise DataError("partition length exceeds the genus")
    return part


def is_realizable(seq: IndexSequence, genus: int) -> bool:
    """Whether some semigroup sequence dominates seq entrywise.

    Equivalent bound test: s_i <= 2g - 2i for i <= g and
    s_i <= g - i - 1 beyond.
    """
    horizon = max(seq.head_length, genus)
    for i in range(1, horizon + 1):
        bound = 2 * genus - 2 * i if i <= genus else genus - i - 1
        if seq.s(i) > bound:
            return False
    # beyond the head the tail rule gives s_i = d - i <= g - i - 1
    # exactly when d <= g - 1
    return seq.d <= genus - 1


def dual_index_set(seq: IndexSequence) -> IndexSequence:
    """The index set {m : -1 - m not in seq}, as an IndexSequence.

    For the sequence of a semigroup H this is -H; the operation is an
    involution.
    """
    # m > hi implies -1 - m lies in the tail of seq, so m is excluded;
    # m < lo implies -1 - m exceeds every entry of seq, so m belongs.
    # Reflection m -> -1 - m negates the charge (the virtual cardinality).
    hi = seq.head_length - seq.d
    lo = min(-2 - max(seq.head, default=seq.d - seq.head_length - 1), -1)
    return IndexSequence(-seq.d, [m for m in range(hi, lo - 1, -1) if not seq.contains(-1 - m)])


def semigroup_record(semigroup: NumericalSemigroup) -> dict:
    """JSON-ready record with the sequence head and both partitions."""
    seq = weierstrass_sequence(semigroup)
    return {
        "genus": semigroup.genus,
        "gaps": list(semigroup.gaps),
        "sequence_head": list(seq.head),
        "partition_gr_gm1": list(partition_from_sequence(seq)),
        "partition_hprime": list(hprime_partition(seq, semigroup.genus)),
    }
