import copy
import itertools
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    IndexSequence,
    counted_dual_index_set,
    dual_index_set,
    hprime_partition,
    is_realizable,
    listed_closure_witness,
    partition_contains,
    partition_from_sequence,
    piecewise_hprime_partition,
    semigroup_from_sequence,
    sequence_from_hprime_partition,
    weierstrass_sequence,
)
from wtaut import semigroups
from wtaut.errors import DataError
from wtaut.schur import elementary_of_values
from wtaut.semigroups import (
    NumericalSemigroup,
    Partition,
    enumerate_semigroups,
    partitions_up_to,
    semigroup_record,
)
from wtaut.tautring import HilbertReport

GENUS_COUNTS = [1, 1, 2, 4, 7, 12, 23, 39, 67]


def brute_force_semigroups(g):
    """Independent oracle: search gap subsets of {1..2g-1} directly."""
    if g == 0:
        return [()]
    found = []
    for gaps in itertools.combinations(range(1, 2 * g), g):
        gap_set = set(gaps)
        nongaps = [n for n in range(1, 2 * g) if n not in gap_set]
        closed = all(
            (x + y) not in gap_set
            for x, y in itertools.combinations_with_replacement(nongaps, 2)
            if x + y < 2 * g
        )
        if closed:
            found.append(gaps)
    return sorted(found)


# -- partitions ---------------------------------------------------------------


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition.of([3, 1, 0]) == (3, 1)


def test_partition_conjugate_involution():
    for mu in partitions_up_to(6):
        assert mu.conjugate().conjugate() == mu
    assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))


def test_partition_containment():
    assert partition_contains(Partition((3, 2)), Partition((2, 2)))
    assert not partition_contains(Partition((2, 2)), Partition((3,)))


def test_partitions_up_to_lists_each_partition_once():
    parts = partitions_up_to(6)
    # p(0) + ... + p(6): equal partitions must hash equal for the dedupe
    assert len(parts) == len(set(parts)) == 1 + 1 + 2 + 3 + 5 + 7 + 11
    assert hash(Partition.of([2, 1, 0])) == hash(Partition((2, 1)))
    assert parts.count(Partition((2, 1))) == 1


@pytest.mark.parametrize("max_weight, max_length", [(0, None), (7, None), (7, 0), (7, 1), (8, 3), (3, 9)])
def test_partitions_up_to_are_in_canonical_order(max_weight, max_length):
    parts = partitions_up_to(max_weight, max_length)
    # by weight, then lexicographically descending, with no sort in partitions_up_to
    assert parts == sorted(parts, key=lambda p: (p.weight, tuple(-q for q in p)))
    cap = max_weight if max_length is None else max_length
    assert all(p.weight <= max_weight and p.length <= cap for p in parts)


_VALUES = [
    Partition((3, 1, 1)),
    Partition(()),
    NumericalSemigroup((1, 2, 4)),
    NumericalSemigroup(()),
    IndexSequence(d=1, head=(2, 0)),
    IndexSequence(d=-1),
    HilbertReport((1, 2, 3, 3), (1, 2, 4, 5), (0, 0, 1, 2)),
]


@pytest.mark.parametrize("value", _VALUES, ids=repr)
def test_value_types_round_trip_through_pickle_and_copy(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin == value
        assert hash(twin) == hash(value)
        assert type(twin) is type(value)
        assert repr(twin) == repr(value)


@pytest.mark.parametrize(
    "cls, fields, error",
    [
        (Partition, (1, 2), ValueError),
        (Partition, (2, 0), ValueError),
        (NumericalSemigroup, ((3, 2),), DataError),
        (NumericalSemigroup, ((2, 4),), DataError),
        (IndexSequence, (1, (0, 2)), DataError),
    ],
    ids=["partition-rising", "partition-zero", "semigroup-rising", "semigroup-closure", "sequence-rising"],
)
def test_restoring_an_invalid_value_runs_its_checks(cls, fields, error):
    with pytest.raises(error):
        cls(fields) if cls is Partition else cls(*fields)
    unchecked = tuple.__new__(cls, fields)  # skips __new__, which no caller does
    for restore in (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy):
        with pytest.raises(error):
            restore(unchecked)


# -- semigroup type -----------------------------------------------------------


def test_gap_list_closure_witness_message():
    with pytest.raises(DataError, match=r"closure violation: 2\+2=4 is a gap"):
        NumericalSemigroup.from_gaps([1, 4])


@settings(max_examples=500, deadline=None)
@given(st.sets(st.integers(1, 60), max_size=14))
@example(set())
@example({1, 4})
@example({1, 2, 3, 5, 7, 9})  # closed: the semigroup <4, 6, 11, 13>
@example({2, 3, 60})
def test_closure_witness_matches_the_listed_oracle(gaps):
    assert semigroups._closure_witness(gaps) == listed_closure_witness(gaps)


def test_semigroup_helpers():
    h = NumericalSemigroup.from_gaps([1, 2, 4])
    assert h.genus == 3
    assert h.frobenius == 4
    assert h.multiplicity == 3
    assert h.min_generators() == (3, 5, 7)
    assert h.contains(0) and not h.contains(4) and not h.contains(-1)


def test_full_semigroup_is_generated_by_one():
    assert NumericalSemigroup.from_gaps([]).min_generators() == (1,)


def test_min_generators_match_brute_force_up_to_genus_6():
    """Nonzero elements up to 4g + 2 that are no sum of two nonzero elements."""
    for g in range(7):
        for h in enumerate_semigroups(g):
            elements = [n for n in range(1, 4 * g + 3) if n not in h.gaps]
            sums = {a + b for a in elements for b in elements}
            assert h.min_generators() == tuple(n for n in elements if n not in sums), h


# -- enumeration --------------------------------------------------------------


def test_enumeration_counts_match_known_values():
    for g, expected in enumerate(GENUS_COUNTS):
        assert len(enumerate_semigroups(g)) == expected


def test_enumeration_matches_brute_force_up_to_genus_6():
    for g in range(7):
        tree = [h.gaps for h in enumerate_semigroups(g)]
        assert tree == brute_force_semigroups(g)


def test_enumeration_is_sorted_and_duplicate_free():
    for g in (4, 5):
        gaps = [h.gaps for h in enumerate_semigroups(g)]
        assert gaps == sorted(set(gaps))


def test_enumeration_genus_zero_and_errors():
    assert enumerate_semigroups(0) == [NumericalSemigroup(())]
    with pytest.raises(DataError):
        enumerate_semigroups(-1)
    assert len(enumerate_semigroups(9)) == 118
    # past the CLI's default cap: the genus cap is the CLI's alone
    assert len(enumerate_semigroups(13)) == 1001


def test_the_gap_list_is_the_whole_semigroup():
    assert NumericalSemigroup._fields == ("gaps",)
    assert NumericalSemigroup((1, 2, 4)).genus == 3
    assert NumericalSemigroup(()).genus == 0
    assert repr(NumericalSemigroup((1, 2, 4))) == "NumericalSemigroup(genus=3, gaps=[1, 2, 4])"
    assert HilbertReport._fields == ("lower", "upper", "generator_counts")


# -- sequences ----------------------------------------------------------------


def test_weierstrass_sequence_examples():
    seq = weierstrass_sequence(NumericalSemigroup.from_gaps([1, 3]))
    assert seq.d == 1 and seq.head == (2, 0)
    assert seq.entries(5) == (2, 0, -2, -3, -4)

    seq = weierstrass_sequence(NumericalSemigroup.from_gaps([1, 2]))
    assert seq.head == (1, 0)

    seq = weierstrass_sequence(NumericalSemigroup(()))
    assert seq.head == () and seq.d == -1
    assert seq.entries(3) == (-2, -3, -4)


def test_index_sequence_normalization_and_validation():
    # trailing head entries matching the tail rule are absorbed
    assert IndexSequence(d=1, head=(2, 0, -2, -3)).head == (2, 0)
    with pytest.raises(DataError):
        IndexSequence(d=1, head=(0, 2))
    with pytest.raises(DataError):
        IndexSequence(d=5, head=(0,))  # gap between head and tail


def test_sequence_round_trip_all_semigroups():
    for g in range(8):
        for h in enumerate_semigroups(g):
            assert semigroup_from_sequence(weierstrass_sequence(h)) == h


def test_sequence_inversion_checks_closure_once(monkeypatch):
    calls = []
    witness = semigroups._closure_witness
    monkeypatch.setattr(semigroups, "_closure_witness", lambda gaps: calls.append(gaps) or witness(gaps))
    h = NumericalSemigroup.from_gaps([1, 2, 4, 5, 7])
    calls.clear()
    assert semigroup_from_sequence(weierstrass_sequence(h)) == h
    # the gaps {1, 4} are not closed: 2 + 2 = 4
    assert semigroup_from_sequence(IndexSequence(d=1, head=(3, 0))) is None
    assert len(calls) == 2


def test_sequence_rejection():
    assert semigroup_from_sequence(IndexSequence(d=1, head=(3, 0))) is None
    # pure tail with d = -1 is the trivial semigroup
    assert semigroup_from_sequence(IndexSequence(d=-1)) == NumericalSemigroup(())


def test_lemma_bounds_hold_on_all_enumerated_sequences():
    for g in range(8):
        for h in enumerate_semigroups(g):
            seq = weierstrass_sequence(h)
            for i in range(1, g + 1):
                assert seq.s(i) <= 2 * g - 2 * i
            for i in range(g + 1, g + 4):
                assert seq.s(i) == g - 1 - i


# -- partition conversions ------------------------------------------------------


def test_partition_from_sequence_examples():
    seq = weierstrass_sequence(NumericalSemigroup.from_gaps([1, 3]))
    assert partition_from_sequence(seq) == Partition((2, 1))
    assert partition_from_sequence(IndexSequence(d=-1)) == Partition(())
    assert partition_from_sequence(IndexSequence(d=0, head=(1,))) == Partition((2,))


def test_hprime_partition_examples():
    seq = weierstrass_sequence(NumericalSemigroup.from_gaps([1, 3]))
    assert hprime_partition(seq, 2) == Partition((1,))

    for g in (1, 2, 3, 4):
        ordinary = weierstrass_sequence(NumericalSemigroup.from_gaps(range(1, g + 1)))
        assert hprime_partition(ordinary, g) == Partition(())

    seq = weierstrass_sequence(NumericalSemigroup.from_gaps([1, 3, 5]))
    assert seq.head == (4, 2, 0)
    assert hprime_partition(seq, 3) == Partition((2, 1))


def test_hprime_rejects_sequences_containing_minus_one():
    with pytest.raises(DataError, match="not in H'"):
        hprime_partition(IndexSequence(d=1, head=(2, -1)), 2)


def test_hprime_lengths_bounded_by_genus():
    for g in range(1, 7):
        for h in enumerate_semigroups(g):
            seq = weierstrass_sequence(h)
            assert hprime_partition(seq, g).length <= g
            assert partition_from_sequence(seq).length <= g


def test_hprime_weight_matches_codimension_formula():
    # |mu| = sum over the head of (s_i + i - g) plus the piecewise +1 tail
    for g in range(1, 6):
        for h in enumerate_semigroups(g):
            seq = weierstrass_sequence(h)
            i_zero = max(
                (i for i in range(1, g + 2) if seq.s(i) >= 0), default=0
            )
            total = sum(seq.s(i) + i - g for i in range(1, i_zero + 1))
            total += sum(seq.s(i) + i - g + 1 for i in range(i_zero + 1, g + 3))
            assert hprime_partition(seq, g).weight == total


def test_sequence_from_hprime_partition_inverts():
    for g in range(1, 6):
        for h in enumerate_semigroups(g):
            seq = weierstrass_sequence(h)
            mu = hprime_partition(seq, g)
            assert sequence_from_hprime_partition(mu, g) == seq


@st.composite
def index_sequences(draw, d):
    """An IndexSequence of virtual cardinality d whose head has up to 9 entries
    drawn from [d - L, d + 12], L the head's length, so it decreases into the tail."""
    length = draw(st.integers(0, 9))
    entries = draw(st.sets(st.integers(d - length, d + 12), min_size=length, max_size=length))
    return IndexSequence(d, sorted(entries, reverse=True))


@st.composite
def genus_sequences(draw):
    """(seq, g): mostly of virtual cardinality g - 1, sometimes of g - 2 or g."""
    g = draw(st.integers(0, 7))
    d = g - 1 + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    return draw(index_sequences(d)), g


def _outcome(fn, *args):
    """fn(*args), or the message of the DataError it raises."""
    try:
        return fn(*args)
    except DataError as exc:
        return f"DataError: {exc}"


@settings(max_examples=400, deadline=None)
@given(genus_sequences())
@example((IndexSequence(2, (4, 2, 0)), 3))  # a semigroup's sequence: (2, 1)
@example((IndexSequence(1, (5, 3, 0, -3)), 2))  # a head longer than g gives a partition longer than g
@example((IndexSequence(0, (5, 3)), 1))
@example((IndexSequence(1, (2, -1)), 2))  # contains -1: not in H'
@example((IndexSequence(2, (4, 2, 0)), 2))  # virtual cardinality g, not g - 1
@example((IndexSequence(-1, ()), 0))  # genus 0
def test_hprime_partition_matches_the_piecewise_formula(case):
    seq, g = case
    assert _outcome(hprime_partition, seq, g) == _outcome(piecewise_hprime_partition, seq, g)


@settings(max_examples=400, deadline=None)
@given(st.integers(-6, 6).flatmap(index_sequences))
@example(IndexSequence(-1))
@example(IndexSequence(1, (2, 0)))
@example(IndexSequence(-3, (4, 1, -2)))
def test_dual_index_set_matches_the_counted_charge(seq):
    dual = dual_index_set(seq)
    assert dual == counted_dual_index_set(seq)
    assert dual.d == -seq.d
    for n in range(-seq.head_length - abs(seq.d) - 14, seq.head_length + abs(seq.d) + 14):
        assert dual.contains(n) == (not seq.contains(-1 - n))


# -- realizability --------------------------------------------------------------


def test_extremal_sequence_is_realizable():
    for g in range(1, 7):
        head = tuple(2 * g - 2 * i for i in range(1, g + 1))
        assert is_realizable(IndexSequence(d=g - 1, head=head), g)


def test_bound_violation_detected():
    assert not is_realizable(IndexSequence(d=0, head=(1,)), 1)


def test_ordinary_sequence_realizable():
    for g in range(1, 6):
        seq = weierstrass_sequence(NumericalSemigroup.from_gaps(range(1, g + 1)))
        assert is_realizable(seq, g)


def test_every_enumerated_sequence_is_realizable():
    for g in range(7):
        for h in enumerate_semigroups(g):
            assert is_realizable(weierstrass_sequence(h), g)


# -- duality ---------------------------------------------------------------------


def test_dual_of_weierstrass_sequence_is_minus_semigroup():
    h = NumericalSemigroup.from_gaps([1, 3])
    dual = dual_index_set(weierstrass_sequence(h))
    for n in range(-9, 3):
        assert dual.contains(n) == h.contains(-n)


def test_dual_of_pure_tail_is_minus_naturals():
    dual = dual_index_set(IndexSequence(d=-1))
    for n in range(-6, 3):
        assert dual.contains(n) == (n <= 0)


def test_dual_is_involution_on_random_semigroups():
    rng = random.Random(11)
    pool = [(g, h) for g in range(6) for h in enumerate_semigroups(g)]
    for g, h in rng.sample(pool, 10):
        seq = weierstrass_sequence(h)
        assert dual_index_set(dual_index_set(seq)) == seq


# -- records ---------------------------------------------------------------------


def test_gap_list_data_match_the_index_sequence_route():
    """The partition, the record and the fixed-point values, read off the
    gaps, equal the Maya-diagram route through the index sequence, for
    all 1,413 semigroups of genus 0..12."""
    count = 0
    for g in range(13):
        for h in enumerate_semigroups(g):
            seq = weierstrass_sequence(h)
            assert h.partition == hprime_partition(seq, g)
            assert semigroup_record(h) == {
                "genus": g,
                "gaps": list(h.gaps),
                "sequence_head": list(seq.head),
                "partition_gr_gm1": list(partition_from_sequence(seq)),
                "partition_hprime": list(hprime_partition(seq, g)),
            }
            shifted = [seq.s(i) + 1 for i in range(1, g + 1)]
            assert elementary_of_values(h.gaps, g) == elementary_of_values(shifted, g)
            count += 1
    assert count == 1413


def test_semigroup_record_shape():
    rec = semigroup_record(NumericalSemigroup.from_gaps([1, 3]))
    assert rec == {
        "genus": 2,
        "gaps": [1, 3],
        "sequence_head": [2, 0],
        "partition_gr_gm1": [2, 1],
        "partition_hprime": [1],
    }
