import json
from fractions import Fraction
from pathlib import Path

import pytest

from wtaut.errors import DataError
from wtaut.exactalg import MultiPoly, PSI, U, kap, lam, xvar
from wtaut.pullback import kstar_power_sum, kstar_schubert, to_lambda_basis
from wtaut.schur import ParamSequence, double_schur
from wtaut.semigroups import (
    IndexSequence,
    NumericalSemigroup,
    Partition,
    enumerate_semigroups,
    hprime_partition,
    partitions_up_to,
    weierstrass_sequence,
)
from wtaut.tautring import ev_homomorphism
from wtaut.wcycles import (
    intersection_nonempty,
    push_to_unpointed,
    pushforward_rule,
    virtual_class,
    weierstrass_class,
)

DATA = Path(__file__).parent / "data"
PSI_P = MultiPoly.variable(PSI)
L = lambda i: MultiPoly.variable(lam(i))  # noqa: E731
K = lambda j: MultiPoly.variable(kap(j))  # noqa: E731


def test_ordinary_semigroup_gives_unit_class():
    for g in (1, 2, 3, 4):
        h = NumericalSemigroup.from_gaps(range(1, g + 1))
        cycle = weierstrass_class(h)
        assert cycle.class_pointed == 1
        assert cycle.partition == Partition(())
        assert not cycle.virtual


def test_genus_one_unique_semigroup_is_trivial():
    cycle = weierstrass_class(NumericalSemigroup.from_gaps([1]))
    assert cycle.class_pointed == 1


def test_hyperelliptic_genus_two_class():
    cycle = weierstrass_class(NumericalSemigroup.from_gaps([1, 3]))
    assert cycle.partition == Partition((1,))
    assert cycle.class_pointed == -L(1) + PSI_P.scale(3)
    assert cycle.class_unpointed == K(0).scale(3)
    assert cycle.normalization == "up-to-constant"


def test_weierstrass_divisor_formula_across_genera():
    # the partition (1) class must match -lambda_1 + g(g+1)/2 psi
    for g in range(2, 6):
        cycle = virtual_class(Partition((1,)), g)
        expected = -L(1) + PSI_P.scale(Fraction(g * (g + 1), 2))
        assert cycle.class_pointed == expected
        assert not cycle.virtual


def test_unshifted_variant_differs():
    """The unshifted class is u * t_(1)(x/u) = e_1(x) - g(g-1)/2 u; with
    u -> -psi and e_1(x) = -lambda_1 that is -lambda_1 + psi at g = 2,
    while the shifted class is -lambda_1 + 3 psi."""
    h = NumericalSemigroup.from_gaps([1, 3])
    cycle = weierstrass_class(h, unshifted=True)
    assert cycle.class_pointed == -L(1) + PSI_P
    assert cycle.class_pointed != weierstrass_class(h).class_pointed


@pytest.mark.parametrize("g", [3, 4, 5])
def test_unshifted_divisor_matches_power_sum(g):
    cycle = virtual_class(Partition((1,)), g, unshifted=True)
    assert cycle.class_pointed == -L(1) + PSI_P.scale(Fraction(g * (g - 1), 2))
    assert cycle.class_pointed == kstar_power_sum(1, g).value_lambda


def test_unshifted_class_is_schubert_pullback():
    for g in range(1, 6):
        for h in enumerate_semigroups(g):
            unshifted = weierstrass_class(h, unshifted=True)
            mu = unshifted.partition
            assert unshifted.class_pointed == kstar_schubert(mu, g).value_lambda, h.gaps
            if mu.weight:
                assert unshifted.class_pointed != weierstrass_class(h).class_pointed, h.gaps


def test_virtual_class_matches_double_schur_oracle():
    # u^|mu| t_mu(x/u - 1) is the double Schur polynomial with
    # a_m = (m - 1) u in the arguments x_i - u
    a = ParamSequence.affine_u(1, -1)
    u = MultiPoly.variable(U)
    for g in (1, 2, 3, 4):
        args = [MultiPoly.variable(xvar(i)) - u for i in range(1, g + 1)]
        for mu in partitions_up_to(6, max_length=g):
            oracle = double_schur(mu, args, a).substitute({U: -PSI_P})
            assert virtual_class(mu, g).class_pointed == to_lambda_basis(oracle, g), (mu.parts, g)


def test_five_by_five_class_matches_reference():
    # gaps {1,3,5,7,9,11} give mu = (5,4,3,2,1) at g = 6: a 5 x 5 determinant
    ref = json.loads((DATA / "class_g6_gaps_1_3_5_7_9_11.json").read_text())
    cycle = weierstrass_class(NumericalSemigroup.from_gaps(ref["gaps"]))
    assert list(cycle.partition.parts) == ref["partition"]
    assert cycle.class_pointed.canonical_str() == ref["class_pointed"]
    assert cycle.class_unpointed.canonical_str() == ref["class_unpointed"]


def test_virtual_class_examples():
    cycle = virtual_class(Partition((1,)), 3)
    assert cycle.class_pointed == -L(1) + PSI_P.scale(6)
    assert virtual_class(Partition(()), 3).class_pointed == 1
    flagged = virtual_class(Partition((3,)), 1)
    assert flagged.virtual


def test_virtual_class_rejects_long_partitions():
    with pytest.raises(DataError):
        virtual_class(Partition((1, 1)), 1)


def test_class_degrees_match_codimension():
    for g in range(1, 5):
        for h in enumerate_semigroups(g):
            cycle = weierstrass_class(h)
            mu = cycle.partition
            if mu.weight == 0:
                assert cycle.class_pointed == 1
                assert cycle.class_unpointed.is_zero()
                continue
            assert cycle.class_pointed.is_homogeneous()
            assert cycle.class_pointed.weighted_degree() == mu.weight
            assert cycle.class_unpointed.weighted_degree() == mu.weight - 1


def test_pushforward_rule_examples():
    assert pushforward_rule(-L(1) + PSI_P.scale(3)) == K(0).scale(3)
    assert pushforward_rule(MultiPoly.one()).is_zero()
    assert pushforward_rule(L(1) * PSI_P**2) == L(1) * K(1)


def test_pushforward_rejects_foreign_variables():
    with pytest.raises(ValueError):
        pushforward_rule(MultiPoly.variable(kap(1)))


def test_push_to_unpointed_weierstrass_point_count():
    cycle = weierstrass_class(NumericalSemigroup.from_gaps([1, 3]))
    assert push_to_unpointed(cycle, substitute_kappa0=True) == 6  # = 2g + 2


def test_push_drops_degree_by_one_everywhere():
    for g in (2, 3, 4):
        for h in enumerate_semigroups(g):
            cycle = weierstrass_class(h)
            if cycle.partition.weight == 0:
                continue
            pushed = cycle.class_unpointed
            if pushed.is_zero():
                continue
            assert pushed.weighted_degree() == cycle.class_pointed.weighted_degree() - 1


def test_intersection_open_cell_criterion():
    for g in range(1, 5):
        for h in enumerate_semigroups(g):
            assert intersection_nonempty(weierstrass_sequence(h), g, closed=False)
    assert not intersection_nonempty(IndexSequence(d=1, head=(3, 0)), 2, closed=False)


def test_intersection_closed_criterion():
    assert not intersection_nonempty(IndexSequence(d=0, head=(1,)), 1, closed=True)
    for g in range(1, 5):
        head = tuple(2 * g - 2 * i for i in range(1, g + 1))
        assert intersection_nonempty(IndexSequence(d=g - 1, head=head), g, closed=True)


def test_open_cell_membership_implies_closure_membership():
    import itertools

    g = 2
    entries = range(-3, 2 * g + 1)
    for length in (1, 2, 3):
        for head in itertools.permutations(entries, length):
            if any(head[i] <= head[i + 1] for i in range(length - 1)):
                continue
            try:
                seq = IndexSequence(d=g - 1, head=head)
            except DataError:
                continue
            if intersection_nonempty(seq, g, closed=False):
                assert intersection_nonempty(seq, g, closed=True)


def _dominates(sa, sb, horizon):
    return all(sa.s(i) >= sb.s(i) for i in range(1, horizon + 1))


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_localization_vanishing_against_domination(g):
    """Fixed-point evaluation of a cycle class vanishes exactly off the
    dominated locus."""
    semis = enumerate_semigroups(g)
    for h_target in semis:
        cycle = weierstrass_class(h_target)
        seq_target = weierstrass_sequence(h_target)
        for h_point in semis:
            seq_point = weierstrass_sequence(h_point)
            value = ev_homomorphism(cycle.class_pointed, h_point)
            if _dominates(seq_point, seq_target, g + 2):
                assert not value.is_zero(), (h_point.gaps, h_target.gaps)
            else:
                assert value.is_zero(), (h_point.gaps, h_target.gaps)


def test_record_round_trips_polynomials():
    cycle = weierstrass_class(NumericalSemigroup.from_gaps([1, 3, 5]))
    rec = cycle.record()
    assert MultiPoly.from_json(rec["class_pointed"]) == cycle.class_pointed
    assert rec["codim"] == cycle.partition.weight
    assert rec["gaps"] == [1, 3, 5]
    assert rec["normalization"] == "up-to-constant"
