import json
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    U,
    IndexSequence,
    ParamSequence,
    double_schur,
    ev_homomorphism,
    fixed_point_value,
    from_json,
    from_pairs,
    hook_product,
    hprime_partition,
    intersection_nonempty,
    is_realizable,
    pairs_pushforward,
    partition_contains,
    sequence_from_hprime_partition,
    terms,
    to_lambda_basis,
    weierstrass_sequence,
    weighted_degrees,
    xvar,
)
from wtaut.cli import json_text, main
from wtaut.errors import DataError
from wtaut.exactalg import MultiPoly, PSI, kap, lam
from wtaut.pullback import kstar_power_sum, kstar_schubert
from wtaut.schur import lambda_ring
from wtaut.semigroups import NumericalSemigroup, Partition, enumerate_semigroups, partitions_up_to
from wtaut.tautring import violating_partitions
from wtaut.wcycles import (
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
    assert cycle.class_pointed == kstar_power_sum(1, g)


def test_unshifted_class_is_schubert_pullback():
    for g in range(1, 6):
        # oracle for the shifted class: the root twist x_i -> x_i + psi, which
        # by lambda_a = (-1)^a e_a(x) is the substitution
        # lambda_a -> sum_{j<=a} C(g-j, a-j) lambda_j (-psi)^(a-j), lambda_0 = 1
        lams = [MultiPoly.one()] + [L(j) for j in range(1, g + 1)]
        twist = {
            lam(a): sum(
                (lams[j] * ((-PSI_P) ** (a - j)).scale(comb(g - j, a - j)) for j in range(a + 1)),
                MultiPoly.zero(),
            )
            for a in range(1, g + 1)
        }
        for h in enumerate_semigroups(g):
            unshifted = weierstrass_class(h, unshifted=True)
            shifted = weierstrass_class(h)
            mu = unshifted.partition
            assert unshifted.class_pointed == kstar_schubert(mu, g), h.gaps
            assert shifted.class_pointed == unshifted.class_pointed.substitute(twist), h.gaps
            if mu.weight:
                assert unshifted.class_pointed != shifted.class_pointed, h.gaps


def test_virtual_class_matches_double_schur_oracle():
    # u^|mu| t_mu(x/u - 1) is the double Schur polynomial with
    # a_m = (m - 1) u in the arguments x_i - u
    a = ParamSequence.affine_u(1, -1)
    u = MultiPoly.variable(U)
    for g in (1, 2, 3, 4):
        args = [MultiPoly.variable(xvar(i)) - u for i in range(1, g + 1)]
        for mu in partitions_up_to(6, max_length=g):
            oracle = double_schur(mu, args, a).substitute({U: -PSI_P})
            assert virtual_class(mu, g).class_pointed == to_lambda_basis(oracle, g), (mu, g)


def _assert_matches_reference(name):
    ref = json.loads((DATA / name).read_text())
    cycle = weierstrass_class(NumericalSemigroup.from_gaps(ref["gaps"]))
    assert list(cycle.partition) == ref["partition"]
    assert cycle.class_pointed.canonical_str() == ref["class_pointed"]
    assert cycle.class_unpointed.canonical_str() == ref["class_unpointed"]


def test_five_by_five_class_matches_reference():
    # gaps {1,3,5,7,9,11} give mu = (5,4,3,2,1) at g = 6: a 5 x 5 determinant
    _assert_matches_reference("class_g6_gaps_1_3_5_7_9_11.json")


def test_hyperelliptic_genus_seven_class_matches_reference():
    # gaps {1,3,...,13} give mu = (6,5,4,3,2,1) at g = 7: a 6 x 6 determinant
    _assert_matches_reference("class_g7_gaps_1_3_5_7_9_11_13.json")


def test_virtual_class_examples():
    cycle = virtual_class(Partition((1,)), 3)
    assert cycle.class_pointed == -L(1) + PSI_P.scale(6)
    assert virtual_class(Partition(()), 3).class_pointed == 1
    flagged = virtual_class(Partition((3,)), 1)
    assert flagged.virtual


def test_virtual_flag_is_the_realizability_of_the_partitions_sequence():
    # The flag is read off mu (the staircase delta_(g-1)); the old route
    # built mu's index sequence and tested its bounds.  The relations of
    # tautring escape delta_g instead, so they are all flagged, but
    # not every flagged partition is a relation.
    for g in range(1, 9):
        flagged = set()
        for mu in partitions_up_to(12, max_length=g):
            virtual = virtual_class(mu, g).virtual
            assert virtual == (not is_realizable(sequence_from_hprime_partition(mu, g), g)), (mu, g)
            if virtual:
                flagged.add(mu)
        assert set(violating_partitions(g, 12)) <= flagged
    assert virtual_class(Partition((2,)), 2).virtual and Partition((2,)) not in violating_partitions(2, 2)


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
                assert not cycle.class_unpointed
                continue
            assert weighted_degrees(cycle.class_pointed) == {mu.weight}
            assert weighted_degrees(cycle.class_unpointed) == {mu.weight - 1}


def test_pushforward_rule_examples():
    assert pushforward_rule(-L(1) + PSI_P.scale(3)) == K(0).scale(3)
    assert not pushforward_rule(MultiPoly.one())
    assert pushforward_rule(L(1) * PSI_P**2) == L(1) * K(1)


# terms in lambda_1..lambda_3 and psi: psi-free ones, psi^1 (to kappa_0) and
# psi powers of 128 and more, whose fields are wider than 8 bits
_POINTED_TERMS = st.lists(
    st.tuples(
        st.lists(st.integers(0, 3), min_size=3, max_size=3),
        st.one_of(st.integers(0, 4), st.integers(128, 300)),
        st.integers(-5, 5).filter(bool),
    ),
    max_size=8,
)


@settings(max_examples=80, deadline=None)
@given(_POINTED_TERMS)
@example([([1, 0, 0], 0, 1), ([0, 0, 0], 1, 2), ([0, 2, 1], 200, -3)])
def test_pushforward_moves_packed_terms_as_the_pairs_route_did(raw):
    pointed = from_pairs(
        ([*((lam(i), e) for i, e in enumerate(exps, start=1) if e), *([(PSI, m)] if m else [])], c)
        for exps, m, c in raw
    )
    # in a layout of just its variables, and in the layout the classes use
    for p in (pointed, pointed.recast(lambda_ring(3, pointed.degree()))):
        pushed, expected = pushforward_rule(p), pairs_pushforward(p)
        assert terms(pushed) == terms(expected)
        assert json_text(pushed) == json_text(expected)
        assert PSI not in pushed.variables()


def test_unpointed_classes_are_the_pairs_pushforward_and_have_no_psi():
    for g in range(1, 5):
        for mu in partitions_up_to(6, max_length=g):
            for unshifted in (False, True):
                cycle = virtual_class(mu, g, unshifted)
                assert cycle.class_unpointed == pairs_pushforward(cycle.class_pointed), (mu, g)
                assert PSI not in cycle.class_unpointed.variables(), (mu, g)


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
            if not pushed:
                continue
            assert max(weighted_degrees(pushed)) == max(weighted_degrees(cycle.class_pointed)) - 1


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
                assert value, (h_point.gaps, h_target.gaps)
            else:
                assert not value, (h_point.gaps, h_target.gaps)


@pytest.mark.parametrize("g", range(1, 8))
def test_weierstrass_class_at_a_fixed_point_is_a_signed_hook_product_on_its_locus(g):
    """The class of H is nonzero at the fixed point of H' exactly when
    mu(H) fits in mu(H'), and at H' = H it is (-1)^|mu| H(mu), the
    product of the hook lengths of mu = mu(H)."""
    semis = enumerate_semigroups(g)
    for h_target in semis:
        mu = h_target.partition
        cycle = weierstrass_class(h_target).class_pointed
        for h_point in semis:
            value = fixed_point_value(cycle, h_point.gaps)
            assert (value != 0) == partition_contains(h_point.partition, mu), (h_point.gaps, mu)
            if h_point == h_target:
                assert value == (-1) ** mu.weight * hook_product(mu), mu


def test_record_round_trips_polynomials(capsys):
    assert main(["class", "--genus", "3", "--gaps", "1,3,5"]) == 0
    [rec] = json.loads(capsys.readouterr().out)["payload"]
    cycle = weierstrass_class(NumericalSemigroup.from_gaps([1, 3, 5]))
    assert from_json(rec["class_pointed"]["terms"]) == cycle.class_pointed
    assert from_json(rec["class_unpointed"]["terms"]) == cycle.class_unpointed
    assert rec["codim"] == cycle.partition.weight
    assert rec["gaps"] == [1, 3, 5]
    assert rec["normalization"] == "up-to-constant"
