from fractions import Fraction
from itertools import permutations
from unittest import mock

import pytest

from oracles import (
    ParamSequence,
    _elementary_product_table,
    coefficient_rows,
    complete_in_x,
    double_schur,
    elementary_in_x,
    fixed_point_value,
    from_pairs,
    full_slice_reduce,
    homogeneous_components,
    integer_rows,
    lambda_psi_monomials,
    mono_sort_key,
    mumford_generators,
    partition_contains,
    pull_orbit_table,
    recurrence_bernoulli,
    recursive_lambda_monomials,
    U,
    terms,
    to_lambda_basis,
    value_x_expansion,
    weighted_degrees,
    xvar,
)
from wtaut.exactalg import Echelon, MultiPoly, PSI, det, kap, lam
from wtaut.pullback import (
    _square_free,
    bernoulli,
    kstar_power_sum,
    kstar_power_sum_roots,
    kstar_schubert,
    lambda_monomials,
    mumford_reduce,
    smooth_power_sum,
)
from wtaut.schur import _orbit_table, in_roots, lambda_ring, psi_matrix, root_orbits
from wtaut.semigroups import Partition, enumerate_semigroups, partitions_up_to

PSI_P = MultiPoly.variable(PSI)
L = lambda i: MultiPoly.variable(lam(i))  # noqa: E731
X = lambda i: MultiPoly.variable(xvar(i))  # noqa: E731


def value_x(value, g):
    """A class in lambda and psi written in the roots x_1..x_g."""
    return in_roots(value, tuple(xvar(i) for i in range(1, g + 1)))


# -- Schubert pullbacks ----------------------------------------------------------


def test_kstar_empty_partition_is_one():
    assert value_x(kstar_schubert(Partition(()), 2), 2) == 1


def test_kstar_single_box_genus_two():
    value = kstar_schubert(Partition((1,)), 2)
    assert value_x(value, 2) == X(1) + X(2) + PSI_P
    assert value == -L(1) + PSI_P


def test_kstar_row_two_genus_one():
    value = kstar_schubert(Partition((2,)), 1)
    assert value_x(value, 1) == X(1) ** 2 + X(1) * PSI_P
    assert value == L(1) ** 2 - L(1) * PSI_P


def test_kstar_zero_when_partition_longer_than_genus():
    for g in (1, 2):
        for mu in partitions_up_to(5):
            if mu.length > g:
                assert not kstar_schubert(mu, g)


def test_kstar_homogeneous_of_weight():
    for g in (1, 2, 3):
        for mu in partitions_up_to(4):
            value = value_x(kstar_schubert(mu, g), g)
            if not value:
                continue
            assert weighted_degrees(value) == {mu.weight}


def test_kstar_matches_double_schur_oracle():
    # u^|mu| t_mu(x/u) is the double Schur polynomial with a_m = (m - 1) u;
    # u -> -psi and the x-to-lambda change of basis give the class
    a = ParamSequence.affine_u(1, -1)
    for g in (1, 2, 3, 4):
        xs = [X(i) for i in range(1, g + 1)]
        for mu in partitions_up_to(6):
            value = kstar_schubert(mu, g)
            if mu.length > g:
                assert not value, (mu, g)
                continue
            oracle = double_schur(mu, xs, a).substitute({U: -PSI_P})
            assert value == to_lambda_basis(oracle, g), (mu, g)


def test_kstar_requires_positive_genus():
    with pytest.raises(ValueError):
        kstar_schubert(Partition((1,)), 0)


# -- x-root view -------------------------------------------------------------------


def _assert_value_x_matches_expansion(mu, g):
    value = kstar_schubert(mu, g)
    oracle = value_x_expansion(value, g)
    assert value_x(value, g) == oracle, (mu, g)
    assert terms(value_x(value, g)) == terms(oracle), (mu, g)


def test_value_x_matches_full_table_expansion():
    for g in range(1, 6):
        for mu in partitions_up_to(8):
            _assert_value_x_matches_expansion(mu, g)


def test_value_x_matches_full_table_expansion_at_genus_six():
    _assert_value_x_matches_expansion(Partition((4, 3, 2)), 6)


def expand_orbits(orbits, g):
    """sum of coeff * rest * m_nu(x_1..x_g) over a root_orbits map, each m_nu
    summed over the distinct permutations of nu padded to g places."""
    pairs = []
    for (rest, nu), coeff in orbits.items():
        for perm in set(permutations(nu + (0,) * (g - len(nu)))):
            pairs.append(([*rest, *((xvar(i), e) for i, e in enumerate(perm, start=1) if e)], coeff))
    return from_pairs(pairs)


def _orbit_cases():
    for g in range(1, 6):
        for mu in partitions_up_to(6):
            yield mu, g
    yield Partition((5, 4, 3, 2)), 6


def test_root_orbits_expand_to_in_roots():
    for mu, g in _orbit_cases():
        value = kstar_schubert(mu, g)
        expanded = expand_orbits(root_orbits(value, g), g)
        assert terms(expanded) == terms(value_x(value, g)), (mu, g)


def test_root_orbits_are_nonzero_partitions_in_descending_order():
    # descending (psi power, nu) is the order of the orbits' leading
    # monomials psi^k x_1^nu_1 ... x_l^nu_l in the expanded view
    for mu, g in _orbit_cases():
        value = kstar_schubert(mu, g)
        orbits = root_orbits(value, g)
        keys = []
        for (rest, nu), coeff in orbits.items():
            assert coeff != 0, (mu, g)
            assert all(var == PSI for var, _ in rest), (mu, g)
            assert len(nu) <= g and all(nu[i] >= nu[i + 1] for i in range(len(nu) - 1)), (mu, g)
            assert all(part > 0 for part in nu), (mu, g)
            keys.append((dict(rest).get(PSI, 0), nu))
        assert keys == sorted(set(keys), reverse=True), (mu, g)
        order = {pairs: i for i, (pairs, _) in enumerate(terms(value_x(value, g)))}
        leads = [order[(*rest, *((xvar(i), e) for i, e in enumerate(nu, start=1)))] for rest, nu in orbits]
        assert leads == sorted(leads), (mu, g)


def test_root_orbits_refuse_a_lambda_past_the_genus():
    with pytest.raises(ValueError, match="lambda_3 in the roots of genus 2"):
        root_orbits(L(3) * L(1), 2)


def test_orbit_table_is_the_dominant_part_of_the_full_table():
    # d_a is the multiplicity of the part a, so sum_a a * d_a = |mu| <= 10
    for g in range(1, 6):
        for mu in partitions_up_to(10):
            if mu.part(1) > g:
                continue
            diffs = tuple(mu.count(a) for a in range(1, g + 1))
            full = _elementary_product_table(g, diffs)
            dominant = {
                vec: c for vec, c in full if all(vec[i] >= vec[i + 1] for i in range(g - 1))
            }
            assert _orbit_table(diffs, {}) == dominant, (g, diffs)


def test_root_orbits_push_and_pull_rules_agree():
    # keys, their order and the coefficients, for the classes of both conventions
    for g in range(1, 7):
        for mu in partitions_up_to(8, max_length=g):
            for shift in (0, 1):
                value = det(psi_matrix(mu, g, shift))
                pushed = root_orbits(value, g)
                with mock.patch("wtaut.schur._orbit_table", pull_orbit_table):
                    pulled = root_orbits(value, g)
                assert list(pushed.items()) == list(pulled.items()), (mu, g, shift)


# -- power sums -------------------------------------------------------------------


def test_power_sum_examples():
    assert value_x(kstar_power_sum(1, 1), 1) == X(1)
    assert kstar_power_sum(1, 1) == -L(1)
    value = kstar_power_sum(1, 2)
    assert value_x(value, 2) == X(1) + X(2) + PSI_P
    assert value == -L(1) + PSI_P
    assert value_x(kstar_power_sum(2, 1), 1) == X(1) ** 2
    assert kstar_power_sum(2, 1) == L(1) ** 2


def test_power_sum_matches_single_box_class():
    for g in (1, 2, 3):
        assert kstar_power_sum(1, g) == kstar_schubert(Partition((1,)), g)


def test_power_sum_pinned_terms_cancel():
    # the term for i > g vanishes identically under x_i = (g - i) u
    u = MultiPoly.variable(U)
    for g in (1, 2):
        for s in (1, 2, 3):
            for i in (g + 1, g + 2):
                pinned = (u.scale(g - i)) ** s - (u**s).scale((-1) ** s * (i - g) ** s)
                assert not pinned


def test_power_sum_newton_identities():
    # p_s = e_1 p_(s-1) - e_2 p_(s-2) + ... restricted to the x part
    g = 3
    e = [elementary_in_x(g, a) for a in range(g + 1)]

    def x_part(s):
        total = MultiPoly.zero()
        for i in range(1, g + 1):
            total = total + X(i) ** s
        return total

    for s in (2, 3, 4, 5):
        acc = MultiPoly.zero()
        for a in range(1, min(s, g) + 1):
            term = e[a] * (x_part(s - a) if s - a > 0 else MultiPoly.constant(s))
            acc = acc + (term if a % 2 else -term)
        # the a = s term contributes (-1)^(s-1) s e_s
        assert x_part(s) == acc


def test_power_sum_matches_x_root_oracle():
    for g in range(1, 6):
        for s in range(1, 9):
            x_part = sum((X(i) ** s for i in range(1, g + 1)), MultiPoly.zero())
            tail = sum((i - g) ** s for i in range(1, g + 1))
            oracle = to_lambda_basis(x_part - (PSI_P**s).scale(tail), g)
            assert kstar_power_sum(s, g) == oracle, (s, g)


def test_power_sum_roots_are_root_orbits_of_the_lambda_class():
    # m_(s) - c psi^s m_() from the formula, the orbits of the lambda class
    for g in range(1, 7):
        for s in range(1, 12):
            expected = root_orbits(kstar_power_sum(s, g), g)
            got = kstar_power_sum_roots(s, g)
            assert list(got.items()) == list(expected.items()), (s, g)


# -- lambda basis -----------------------------------------------------------------


def test_to_lambda_basis_examples():
    g = 3
    assert to_lambda_basis(elementary_in_x(g, 1), g) == -L(1)
    assert to_lambda_basis(complete_in_x(g, 2), g) == L(1) ** 2 - L(2)
    assert to_lambda_basis(MultiPoly.constant(7), g) == 7


def test_to_lambda_basis_is_homomorphic_on_symmetric_inputs():
    g = 2
    p = elementary_in_x(g, 1) * complete_in_x(g, 2) + elementary_in_x(g, 2).scale(3)
    image = to_lambda_basis(elementary_in_x(g, 1), g) * to_lambda_basis(
        complete_in_x(g, 2), g
    ) + to_lambda_basis(elementary_in_x(g, 2), g).scale(3)
    assert to_lambda_basis(p, g) == image


def test_to_lambda_basis_rejects_asymmetric_input():
    with pytest.raises(ValueError, match="not symmetric"):
        to_lambda_basis(X(1), 2)
    with pytest.raises(ValueError, match="exceeds the genus"):
        to_lambda_basis(X(3), 2)


def test_to_lambda_basis_passes_psi_through():
    g = 2
    p = elementary_in_x(g, 1) * PSI_P + PSI_P**2
    assert to_lambda_basis(p, g) == -L(1) * PSI_P + PSI_P**2


# -- Mumford relations --------------------------------------------------------------


def test_mumford_generators():
    generators = mumford_generators(2)
    degrees = [d for d, _ in generators]
    assert degrees == [2, 4]
    gen2 = dict(generators)[2]
    assert gen2 == L(2).scale(2) - L(1) ** 2


@pytest.mark.parametrize("g", range(1, 7))
def test_mumford_generators_are_the_even_parts_of_the_chern_product(g):
    total = MultiPoly.one() + sum((L(a) for a in range(1, g + 1)), MultiPoly.zero())
    dual = MultiPoly.one() + sum((L(a).scale((-1) ** a) for a in range(1, g + 1)), MultiPoly.zero())
    comps = homogeneous_components(total * dual - 1)
    assert not any(comps[1::2])
    assert mumford_generators(g) == tuple(
        (d, comps[d]) for d in range(2, 2 * g + 1, 2)
    )


def _lambda_only_monomials(g, w):
    return [m for m in lambda_psi_monomials(g, w) if PSI not in m.variables()]


def _mumford_rows(g, w):
    """The products m * gen_k of weight w, m a lambda-monomial, from the
    relations as polynomials."""
    return [
        m * gen
        for gen_degree, gen in mumford_generators(g)
        if gen_degree <= w
        for m in _lambda_only_monomials(g, w - gen_degree)
    ]


@pytest.mark.parametrize("g", range(6))
def test_lambda_quotient_has_the_lagrangian_grassmannian_hilbert_series(g):
    """dim (Q[lambda]/J)_w is the coefficient of t^w in prod_{i<=g} (1 + t^i),
    from an echelon of the rows m * gen_k, which mumford_reduce never builds."""
    series = [1]
    for i in range(1, g + 1):
        series = [a + (series[w - i] if w >= i else 0) for w, a in enumerate(series + [0] * i)]
    top = g * (g + 1) // 2
    dims = []
    for w in range(top + 3):
        basis = _lambda_only_monomials(g, w)
        echelon = Echelon(integer_rows(coefficient_rows(_mumford_rows(g, w), basis)))
        dims.append(len(basis) - len(echelon))
    assert dims == series + [0, 0]
    assert sum(dims) == 2**g


@pytest.mark.parametrize("g", range(1, 8))
def test_square_free_rewrite_sends_every_mumford_row_to_zero(g):
    """Each row m * gen_k, written on the square-free basis by _square_free,
    is zero: the rewrite rule is the relations solved for lambda_k^2."""
    top = min(g * (g + 1) // 2, 2 * g + 4) + 1
    ring = lambda_ring(g, top)
    image = _square_free(g, ring)
    for w in range(top + 1):
        for row in _mumford_rows(g, w):
            total = {}
            for mono, c in row.recast(ring).items():
                for s, d in image(mono).items():
                    total[s] = total.get(s, 0) + c * d
            assert not any(total.values()), (g, w, row)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6, 7])
def test_mumford_reduce_matches_full_slice_elimination(g):
    top = {5: 10, 6: 10, 7: 12}.get(g, 8)
    for mu in partitions_up_to(top, max_length=g):
        value = kstar_schubert(mu, g)
        assert mumford_reduce(value, g) == full_slice_reduce(value, g), mu


def test_mumford_reduce_edge_cases():
    """The zero class, a pure-psi class, and lambda_1^2 at g = 1, where the
    sum of the rewrite rule is empty, so lambda_1^2 is zero."""
    for g in (1, 2, 5):
        assert mumford_reduce(MultiPoly.zero(), g) == 0
        pure_psi = PSI_P**4 - PSI_P.scale(Fraction(3, 2)) + 7
        assert mumford_reduce(pure_psi, g) == pure_psi == full_slice_reduce(pure_psi, g)
    assert not mumford_reduce(L(1) ** 2, 1)
    assert mumford_reduce(L(1) ** 2 * PSI_P + L(1) - PSI_P, 1) == L(1) - PSI_P
    assert mumford_reduce(L(1) ** 2, 2) == L(2).scale(2) == full_slice_reduce(L(1) ** 2, 2)


def test_mumford_reduce_kills_degree_two_generator():
    for g in (2, 3, 4):
        assert not mumford_reduce(L(1) ** 2 - L(2).scale(2), g)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_mumford_forces_dual_chern_classes(g):
    for a in range(1, g + 1):
        h_image = to_lambda_basis(complete_in_x(g, a), g)
        target = L(a).scale((-1) ** a)
        assert not mumford_reduce(h_image - target, g)


def test_mumford_reduce_is_idempotent_and_psi_transparent():
    g = 2
    p = L(1) ** 2 * PSI_P + L(2) * PSI_P - PSI_P**3
    once = mumford_reduce(p, g)
    assert mumford_reduce(once, g) == once
    assert mumford_reduce(PSI_P**3, g) == PSI_P**3


def test_mumford_even_power_sums_vanish():
    for g in (1, 2, 3, 4):
        for r in (1, 2):
            total = MultiPoly.zero()
            for i in range(1, g + 1):
                total = total + X(i) ** (2 * r)
            assert not mumford_reduce(to_lambda_basis(total, g), g)


def test_mumford_rejects_foreign_variables():
    with pytest.raises(ValueError):
        mumford_reduce(X(1), 2)
    with pytest.raises(ValueError):  # lambda_3 does not exist at genus 2
        mumford_reduce(L(3), 2)


def _random_slice_element(rng, g, degree):
    terms = lambda_psi_monomials(g, degree)
    coeffs = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in terms]
    return sum((m.scale(c) for m, c in zip(terms, coeffs)), MultiPoly.zero())


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_mumford_normal_form_is_unique(g):
    """Adding an ideal element sum c * m * gen leaves the normal form unchanged."""
    import random

    rng = random.Random(g)
    generators = mumford_generators(g)
    for degree in range(2 * g + 3):
        p = _random_slice_element(rng, g, degree)
        q = sum(
            (
                _random_slice_element(rng, g, degree - gen_degree) * gen
                for gen_degree, gen in generators
                if gen_degree <= degree
            ),
            MultiPoly.zero(),
        )
        assert not mumford_reduce(q, g)
        assert mumford_reduce(p + q, g) == mumford_reduce(p, g)


# -- Bernoulli numbers ---------------------------------------------------------------


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_odd_vanish():
    for n in range(3, 16, 2):
        assert bernoulli(n) == 0


def test_bernoulli_against_akiyama_tanigawa():
    # independent oracle for B_n (B_1 = -1/2 convention)
    def oracle(n):
        a = [Fraction(0)] * (n + 1)
        for m in range(n + 1):
            a[m] = Fraction(1, m + 1)
            for j in range(m, 0, -1):
                a[j - 1] = j * (a[j - 1] - a[j])
        return a[0] if n != 1 else -a[0]

    for n in range(0, 61):
        assert bernoulli(n) == oracle(n)


def test_bernoulli_matches_the_recurrence_oracle():
    # tangent numbers against the binomial recurrence in Fractions
    assert [bernoulli(n) for n in range(301)] == recurrence_bernoulli(300)


# -- smooth power sums ----------------------------------------------------------------


def test_smooth_power_sum_odd_case():
    value = smooth_power_sum(1, 2)
    assert value == MultiPoly.variable(kap(1)).scale(Fraction(1, 12)) + PSI_P


def test_smooth_power_sum_even_cases():
    assert not smooth_power_sum(2, 1)
    assert smooth_power_sum(2, 3) == -(PSI_P**2).scale(5)
    assert smooth_power_sum(2, 3, paper_sign=True) == (PSI_P**2).scale(5)


def test_smooth_power_sum_kappa_index_is_degree_consistent():
    for r in (1, 2, 3):
        value = smooth_power_sum(2 * r - 1, 3)
        assert weighted_degrees(value) == {2 * r - 1}


# -- degree-slice bases ----------------------------------------------------------------


def test_lambda_monomials_counts():
    # independent count: iterate exponent vectors directly
    import itertools as it

    for g in (1, 2, 3):
        for w in range(7):
            expected = 0
            ranges = [range(w // i + 1) for i in range(1, g + 1)]
            for exps in it.product(*ranges):
                if sum(i * e for i, e in enumerate(exps, start=1)) == w:
                    expected += 1
            monos = lambda_monomials(g, w, lambda_ring(g, w))
            assert len(set(monos)) == len(monos) == expected
            assert monos == sorted(monos, reverse=True)
            pairs = [tuple(lambda_ring(g, w).unpack(m)) for m in monos]
            assert pairs == sorted(pairs, key=mono_sort_key)


def test_lambda_monomials_match_the_exponent_recursion():
    # g = 1 at weight 1,200 is one partition of 1,200 parts
    for g, w in [*((g, w) for g in range(1, 13) for w in range(25)), (1, 1200)]:
        ring = lambda_ring(g, w)
        assert lambda_monomials(g, w, ring) == recursive_lambda_monomials(g, w, ring), (g, w)


def test_generators_reachable_at_genus_two():
    # lambda_1, lambda_2, psi all lie in the span of pullbacks and psi
    assert kstar_schubert(Partition((1, 1)), 2) == L(2)
    assert PSI_P - kstar_schubert(Partition((1,)), 2) == L(1)


@pytest.mark.parametrize("g", range(1, 6))
def test_schubert_pullback_vanishes_at_fixed_points_outside_its_shape(g):
    """k*(sigma_mu) is zero at the fixed point of H unless mu fits in
    mu(H) + (1^g), for every mu of length <= g and weight <= g(g-1)/2 + 2."""
    semis = enumerate_semigroups(g)
    for mu in partitions_up_to(g * (g - 1) // 2 + 2, max_length=g):
        value = kstar_schubert(mu, g)
        for h in semis:
            shape = Partition(h.partition.part(i) + 1 for i in range(1, g + 1))
            if not partition_contains(shape, mu):
                assert fixed_point_value(value, h.gaps) == 0, (mu, h.gaps)
