import math
from fractions import Fraction

import pytest

from wtaut.exactalg import MultiPoly, PSI, U, kap, lam, xvar
from wtaut.pullback import (
    MumfordIdeal,
    bernoulli,
    chern_interval,
    kstar_power_sum,
    kstar_schubert,
    lambda_psi_monomials,
    mumford_reduce,
    smooth_power_sum,
    to_lambda_basis,
)
from wtaut.schur import ParamSequence, complete_in_x, double_schur, elementary_in_x
from wtaut.semigroups import Partition, partitions_up_to

PSI_P = MultiPoly.variable(PSI)
L = lambda i: MultiPoly.variable(lam(i))  # noqa: E731
X = lambda i: MultiPoly.variable(xvar(i))  # noqa: E731


# -- Schubert pullbacks ----------------------------------------------------------


def test_kstar_empty_partition_is_one():
    assert kstar_schubert(Partition(()), 2).value_x == 1


def test_kstar_single_box_genus_two():
    cls = kstar_schubert(Partition((1,)), 2)
    assert cls.value_x == X(1) + X(2) + PSI_P
    assert cls.value_lambda == -L(1) + PSI_P


def test_kstar_row_two_genus_one():
    cls = kstar_schubert(Partition((2,)), 1)
    assert cls.value_x == X(1) ** 2 + X(1) * PSI_P
    assert cls.value_lambda == L(1) ** 2 - L(1) * PSI_P


def test_kstar_zero_when_partition_longer_than_genus():
    for g in (1, 2):
        for mu in partitions_up_to(5):
            if mu.length > g:
                assert kstar_schubert(mu, g).value_x.is_zero()


def test_kstar_homogeneous_of_weight():
    for g in (1, 2, 3):
        for mu in partitions_up_to(4):
            value = kstar_schubert(mu, g).value_x
            if value.is_zero():
                continue
            assert value.is_homogeneous()
            assert value.weighted_degree() == mu.weight


def test_kstar_matches_double_schur_oracle():
    # u^|mu| t_mu(x/u) is the double Schur polynomial with a_m = (m - 1) u;
    # u -> -psi and the x-to-lambda change of basis give the class
    a = ParamSequence.affine_u(1, -1)
    for g in (1, 2, 3, 4):
        xs = [X(i) for i in range(1, g + 1)]
        for mu in partitions_up_to(6):
            value = kstar_schubert(mu, g).value_lambda
            if mu.length > g:
                assert value.is_zero(), (mu.parts, g)
                continue
            oracle = double_schur(mu, xs, a).substitute({U: -PSI_P})
            assert value == to_lambda_basis(oracle, g), (mu.parts, g)


def test_kstar_requires_positive_genus():
    with pytest.raises(ValueError):
        kstar_schubert(Partition((1,)), 0)


# -- power sums -------------------------------------------------------------------


def test_power_sum_examples():
    assert kstar_power_sum(1, 1).value_x == X(1)
    assert kstar_power_sum(1, 1).value_lambda == -L(1)
    cls = kstar_power_sum(1, 2)
    assert cls.value_x == X(1) + X(2) + PSI_P
    assert cls.value_lambda == -L(1) + PSI_P
    assert kstar_power_sum(2, 1).value_x == X(1) ** 2
    assert kstar_power_sum(2, 1).value_lambda == L(1) ** 2


def test_power_sum_matches_single_box_class():
    for g in (1, 2, 3):
        assert kstar_power_sum(1, g).value_x == kstar_schubert(Partition((1,)), g).value_x


def test_power_sum_pinned_terms_cancel():
    # the term for i > g vanishes identically under x_i = (g - i) u
    u = MultiPoly.variable(U)
    for g in (1, 2):
        for s in (1, 2, 3):
            for i in (g + 1, g + 2):
                pinned = (u.scale(g - i)) ** s - (u**s).scale((-1) ** s * (i - g) ** s)
                assert pinned.is_zero()


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
            assert kstar_power_sum(s, g).value_lambda == oracle, (s, g)


def test_power_sum_chern_normalization_flag():
    plain = kstar_power_sum(3, 2).value_x
    normalized = kstar_power_sum(3, 2, chern_normalized=True).value_x
    assert normalized.scale(math.factorial(3)) == plain


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
    ideal = MumfordIdeal.for_genus(2)
    degrees = [d for d, _ in ideal.generators]
    assert degrees == [2, 4]
    gen2 = dict(ideal.generators)[2]
    assert gen2 == L(2).scale(2) - L(1) ** 2


def test_mumford_reduce_kills_degree_two_generator():
    for g in (2, 3, 4):
        assert mumford_reduce(L(1) ** 2 - L(2).scale(2), g).is_zero()


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_mumford_forces_dual_chern_classes(g):
    for a in range(1, g + 1):
        h_image = to_lambda_basis(complete_in_x(g, a), g)
        target = L(a).scale((-1) ** a)
        assert mumford_reduce(h_image - target, g).is_zero()


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
            assert mumford_reduce(to_lambda_basis(total, g), g).is_zero()


def test_mumford_rejects_foreign_variables():
    with pytest.raises(ValueError):
        mumford_reduce(X(1), 2)


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

    for n in range(0, 13):
        assert bernoulli(n) == oracle(n)


# -- smooth power sums ----------------------------------------------------------------


def test_smooth_power_sum_odd_case():
    value = smooth_power_sum(1, 2)
    assert value == MultiPoly.variable(kap(1)).scale(Fraction(1, 12)) + PSI_P


def test_smooth_power_sum_even_cases():
    assert smooth_power_sum(2, 1).is_zero()
    assert smooth_power_sum(2, 3) == -(PSI_P**2).scale(5)
    assert smooth_power_sum(2, 3, paper_sign=True) == (PSI_P**2).scale(5)


def test_smooth_power_sum_kappa_index_is_degree_consistent():
    for r in (1, 2, 3):
        value = smooth_power_sum(2 * r - 1, 3)
        assert value.weighted_degree() == 2 * r - 1


# -- Chern interval -------------------------------------------------------------------


def test_chern_interval_examples():
    u = MultiPoly.variable(U)
    assert chern_interval(0, 0) == 1 - u
    assert chern_interval(0, 1) == (1 - u) * (1 - u.scale(2))
    assert chern_interval(3, 2) == 1


def test_chern_interval_coefficients_shadow_psi_entries():
    # prod_{m=-1}^{r-2} (1 - (m+1) u) carries e_b(0..r-1) at (-u)^b
    from wtaut.schur import elementary_of_values

    for r in (1, 2, 3, 4):
        product = chern_interval(-1, r - 2)
        for b in range(0, r + 1):
            coeff = product.coefficient([(U, b)]) if b else product.constant_term()
            assert coeff == elementary_of_values(range(r), b) * (-1) ** b


# -- degree-slice bases ----------------------------------------------------------------


def test_lambda_psi_monomials_counts():
    # independent count: iterate exponent vectors directly
    import itertools as it

    for g in (1, 2, 3):
        for d in range(7):
            expected = 0
            ranges = [range(d // i + 1) for i in range(1, g + 1)]
            for exps in it.product(*ranges):
                if sum(i * e for i, e in enumerate(exps, start=1)) <= d:
                    expected += 1
            assert len(lambda_psi_monomials(g, d)) == expected


def test_generators_reachable_at_genus_two():
    # lambda_1, lambda_2, psi all lie in the span of pullbacks and psi
    assert kstar_schubert(Partition((1, 1)), 2).value_lambda == L(2)
    assert PSI_P - kstar_schubert(Partition((1,)), 2).value_lambda == L(1)
