import itertools
import random
from fractions import Fraction

import pytest

from wtaut.exactalg import MultiPoly, PSI, U, xvar, zvar
from wtaut.pullback import to_lambda_basis
from wtaut.schur import (
    ParamSequence,
    complete_in_x,
    double_schur,
    elementary_in_x,
    factorial_schur,
    falling_factorial,
    generalized_power,
    generic_arguments,
    homogeneous_components,
    psi_matrix,
    shifted_schur,
)
from wtaut.semigroups import Partition, partitions_up_to

Z1, Z2 = generic_arguments(2)
EMPTY = Partition(())


# -- building blocks -----------------------------------------------------------


def test_falling_factorial_basics():
    z = MultiPoly.variable(zvar(1))
    assert falling_factorial(z, 0) == 1
    assert falling_factorial(z, 2) == z**2 - z
    assert falling_factorial(Fraction(5), 3) == 60


def test_generalized_power():
    z = MultiPoly.variable(zvar(1))
    assert generalized_power(z, 0, ParamSequence.zeros()) == 1
    assert generalized_power(z, 2, ParamSequence.factorial()) == z * (z - 1)
    u = MultiPoly.variable(U)
    a = ParamSequence(lambda j: u.scale(j), label="ju")
    assert generalized_power(z, 2, a) == (z - u) * (z - u.scale(2))


def test_param_sequence_explicit_bounds():
    a = ParamSequence.explicit([1, 2])
    assert a(2) == 2
    with pytest.raises(IndexError):
        a(3)
    with pytest.raises(IndexError):
        a(0)


# -- factorial Schur -------------------------------------------------------------


def test_factorial_schur_empty_partition():
    assert factorial_schur(EMPTY, generic_arguments(2)) == 1


def test_factorial_schur_single_box_two_variables():
    assert factorial_schur(Partition((1,)), generic_arguments(2)) == Z1 + Z2 - 1


def test_factorial_schur_row_two_one_variable():
    z = generic_arguments(1)[0]
    assert factorial_schur(Partition((2,)), [z]) == z * (z - 1)


def test_factorial_schur_insufficient_variables():
    with pytest.raises(ValueError, match="insufficient variables"):
        factorial_schur(Partition((1, 1)), generic_arguments(1))


def test_factorial_schur_symmetric_in_arguments():
    rng = random.Random(3)
    for _ in range(5):
        vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
        while len(set(vals)) < 3:
            vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
        mu = Partition((2, 1))
        base = factorial_schur(mu, vals)
        for perm in itertools.permutations(vals):
            assert factorial_schur(mu, list(perm)) == base


def test_factorial_schur_numeric_repeated_arguments_rejected():
    with pytest.raises(ValueError, match="repeated"):
        factorial_schur(Partition((1,)), [Fraction(1), Fraction(1)])


# -- shifted Schur ----------------------------------------------------------------


def test_shifted_schur_basics():
    assert shifted_schur(EMPTY, generic_arguments(3)) == 1
    z = generic_arguments(1)[0]
    assert shifted_schur(Partition((1,)), [z]) == z
    assert shifted_schur(Partition((1, 1)), generic_arguments(1)) == 0


def test_shifted_schur_stability_identity():
    for mu in partitions_up_to(5):
        for n in range(1, 5):
            extended = generic_arguments(n) + [MultiPoly.zero()]
            assert shifted_schur(mu, generic_arguments(n)) == shifted_schur(mu, extended)


def _eval_shifted_at_partition(mu, nu, n):
    args = [Fraction(nu.part(i)) for i in range(1, n + 1)]
    return shifted_schur(mu, args)


def test_shifted_schur_vanishing_characterization():
    parts = partitions_up_to(5)
    for mu in parts:
        for nu in parts:
            n = max(mu.length, nu.length, 1)
            value = _eval_shifted_at_partition(mu, nu, n)
            if nu.contains(mu):
                assert value != 0, (mu.parts, nu.parts)
            else:
                assert value == 0, (mu.parts, nu.parts)


def test_shifted_schur_two_one_example():
    # direct check of s*_(2) at its own shape versus the hook formula
    # s*_mu(mu) = prod over cells of (mu_i - j + nu'_j - i + 1) style oracle
    # kept simple: nonvanishing plus an explicit small value
    assert _eval_shifted_at_partition(Partition((2,)), Partition((2,)), 1) == 2


# -- double Schur -----------------------------------------------------------------


def test_double_schur_classical_limit():
    x1, x2 = generic_arguments(2)
    assert double_schur(Partition((1,)), [x1, x2], ParamSequence.zeros()) == x1 + x2
    assert double_schur(EMPTY, [x1], ParamSequence.zeros()) == 1


def test_double_schur_factorial_agreement_on_random_rationals():
    rng = random.Random(5)
    mu = Partition((2, 1))
    for _ in range(4):
        vals = []
        while len(set(vals)) < 3:
            vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
        assert double_schur(mu, vals, ParamSequence.factorial()) == factorial_schur(mu, vals)


def test_double_schur_recovers_equivariant_pullback():
    # parameters a_m = (m - 1) u reproduce the homogenized factorial Schur,
    # which is the Schubert pullback in the x roots once u -> -psi
    from wtaut.pullback import kstar_schubert

    a = ParamSequence.affine_u(1, -1)
    psi = MultiPoly.variable(PSI)
    for g in (1, 2, 3):
        for mu in partitions_up_to(3, max_length=g):
            xs = [MultiPoly.variable(xvar(i)) for i in range(1, g + 1)]
            value = double_schur(mu, xs, a).substitute({U: -psi})
            assert value == kstar_schubert(mu, g).value_x


# -- homogeneous decomposition ------------------------------------------------------


def test_homogeneous_components_example():
    comps = homogeneous_components(Z1 + Z2 - 1)
    assert comps == [MultiPoly.constant(-1), Z1 + Z2]


def test_homogeneous_single_component():
    p = Z1 * Z2
    comps = homogeneous_components(p)
    assert sum(1 for c in comps if not c.is_zero()) == 1
    assert comps[2] == p


def test_homogeneous_components_resum():
    rng = random.Random(9)
    for _ in range(5):
        p = MultiPoly.zero()
        for _ in range(rng.randint(0, 5)):
            mono = MultiPoly.constant(rng.randint(-4, 4))
            for v in (zvar(1), zvar(2), PSI):
                mono = mono * MultiPoly.variable(v) ** rng.randint(0, 2)
            p = p + mono
        total = MultiPoly.zero()
        for comp in homogeneous_components(p):
            total = total + comp
        assert total == p


def test_homogeneous_components_custom_weight():
    p = Z1**2 + Z2
    comps = homogeneous_components(p, weight=lambda v: 2 if v == zvar(1) else 1)
    assert comps[4] == Z1**2 and comps[1] == Z2


# -- matrix forms ----------------------------------------------------------------


def test_psi_matrix_single_box_genus_two():
    m = psi_matrix(Partition((1,)), 2, "psi")
    x1, x2 = MultiPoly.variable(xvar(1)), MultiPoly.variable(xvar(2))
    assert m.rows == m.cols == 1
    assert m[0, 0] == to_lambda_basis(x1 + x2 + MultiPoly.variable(PSI), 2)


def test_psi_matrix_row_two_genus_one():
    m = psi_matrix(Partition((2,)), 1, "psi")
    x1 = MultiPoly.variable(xvar(1))
    assert m[0, 0] == to_lambda_basis(x1**2 + x1 * MultiPoly.variable(PSI), 1)


def test_psi_matrix_empty_partition():
    assert psi_matrix(EMPTY, 3, "psi").det() == 1
    assert psi_matrix(EMPTY, 3, "psi_prime").det() == 1


def test_psi_matrix_bad_variant():
    with pytest.raises(ValueError):
        psi_matrix(EMPTY, 1, "other")


def test_psi_matrix_sizes():
    mu = Partition((3, 1))
    assert psi_matrix(mu, 2, "psi").rows == 2
    assert psi_matrix(mu, 2, "psi_prime").rows == 3


def test_psi_matrix_determinants_agree_small():
    from wtaut.pullback import kstar_schubert

    for g in (1, 2, 3):
        for mu in partitions_up_to(4):
            expected = to_lambda_basis(kstar_schubert(mu, g).value_x, g)
            assert psi_matrix(mu, g, "psi").det() == expected
            assert psi_matrix(mu, g, "psi_prime").det() == expected


def test_symmetric_tables():
    assert elementary_in_x(3, 1) == sum(
        (MultiPoly.variable(xvar(i)) for i in (1, 2, 3)), MultiPoly.zero()
    )
    assert elementary_in_x(2, 3) == 0
    x1 = MultiPoly.variable(xvar(1))
    assert complete_in_x(1, 4) == x1**4
    # Newton-style check: h_2 = e_1^2 - e_2
    assert complete_in_x(3, 2) == elementary_in_x(3, 1) ** 2 - elementary_in_x(3, 2)
