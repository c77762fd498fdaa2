import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    ParamSequence,
    coefficient,
    complete_in_x,
    double_schur,
    elementary_in_x,
    falling_factorial,
    generalized_power,
    homogeneous_components,
    hook_product,
    partition_contains,
    ratio_factorial_schur,
    ratio_shifted_schur,
    U,
    shifted_interval_matrix,
    to_lambda_basis,
    xvar,
)
from wtaut import schur
from wtaut.exactalg import MultiPoly, PSI, det, zvar
from wtaut.schur import (
    _matrix_entry,
    _shape,
    _variant,
    elementary_of_values,
    factorial_schur,
    generic_arguments,
    in_roots,
    lambda_ring,
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
    a = ParamSequence(lambda j: u.scale(j))
    assert generalized_power(z, 2, a) == (z - u) * (z - u.scale(2))


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


def test_factorial_schur_at_polynomial_arguments():
    # substitution into t_mu(z_1, z_2) is simultaneous, also when z_1 is sent
    # to a polynomial in z_2 or the arguments are permuted
    z1, z2 = generic_arguments(2)
    x1 = MultiPoly.variable(xvar(1))
    for mu in partitions_up_to(3, max_length=2):
        generic = factorial_schur(mu, [z1, z2])
        assert factorial_schur(mu, [z2, z1]) == generic, mu
        for args in ([z1 + z2, z2], [z2, z1 * z2 - 1], [x1, z1 + 3]):
            expected = generic.substitute({zvar(1): args[0], zvar(2): args[1]})
            assert factorial_schur(mu, args) == expected, (mu, args)


def test_factorial_schur_numeric_repeated_arguments():
    # t_(1)(z1, z2) = z1 + z2 - 1.  For (2, 1) the ratio is
    # [(z1)_3 (z2)_1 - (z2)_3 (z1)_1] / (z1 - z2) with (z)_k the falling
    # factorial, that is z1 z2 [(z1 - 1)(z1 - 2) - (z2 - 1)(z2 - 2)] / (z1 - z2)
    # = z1 z2 (z1 + z2 - 3).  Both are polynomials, defined at equal arguments.
    z1, z2 = generic_arguments(2)
    assert factorial_schur(Partition((2, 1)), [z1, z2]) == z1 * z2 * (z1 + z2 - 3)
    assert factorial_schur(Partition((1,)), [Fraction(1), Fraction(1)]) == 1
    assert factorial_schur(Partition((2, 1)), [Fraction(3), Fraction(3)]) == 27


def test_factorial_schur_matches_ratio_oracle_symbolically():
    for mu in partitions_up_to(5):
        for n in range(max(mu.length, 1), 5):
            args = generic_arguments(n)
            assert factorial_schur(mu, args) == ratio_factorial_schur(mu, args), (mu, n)


def _distinct_rationals(rng, n, stagger):
    while True:
        vals = [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(n)]
        if len({v + (n - i) * stagger for i, v in enumerate(vals, start=1)}) == n:
            return vals


def test_factorial_and_shifted_schur_match_ratio_oracle_numerically():
    rng = random.Random(11)
    shapes = [mu for mu in partitions_up_to(6) if mu.weight]
    for n in range(1, 9):
        for _ in range(3):
            mu = rng.choice([m for m in shapes if m.length <= n])
            vals = _distinct_rationals(rng, n, 0)
            assert factorial_schur(mu, vals) == ratio_factorial_schur(mu, vals), (mu, vals)
            vals = _distinct_rationals(rng, n, 1)
            assert shifted_schur(mu, vals) == ratio_shifted_schur(mu, vals), (mu, vals)


@pytest.mark.parametrize("parts", [(4, 1, 1, 1), (5, 1, 1, 1, 1)])
def test_numeric_rows_with_entries_of_negative_degree(parts):
    mu = Partition(parts)
    rng = random.Random(len(parts))
    for n in (mu.length, mu.length + 1):
        assert _variant(mu, n, numeric=True) == "psi"
        # the last row starts at degree 1 + 1 - l(mu) <= -2, where coeffs[:k + 1] is not empty
        assert min(ks[0] for _, _, ks in _shape(mu, n, "psi")) <= -2
        vals = _distinct_rationals(rng, n, 0)
        assert factorial_schur(mu, vals) == ratio_factorial_schur(mu, vals), (mu, vals)


# -- shifted Schur ----------------------------------------------------------------


def test_shifted_schur_basics():
    assert shifted_schur(EMPTY, generic_arguments(3)) == 1
    z = generic_arguments(1)[0]
    assert shifted_schur(Partition((1,)), [z]) == z
    assert shifted_schur(Partition((1, 1)), generic_arguments(1)) == 0


def test_shifted_schur_matches_ratio_oracle_symbolically():
    for mu in partitions_up_to(5):
        for n in range(1, 5):
            args = generic_arguments(n)
            assert shifted_schur(mu, args) == ratio_shifted_schur(mu, args), (mu, n)


def test_shifted_schur_at_colliding_staggered_arguments():
    # the stagger v_i + n - i makes distinct values collide: (0, 1) -> (1, 1)
    # and (2, 3, 4) -> (4, 4, 4); s*_(1)(z) = z_1 + ... + z_n still applies
    one = Partition((1,))
    assert shifted_schur(one, [Fraction(0), Fraction(1)]) == 1
    assert shifted_schur(one, [Fraction(2), Fraction(3), Fraction(4)]) == 9


def test_schur_at_repeated_values_matches_symbolic_substitution():
    # where the ratio oracle divides by zero, substitute into the symbolic result
    cases = [[0, 1], [1, 1], [2, 3, 4], [5, 5, 5], [-1, 0, 1, 1], [Fraction(1, 2), Fraction(-1, 2), 3, 4]]
    for vals in cases:
        n = len(vals)
        args = [Fraction(v) for v in vals]
        sigma = {zvar(i): v for i, v in enumerate(args, start=1)}
        for mu in partitions_up_to(4, max_length=n):
            for fn in (factorial_schur, shifted_schur):
                expected = fn(mu, generic_arguments(n)).substitute(sigma)
                assert fn(mu, args) == expected, (fn.__name__, mu, vals)


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
            if partition_contains(nu, mu):
                assert value != 0, (mu, nu)
            else:
                assert value == 0, (mu, nu)


def test_shifted_schur_at_its_own_shape_is_the_hook_product():
    # s*_mu(mu) = H(mu), the product of the hook lengths (Okounkov-Olshanski)
    for mu in partitions_up_to(6):
        assert _eval_shifted_at_partition(mu, mu, max(mu.length, 1)) == hook_product(mu), mu


# -- double Schur -----------------------------------------------------------------


def test_double_schur_classical_limit():
    x1, x2 = generic_arguments(2)
    assert double_schur(Partition((1,)), [x1, x2], ParamSequence.zeros()) == x1 + x2
    assert double_schur(EMPTY, [x1], ParamSequence.zeros()) == 1


def test_factorial_schur_numeric_matches_symbolic_on_random_rationals():
    rng = random.Random(5)
    mu = Partition((2, 1))
    symbolic = factorial_schur(mu, generic_arguments(3))
    for _ in range(4):
        vals = []
        while len(set(vals)) < 3:
            vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
        at_vals = symbolic.substitute({zvar(i): v for i, v in enumerate(vals, start=1)})
        assert factorial_schur(mu, vals) == at_vals


def test_double_schur_recovers_equivariant_pullback():
    # parameters a_m = (m - 1) u reproduce the homogenized factorial Schur,
    # which is the Schubert pullback in the x roots once u -> -psi
    from wtaut.pullback import kstar_schubert

    a = ParamSequence.affine_u(1, -1)
    psi = MultiPoly.variable(PSI)
    for g in (1, 2, 3):
        for mu in partitions_up_to(3, max_length=g):
            roots = tuple(xvar(i) for i in range(1, g + 1))
            value = double_schur(mu, [MultiPoly.variable(x) for x in roots], a).substitute({U: -psi})
            assert value == in_roots(kstar_schubert(mu, g), roots)


# -- homogeneous decomposition ------------------------------------------------------


def test_homogeneous_components_example():
    comps = homogeneous_components(Z1 + Z2 - 1)
    assert comps == [MultiPoly.constant(-1), Z1 + Z2]


def test_homogeneous_single_component():
    p = Z1 * Z2
    comps = homogeneous_components(p)
    assert sum(1 for c in comps if c) == 1
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


# -- matrix forms ----------------------------------------------------------------


def test_psi_matrix_single_box_genus_two():
    m = psi_matrix(Partition((1,)), 2)
    x1, x2 = MultiPoly.variable(xvar(1)), MultiPoly.variable(xvar(2))
    assert len(m) == len(m[0]) == 1
    assert m[0][0] == to_lambda_basis(x1 + x2 + MultiPoly.variable(PSI), 2)


def test_psi_matrix_row_two_genus_one():
    m = psi_matrix(Partition((2,)), 1)
    x1 = MultiPoly.variable(xvar(1))
    assert m[0][0] == to_lambda_basis(x1**2 + x1 * MultiPoly.variable(PSI), 1)


def test_psi_matrix_empty_partition():
    assert psi_matrix(EMPTY, 3) == []
    assert det(psi_matrix(EMPTY, 3)) == 1


def test_psi_matrix_sizes(monkeypatch):
    # the variant the rule picks, and the rows of the matrix it builds
    table = [
        ((3, 1), 2, False, "psi", 2),  # mu_1 > g
        ((450,), 2, False, "psi", 1),  # wide: "psi_prime" would be 450 x 450
        ((5, 1), 6, False, "psi", 2),  # mu_1 > 2 l(mu)
        ((4, 2), 6, False, "psi_prime", 4),  # mu_1 = 2 l(mu)
        ((8, 7, 6, 5, 4, 3, 2, 1), 9, False, "psi_prime", 8),
        ((8, 6, 4, 2, 2, 1, 1), 9, False, "psi_prime", 8),  # one row more than "psi"
        ((12,) * 6, 12, True, "psi", 6),  # numeric: the fewer rows
    ]
    sizes = []
    monkeypatch.setattr(schur, "det", lambda m: sizes.append(len(m)) or 1)
    for parts, g, numeric, variant, rows in table:
        mu = Partition(parts)
        assert _variant(mu, g, numeric) == variant, parts
        if numeric:
            factorial_schur(mu, [Fraction(i, i + 1) for i in range(1, g + 1)])
            assert sizes.pop() == rows, parts
            continue
        matrix = psi_matrix(mu, g)
        assert len(matrix) == rows, parts
        assert all(len(row) == rows for row in matrix), parts


def _forced_matrix(mu, g, variant, shift):
    """psi_matrix(mu, g, shift) in the given variant, whichever _variant picks."""
    ring = lambda_ring(g, mu.weight)
    shape = _shape(mu, g + shift, variant)
    return [[_matrix_entry(kind, g, r, k, ring) for k in ks] for kind, r, ks in shape]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.sampled_from(partitions_up_to(10)))
@example(6, Partition((6, 2, 2)))  # mu_1 = g = 2 l(mu): "psi_prime"
@example(6, Partition((4, 2)))  # mu_1 = 2 l(mu): "psi_prime"
@example(6, Partition((5, 2)))  # mu_1 > 2 l(mu): "psi"
@example(6, Partition((3, 2, 2, 1, 1, 1)))
@example(6, Partition((7, 3)))  # mu_1 > g
@example(3, Partition((8, 1, 1)))
@example(3, Partition((1, 1, 1, 1)))  # l(mu) > g
def test_psi_matrix_variants_agree(g, mu):
    from wtaut.pullback import kstar_schubert
    from wtaut.wcycles import virtual_class

    if mu.length > g:  # the class is zero, and no matrix is built
        assert not kstar_schubert(mu, g)
        for shift in (0, 1):
            with pytest.raises(ValueError, match="longer than the genus"):
                psi_matrix(mu, g, shift=shift)
        return
    dets = [det(_forced_matrix(mu, g, "psi", shift)) for shift in (0, 1)]
    for shift, expected in enumerate(dets):
        assert det(_forced_matrix(mu, g, "psi_prime", shift)) == expected, (mu, g, shift)
        assert det(psi_matrix(mu, g, shift=shift)) == expected, (mu, g, shift)
    assert kstar_schubert(mu, g) == dets[0]
    # the unit shift of the interval gives the Weierstrass convention
    assert virtual_class(mu, g).class_pointed == dets[1]


def test_psi_matrix_raises_the_bound_where_the_intervals_were_shifted():
    # {1..r} has the e and h of {0..r}, the interval of bound r + 1
    for g in range(1, 6):
        for mu in partitions_up_to(8, max_length=g):
            for shift in (0, 1):
                for variant in ("psi", "psi_prime"):
                    expected = shifted_interval_matrix(mu, g, variant, shift)
                    assert _forced_matrix(mu, g, variant, shift) == expected, (mu, g, variant, shift)
                expected = shifted_interval_matrix(mu, g, _variant(mu, g, numeric=False), shift)
                assert psi_matrix(mu, g, shift) == expected, (mu, g, shift)


def test_elementary_of_values_are_the_interval_product_coefficients():
    # prod_{m=0}^{r-1} (1 - m u), the Chern polynomial of the interval
    # {0..r-1}, carries e_b(0..r-1) at (-u)^b
    u = MultiPoly.variable(U)
    for r in (1, 2, 3, 4):
        product = MultiPoly.one()
        for m in range(r):
            product = product * (1 - u.scale(m))
        for b in range(0, r + 1):
            coeff = coefficient(product, [(U, b)])
            assert coeff == elementary_of_values(range(r), r)[b] * (-1) ** b


def test_symmetric_tables():
    assert elementary_in_x(3, 1) == sum(
        (MultiPoly.variable(xvar(i)) for i in (1, 2, 3)), MultiPoly.zero()
    )
    assert elementary_in_x(2, 3) == 0
    x1 = MultiPoly.variable(xvar(1))
    assert complete_in_x(1, 4) == x1**4
    # Newton-style check: h_2 = e_1^2 - e_2
    assert complete_in_x(3, 2) == elementary_in_x(3, 1) ** 2 - elementary_in_x(3, 2)
