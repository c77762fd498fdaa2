import copy
import itertools
import json
import math
import pickle
from fractions import Fraction

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    U,
    coefficient,
    evaluate,
    exact_div,
    from_json,
    integer_rows,
    from_pairs,
    mono_sort_key,
    monomial,
    pair_terms,
    pairs_mul,
    pairs_weight,
    parse_variable,
    terms,
    to_json,
    xvar,
)
from wtaut.cli import json_text
from wtaut.exactalg import (
    Layout,
    MultiPoly,
    PSI,
    Echelon,
    Variable,
    det,
    kap,
    lam,
    zvar,
)

X1, X2 = MultiPoly.variable(xvar(1)), MultiPoly.variable(xvar(2))
PSI_P = MultiPoly.variable(PSI)
U_P = MultiPoly.variable(U)
L1 = MultiPoly.variable(lam(1))


# -- variables ---------------------------------------------------------------


def test_variable_weights():
    assert lam(3).weight == 3
    assert kap(2).weight == 2
    assert kap(0).weight == 0
    assert PSI.weight == U.weight == xvar(5).weight == 1


def test_variable_validation():
    with pytest.raises(ValueError):
        Variable("psi", 1)
    with pytest.raises(ValueError):
        Variable("x", 0)
    with pytest.raises(ValueError):
        Variable("kappa", -1)
    with pytest.raises(ValueError):
        Variable("w", 1)


def test_variable_parse_round_trip():
    for v in (lam(12), kap(0), xvar(3), PSI, U, zvar(7)):
        assert parse_variable(v.name) == v
    with pytest.raises(ValueError):
        parse_variable("psi2")
    with pytest.raises(ValueError):
        parse_variable("x")


def test_variable_round_trips_through_pickle_and_copy():
    for v in (lam(12), kap(0), xvar(3), PSI, U, zvar(7)):
        for twin in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
            assert twin == v
            assert type(twin) is Variable
            assert (twin.family, twin.index, twin.weight, twin.name) == (v.family, v.index, v.weight, v.name)


def test_equal_variables_hash_equal_and_order_canonically():
    assert Variable("lambda", 3) is not lam(3)
    assert Variable("lambda", 3) == lam(3)
    assert hash(Variable("lambda", 3)) == hash(lam(3))
    assert {lam(3): 1}[Variable("lambda", 3)] == 1
    assert lam(3) != kap(3) and lam(1) != xvar(1)
    # family precedence lambda < psi < kappa < x < u < z, then index
    order = [lam(1), lam(2), lam(10), PSI, kap(0), kap(3), xvar(1), xvar(11), U, zvar(2)]
    assert sorted(reversed(order)) == order


# -- ring operations ---------------------------------------------------------


def test_additive_inverse():
    assert (X1 + PSI_P) + (-PSI_P) == X1


def test_difference_of_squares():
    assert (X1 - U_P) * (X1 + U_P) == X1**2 - U_P**2


def test_cube_coefficient_matches_repeated_multiplication():
    p = L1 + PSI_P
    cubed = p**3
    assert cubed == p * p * p
    assert coefficient(cubed, [(lam(1), 1), (PSI, 2)]) == 3


def test_negative_power_rejected():
    with pytest.raises(ValueError, match="non-polynomial operation"):
        X1 ** (-1)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        MultiPoly.constant(0.5)
    with pytest.raises(TypeError):
        X1 * 0.5


def test_scalar_coercion():
    assert X1 * 2 - X1 - X1 == 0
    assert (X1 + Fraction(1, 2)) - X1 == Fraction(1, 2)


def test_int_and_integral_fraction_coefficients_are_interchangeable():
    mono = ((lam(2), 1), (PSI, 3))
    for value in (3, -1, 1, 10**40):
        as_int, as_fraction = monomial(mono, value), monomial(mono, Fraction(value))
        assert as_int == as_fraction
        assert as_int.canonical_str() == as_fraction.canonical_str()
        assert as_int.latex() == as_fraction.latex()
        assert json_text(as_int) == json_text(as_fraction)
    assert MultiPoly.constant(3) == 3 == MultiPoly.constant(Fraction(3))


def test_coefficients_stay_int_until_a_division():
    p = (L1 + PSI_P.scale(2)) ** 3 - X1 * 4
    assert all(type(c) is int for _, c in p.items())
    halved = p / 2
    assert any(type(c) is Fraction for _, c in halved.items())
    assert halved * 2 == p


def test_sum_accumulates_like_repeated_addition():
    values = [X1, 2, PSI_P.scale(Fraction(1, 3)), -X1, L1 * X2, Fraction(-1, 2)]
    folded = MultiPoly.zero()
    for v in values:
        folded = folded + v
    assert MultiPoly.sum(values) == folded == PSI_P.scale(Fraction(1, 3)) + L1 * X2 + Fraction(3, 2)
    assert MultiPoly.sum([]) == 0
    assert not MultiPoly.sum([X1, -X1])


# -- substitution ------------------------------------------------------------


def test_substitute_theorem_pinning_example():
    g = 3
    p = MultiPoly.variable(xvar(1))
    assert p.substitute({xvar(1): U_P.scale(g - 1)}) == U_P.scale(2)


def test_substitute_even_power_sign():
    assert (U_P**2).substitute({U: -PSI_P}) == PSI_P**2


def test_substitute_annihilating_factor():
    p = X1 * X2
    assert p.substitute({xvar(1): -L1, xvar(2): MultiPoly.zero()}) == 0


def test_substitute_identity_default():
    p = X1 * PSI_P + L1
    assert p.substitute({}) == p


_ZS = [zvar(1), zvar(2), zvar(3)]
Z1, Z2, Z3 = (MultiPoly.variable(v) for v in _ZS)
_Z_COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def _z_polys(draw, max_terms=4):
    """Polynomials in z_1..z_3 with exponents up to 3."""
    out = MultiPoly.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        exps = draw(st.lists(st.integers(0, 3), min_size=3, max_size=3))
        out += monomial(zip(_ZS, exps), draw(_Z_COEFFS))
    return out


_NAMING_EACH_OTHER = st.sampled_from([
    {zvar(1): Z2, zvar(2): Z1},  # the swap
    {zvar(1): Z2, zvar(2): Z3, zvar(3): Z1},  # a 3-cycle
    {zvar(1): Z2 + Z3, zvar(3): Z1 * Z2 - 1},
]) | st.dictionaries(st.sampled_from(_ZS), _z_polys(max_terms=3), max_size=3)


@given(_z_polys(), _NAMING_EACH_OTHER, st.lists(_Z_COEFFS, min_size=3, max_size=3))
@example(Z1**2 * Z2, {zvar(1): Z2, zvar(2): Z1}, [2, 3, 5])
@example(Z1 * Z2**2 * Z3**3, {zvar(1): Z2, zvar(2): Z3, zvar(3): Z1}, [2, 3, 5])
@settings(max_examples=80, deadline=None)
def test_substitute_is_simultaneous(p, sigma, values):
    """p(sigma)(v) = p(w) with w_i the image of z_i at v, for images that name each other."""
    point = dict(zip(_ZS, values))
    images = {z: evaluate(sigma[z], point) if z in sigma else point[z] for z in _ZS}
    assert evaluate(p.substitute(sigma), point) == evaluate(p, images)


# -- determinants ------------------------------------------------------------


def test_det_identity():
    assert det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


def test_det_triangular():
    assert det([[X1, MultiPoly.one()], [MultiPoly.zero(), PSI_P]]) == X1 * PSI_P
    assert det([[X1, 1], [0, PSI_P]]) == X1 * PSI_P


def test_det_numeric_vandermonde_product_oracle():
    pts = (0, 1, 3)
    m = [[Fraction(p) ** j for j in range(3)] for p in pts]
    expected = Fraction(1)
    for i, j in itertools.combinations(range(3), 2):
        expected *= pts[j] - pts[i]
    assert det(m) == expected == 6


def test_det_of_numbers_is_a_constant_polynomial():
    for rows, value in (([[2, 1], [1, 1]], 1), ([[0, 5], [3, 7]], -15), ([[1, 2], [2, 4]], 0), ([], 1)):
        result = det(rows)
        assert type(result) is MultiPoly
        assert result == value
        assert result.variables() == set()
    assert det([[Fraction(1, 2), 1], [0, 4]]) == 2


def test_det_non_square_rejected():
    with pytest.raises(ValueError):
        det([[X1, X2]])
    with pytest.raises(ValueError):
        det([[1, 0], [0]])
    with pytest.raises(ValueError):
        det([[]])


def test_det_empty_matrix_is_one():
    assert det([]) == 1


def test_integer_det_swaps_rows_at_a_zero_pivot():
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det([[0, 2, 1], [0, 3, 4], [5, 6, 7]]) == 25
    assert det([[1, 2, 3], [2, 4, 7], [1, 1, 1]]) == 1  # the second pivot is zero
    assert det([[0, 1], [0, 5]]) == 0  # no pivot in the first column
    assert det([[1, 2], [2, 4]]) == 0


@st.composite
def _int_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):  # singular: a row repeated or a combination of two others
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[i] = [a * v + b * w for v, w in zip(rows[i - 1], rows[j])]
    return rows


@given(_int_matrices())
@settings(max_examples=200, deadline=None)
def test_integer_det_matches_the_laplace_expansion(rows):
    # Fraction entries take the Laplace expansion, int entries the elimination
    laplace = det([[Fraction(v) for v in row] for row in rows])
    result = det(rows)
    assert type(result) is MultiPoly and not result.variables()
    assert result == laplace


# -- rank --------------------------------------------------------------------


def test_rank_zero_matrix():
    assert len(Echelon([[0] * 5 for _ in range(3)])) == 0


def test_rank_identity():
    assert len(Echelon([[1 if i == j else 0 for j in range(4)] for i in range(4)])) == 4


def test_rank_proportional_rows():
    assert len(Echelon([[1, 2], [2, 4], [3, 6]])) == 1
    assert len(Echelon(integer_rows([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]))) == 1


def _minor_rank(matrix):
    """Largest k with a nonzero k x k minor, by direct enumeration."""
    rows, cols = len(matrix), len(matrix[0])
    best = 0
    for k in range(1, min(rows, cols) + 1):
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                sub = [[Fraction(matrix[i][j]) for j in ci] for i in ri]
                if det(sub) != 0:
                    best = k
                    break
            else:
                continue
            break
    return best


@pytest.mark.parametrize("seed", range(10))
def test_rank_matches_minor_enumeration(seed):
    import random

    rng = random.Random(seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 6)
    matrix = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
    if seed >= 6:  # rational entries, scaled row by row to integers
        matrix = [[Fraction(e, rng.choice((2, 3, 6))) for e in row] for row in matrix]
    if seed % 2:  # force rank deficiency
        matrix.append([e * Fraction(3, 2) for e in matrix[0]] if seed >= 6 else list(matrix[0]))
    assert len(Echelon(integer_rows(matrix))) == _minor_rank(matrix)


def test_rank_rejects_floats():
    with pytest.raises(TypeError):
        Echelon([[1, 0.5], [0, 1]])
    with pytest.raises(TypeError):
        Echelon([[Fraction(1, 2), 1]])


def test_echelon_rows_are_primitive_with_positive_leads():
    echelon = Echelon(integer_rows([[0, Fraction(-2, 3), Fraction(4, 3)], [0, 1, 0], [0, 0, 0], [1, 1, 1]]))
    assert sorted(echelon.rows) == [0, 1, 2]
    for col, row in echelon.rows.items():
        assert all(v == 0 for v in row[:col])
        assert row[col] > 0
        assert math.gcd(*row) == 1


@pytest.mark.parametrize("seed", range(6))
def test_echelon_reduce_is_idempotent_and_kills_the_span(seed):
    import random

    rng = random.Random(seed)
    cols = rng.randint(1, 7)
    added = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rng.randint(1, 5))]
    echelon = Echelon(added)
    for row in added:
        assert echelon.reduce(row) == [0] * cols
    vec = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)]
    once = echelon.reduce(vec)
    assert echelon.reduce(once) == once
    assert all(once[col] == 0 for col in echelon.rows)
    combo = [v + 2 * a - b for v, a, b in zip(vec, added[0], added[-1])]
    assert echelon.reduce(combo) == once


# -- division ----------------------------------------------------------------


def test_exact_div_round_trip():
    p = (X1 + PSI_P) * (X2 - U_P.scale(3))
    assert exact_div(p, X1 + PSI_P) == X2 - U_P.scale(3)


def test_exact_div_rejects_non_divisor():
    with pytest.raises(ValueError, match="not divisible"):
        exact_div(X1 * X2 + 1, X1 + 1)


# -- serialization -----------------------------------------------------------


def test_canonical_str_examples():
    assert (L1**2 - L1 * PSI_P).canonical_str() == "lambda1^2 - lambda1*psi"
    assert MultiPoly.zero().canonical_str() == "0"
    assert (PSI_P.scale(Fraction(-1, 2))).canonical_str() == "-1/2*psi"


def test_json_round_trip():
    p = L1**2 * PSI_P.scale(Fraction(3, 7)) - X1 * U_P + MultiPoly.constant(Fraction(-1, 2))
    assert from_json(json.loads(json_text(p))["terms"]) == p


def test_canonical_str_is_deterministic():
    p = X1 * X2 + PSI_P**2 - L1.scale(5)
    assert p.canonical_str() == from_json(to_json(p)).canonical_str()


def test_terms_returns_a_fresh_list_each_call():
    p = X1 * X2 + PSI_P**2 - L1.scale(5)
    text = p.canonical_str()
    first = terms(p)
    expected = list(first)
    first.reverse()
    first.pop()
    assert terms(p) == expected
    assert p.canonical_str() == text


def test_latex_tokens():
    assert (PSI_P.scale(3) - L1).latex() == "-\\lambda_{1} + 3\\psi"


# Names out of field order (lambda10 before lambda2, kappa10 before kappa2,
# x11 before x2), u and z among them; exponents up to 300 need fields wider
# than 8 bits.
_LATEX_VARIABLES = [lam(1), lam(2), lam(10), PSI, kap(0), kap(2), kap(10), xvar(2), xvar(11), U,
                    zvar(1), zvar(3)]
_LATEX_COEFFS = st.sampled_from([1, -1]) | st.fractions(max_denominator=30) | st.integers(-(10**6), 10**6)


@st.composite
def _latex_polys(draw):
    """Up to 8 terms, with a constant term sometimes; the zero polynomial when empty."""
    out = MultiPoly.zero()
    exponents = st.dictionaries(st.sampled_from(_LATEX_VARIABLES), st.integers(0, 300), max_size=5)
    for pairs in draw(st.lists(exponents, max_size=8)):
        out += monomial(pairs.items(), draw(_LATEX_COEFFS))
    if draw(st.booleans()):
        out += draw(_LATEX_COEFFS)
    return out


@settings(max_examples=200, deadline=None)
@given(_latex_polys())
@example(MultiPoly.zero())
@example(monomial([(kap(10), 200), (kap(2), 1), (U, 1)], Fraction(-1, 7)) - 1)
def test_latex_matches_the_unpack_oracle(poly):
    expected = oracles.latex(poly)
    refuse = AssertionError("latex decoded a term through Layout.unpack")
    with mock.patch.object(Layout, "unpack", side_effect=refuse):
        assert poly.latex() == expected


# -- property tests ----------------------------------------------------------

_vars = st.sampled_from([lam(1), lam(2), PSI, U, xvar(1), xvar(2), kap(1)])
_coeffs = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=5
).filter(lambda f: f != 0)


@st.composite
def polys(draw, max_terms=4, max_exp=3):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    p = MultiPoly.zero()
    for _ in range(n):
        c = draw(_coeffs)
        nvars = draw(st.integers(min_value=0, max_value=2))
        mono = MultiPoly.constant(c)
        for _ in range(nvars):
            v = draw(_vars)
            e = draw(st.integers(min_value=1, max_value=max_exp))
            mono = mono * MultiPoly.variable(v) ** e
        p = p + mono
    return p


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p
    assert p * q == q * p


@given(polys(), polys(), polys())
@settings(max_examples=40, deadline=None)
def test_substitution_is_homomorphic(p, q, r):
    sigma = {xvar(1): L1 + PSI_P, U: -PSI_P}
    lhs = (p * q + r).substitute(sigma)
    rhs = p.substitute(sigma) * q.substitute(sigma) + r.substitute(sigma)
    assert lhs == rhs


@given(st.lists(polys(max_terms=2, max_exp=2), min_size=9, max_size=9))
@settings(max_examples=25, deadline=None)
def test_det_row_swap_negates(entries):
    m = [entries[0:3], entries[3:6], entries[6:9]]
    base = det(m)
    swapped = det([m[1], m[0], m[2]])
    assert swapped == -base


@given(st.lists(polys(max_terms=2, max_exp=2), min_size=6, max_size=6))
@settings(max_examples=25, deadline=None)
def test_det_equal_rows_vanish(entries):
    m = [entries[0:3], entries[3:6], entries[0:3]]
    assert det(m) == 0


def _leibniz_det(rows):
    """Sum over permutations: the determinant by definition."""
    n = len(rows)
    total = MultiPoly.zero()
    for perm in itertools.permutations(range(n)):
        term = MultiPoly.one()
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total = total + (-term if inversions % 2 else term)
    return total


@given(st.lists(polys(max_terms=2, max_exp=2), min_size=36, max_size=36))
@settings(max_examples=10, deadline=None)
def test_det_matches_leibniz_oracle(entries):
    for n in (5, 6):
        rows = [entries[n * i : n * i + n] for i in range(n)]
        assert det(rows) == _leibniz_det(rows)


# -- packed monomials ------------------------------------------------------------

# Every family, kappa_0 of weight zero among them, and names whose string
# order differs from the canonical one.
_ORDER_VARS = [lam(1), lam(2), lam(10), PSI, kap(0), kap(1), kap(3), xvar(1), xvar(2), U, zvar(1)]


@st.composite
def _pair_monomial_lists(draw):
    width = draw(st.integers(min_value=2, max_value=10))
    top, half = (1 << width) - 1, 1 << (width - 1)
    exponents = st.integers(1, top) | st.sampled_from([1, half - 1, half, top - 1, top])
    monos = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        chosen = draw(st.lists(st.sampled_from(_ORDER_VARS), unique=True, max_size=5))
        monos.append(tuple(sorted((v, draw(exponents)) for v in chosen)))
    return width, monos


@given(_pair_monomial_lists())
@settings(max_examples=300, deadline=None)
def test_descending_packed_order_is_the_canonical_order(case):
    width, monos = case
    layout = Layout.of(_ORDER_VARS, width)
    packed = {layout.pack(mono): mono for mono in monos}
    assert len(packed) == len(set(monos))
    assert [packed[m] for m in sorted(packed, reverse=True)] == sorted(set(monos), key=mono_sort_key)
    for m, mono in packed.items():
        assert tuple(layout.unpack(m)) == mono
        assert m >> layout.shift == pairs_weight(mono)


def test_kappa0_makes_the_longer_monomial_the_larger():
    layout = Layout.of(_ORDER_VARS)
    short, long = ((lam(1), 1),), ((lam(1), 1), (kap(0), 1))
    assert layout.pack(long) > layout.pack(short) > layout.pack(())
    assert mono_sort_key(long) < mono_sort_key(short)
    p = monomial(short) + monomial(long) + monomial(((kap(0), 2),)) + 1
    assert p.canonical_str() == "lambda1*kappa0 + lambda1 + kappa0^2 + 1"


def test_a_product_that_would_carry_is_widened_not_wrapped():
    layout = Layout.of((xvar(1), xvar(2)), 8)
    cases = ([(xvar(1), 255), (xvar(2), 3)], [(xvar(1), 3), (xvar(2), 255)], [(xvar(1), 128), (xvar(2), 128)])
    for pairs in cases:
        p = MultiPoly({layout.pack(pairs): 1}, layout)
        for q in (X1, X2, X1 * X2**200, p):
            product = p * q
            assert product.layout.width > 8
            [(mono, coeff)] = terms(product)
            assert (mono, coeff) == (pairs_mul(tuple(pairs), terms(q)[0][0]), 1)
    high = X1**300 * X2
    assert terms(high) == [(((xvar(1), 300), (xvar(2), 1)), 1)]
    assert high.degree() == 301
    with pytest.raises(ValueError):
        layout.pack([(xvar(1), 256)])
    with pytest.raises(ValueError):  # a narrower layout cannot hold x1^300
        high.recast(layout)


_KERNEL_VARS = [lam(1), lam(2), PSI, xvar(1), kap(0)]
# at and past the guard bit of an 8-bit field, and small ones
_KERNEL_EXPONENTS = st.sampled_from([0, 1, 2, 3, 127, 128, 129, 200, 255])
_kernel_scalars = st.integers(-3, 3) | st.fractions(Fraction(-2), Fraction(2), max_denominator=3)


@st.composite
def _kernel_polys(draw):
    """Up to 3 terms in a layout of 0 to 3 variables, 8 or 9 bits wide."""
    variables = draw(st.lists(st.sampled_from(_KERNEL_VARS), unique=True, max_size=3))
    layout = Layout.of(variables, draw(st.sampled_from([8, 9])))
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        mono = layout.pack((v, draw(_KERNEL_EXPONENTS)) for v in layout.variables)
        terms[mono] = draw(_kernel_scalars.filter(bool))
    return MultiPoly(terms, layout)


_kernel_values = st.one_of(_kernel_polys(), _kernel_scalars)


def _meeting_layout(values):
    """The layout of the sum by the rule of common and then widening per product:
    the two factors meet, one bit wider if either reaches that layout's guard
    bit, a product with a zero factor is zero in the empty layout, and the
    summands meet in the common layout of all of them."""
    layout = Layout.of(())
    for value in values:
        if isinstance(value, tuple):
            a, b = map(MultiPoly._wrap, value)
            if not a or not b:
                continue
            here = a.layout.common(b.layout)
            if (a.recast(here)._or() | b.recast(here)._or()) & here.guard:
                here = Layout.of(here.variables, here.width + 1)
        else:
            here = MultiPoly._wrap(value).layout
        layout = layout.common(here)
    return layout


@given(st.lists(_kernel_values | st.tuples(_kernel_values, _kernel_values), max_size=6))
@settings(max_examples=300, deadline=None)
def test_sum_of_values_and_pairs_matches_the_pair_fold(values):
    folded = {}
    for value in values:
        products = [((), 1)]
        for factor in value if isinstance(value, tuple) else (value,):
            products = [
                (pairs_mul(mono, fmono), coeff * fcoeff)
                for mono, coeff in products
                for fmono, fcoeff in pair_terms(MultiPoly._wrap(factor))
            ]
        for mono, coeff in products:
            folded[mono] = folded.get(mono, 0) + coeff
    total = MultiPoly.sum(values)
    assert dict(pair_terms(total)) == {mono: coeff for mono, coeff in folded.items() if coeff}
    assert total == from_pairs(folded.items())
    expected = _meeting_layout(values)
    assert (total.layout.variables, total.layout.width) == (expected.variables, expected.width)


def test_layouts_meet_in_the_union_of_their_variables():
    a, b = Layout.of((lam(1), PSI)), Layout.of((xvar(1), PSI), 9)
    assert a.common(b) is Layout.of((xvar(1), lam(1), PSI), 9)
    assert a.common(Layout.of(())) is a
    p = MultiPoly.variable(lam(1), a) + MultiPoly.variable(xvar(1), b)
    assert p.layout is a.common(b)
    assert p == L1 + X1
    assert p.variables() == {lam(1), xvar(1)}


def test_divides_compares_field_by_field():
    layout = Layout.of((lam(1), lam(2), PSI))
    pack = layout.pack
    assert layout.divides(pack([(lam(1), 1)]), pack([(lam(1), 2), (lam(2), 1)]))
    assert layout.divides(pack([]), pack([(PSI, 3)]))
    assert not layout.divides(pack([(lam(2), 1)]), pack([(lam(1), 5)]))
    assert not layout.divides(pack([(lam(1), 1), (PSI, 2)]), pack([(lam(1), 3), (PSI, 1)]))
    assert layout.divides(pack([(lam(1), 127), (PSI, 127)]), pack([(lam(1), 127), (PSI, 127)]))
