"""Factorial and shifted Schur polynomials, the Kempf-Laksov matrices, and
the lambda basis of symmetric functions.

The factorial Schur polynomial t_mu(z_1..z_n) is the double Schur
polynomial s_mu(z | a) with a_m = m - 1, classically the ratio

    det[(z_i | a)^(mu_j + n - j)] / prod_{i<j} (z_i - z_j),

(z | a)^k = (z - a_1) ... (z - a_k).  wtaut never forms that ratio.
The Kempf-Laksov determinant of psi_matrix(mu, g), the Schubert-class
pullback, is u^|mu| t_mu(x/u) at u = -psi in the Chern roots x_1..x_g,
so at psi = -1 (u = 1) and g = n it is t_mu itself.  In the variant
"psi", entry (i, j) is

    sum_b (-1)^b e_b(0, 1, ..., r_i - 1) h_(k - b),
    k = mu_i + j - i,  r_i = mu_i - i + n,

a Jacobi-Trudi form of t_mu (Macdonald, "Schur functions: theme and
variations", 1992, 6th variation).  The conjugate variant "psi_prime"
is built the same way from the conjugate partition with e and h
swapped, so its entries have at most n + 1 terms where the h_a of
"psi" are dense in lambda.  Both have the same determinant;
psi_matrix and factorial_schur expand the one that _variant picks
from the shape, the genus and whether the entries are numbers.  The
variant is read in one place, _shape, which turns it into the rows
(kind, r, ks) of the matrix: the series kind, "h" or "e", the interval
bound r and the degrees ks of the row's entries.  The interval of bound
r is the list {0..r-1}, and a row's entries need only its e_b (kind
"h") or h_b (kind "e"); psi_matrix(mu, g, shift) raises every bound by
shift.  Every entry is then one rule, _entry_terms, over a list of the
series, [h_0, h_1, ...] or [e_0, ..., e_n], and the interval's
coefficients.  When every argument is a number, the lists are the
integers h_a(u z) and e_a(u z), with u a common denominator of the z_i,
psi is -u, and the determinant u^|mu| t_mu(z) is an integer.
Otherwise factorial_schur takes the class det(psi_matrix(mu, n))
itself at psi = -1 and writes it in the roots z_1..z_n by in_roots;
arguments other than z_i itself are then substituted, all at once.
No difference of arguments is divided by, so repeated arguments need
no special case.
Shifted Schur polynomials are the staggered substitution
s*_mu(z_1..z_n) = t_mu(z_1 + n - 1, ..., z_n), which makes the
stability identity s*_mu(z, 0) = s*_mu(z) hold by construction.

The lambda basis: the x_i are Chern roots of the dual Hodge bundle, so
the list of e_a(x) is [1, -lambda_1, lambda_2, ..., (-1)^g lambda_g] and
that of h_a(x) the Segre classes of E*, grown per genus and ring as far
as an entry asks (_lambda_series).  root_orbits maps a class back to the
roots.  A lambda-monomial prod_a lambda_a^(d_a) goes to plus or minus
prod_a e_a^(d_a), a symmetric polynomial, so it is written orbit by
orbit: its coefficient on the monomial symmetric function m_nu is the
number of 0-1 matrices with row sums the factor indices a and column
sums nu.  The orbit table of a product is built from the table with one
factor e_a fewer by the push rule: the mass of each orbit mu, its
coefficient times its orbit size, goes to sort(mu + 1_S) for each
a-subset S of the places, and each orbit nu reached divides its mass by
its own size (f symmetric),

    [m_nu](f e_a) = sum_mu [m_mu] f * |orbit mu| * #{S : sort(mu + 1_S) = nu}
                    / |orbit nu|,

so only weakly decreasing nu are ever stored.  root_orbits sums the
coefficients of the whole class per orbit and per psi power, and stops
there: for the pullback of mu = (5,4,3,2) at g = 6 that is 201 orbits
over 15 psi powers.  in_roots writes each orbit out as its distinct
rearrangements, each one a sum of packed exponents: 19,872 terms in the
roots for that pullback.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from typing import Sequence, Union

from .exactalg import Layout, MultiPoly, PSI, Variable, det, field_width, lam, zvar
from .semigroups import Partition

__all__ = [
    "factorial_schur",
    "shifted_schur",
    "psi_matrix",
    "generic_arguments",
    "root_orbits",
    "in_roots",
    "lambda_ring",
]

Value = Union[MultiPoly, Fraction, int]


@lru_cache(maxsize=None)
def lambda_ring(g: int, degree: int) -> Layout:
    """The layout of Q[lambda_1..lambda_g, psi] for degrees up to degree.

    Every exponent of a class of weighted degree d is at most d, so the
    fields are chosen wide enough for that (exactalg.field_width).
    """
    return Layout.of([*map(lam, range(1, g + 1)), PSI], field_width(degree))


def generic_arguments(n: int) -> list[MultiPoly]:
    return [MultiPoly.variable(zvar(i)) for i in range(1, n + 1)]


def factorial_schur(mu: Partition, args: Sequence[Value]) -> MultiPoly:
    """t_mu(z_1..z_n), the Kempf-Laksov determinant of psi_matrix(mu, n) at psi = -1.

    Numbers make an integer matrix of their own (see the module
    docstring).  Otherwise the class det(psi_matrix(mu, n)), homogeneous
    of degree |mu|, is taken at psi = -1, written in z_1..z_n by
    in_roots, and the arguments other than z_i itself are substituted
    in one simultaneous substitute.
    """
    zs = [MultiPoly._wrap(v) for v in args]
    n = len(zs)
    if mu.length > n:
        raise ValueError("insufficient variables")
    if any(z.variables() for z in zs):
        zvars = tuple(zvar(i) for i in range(1, n + 1))
        out = in_roots(det(psi_matrix(mu, n)).substitute({PSI: -1}), zvars)
        return out.substitute({v: z for v, z in zip(zvars, zs) if z != MultiPoly.variable(v)})
    # u^|mu| t_mu(x/u) at the integers x = u z, u a common denominator
    values = [z.constant_term() for z in zs]
    u = math.lcm(*(v.denominator for v in values))
    xs = [int(v * u) for v in values]
    top = mu.part(1) + mu.length
    series = {"h": complete_of_values(xs, top), "e": elementary_of_values(xs, top)}
    rows = []
    for kind, r, ks in _shape(mu, n, _variant(mu, n, numeric=True)):
        coeffs = _interval_coefficients(kind, r, ks[-1])  # shared by the row's entries
        rows.append([sum(_entry_terms(series[kind], coeffs, k, -u)) for k in ks])
    return det(rows) / u**mu.weight


def shifted_schur(mu: Partition, args: Sequence[Value]) -> MultiPoly:
    """s*_mu(z_1..z_n) = t_mu(z_1 + n - 1, ..., z_n); zero when l(mu) > n."""
    zs = [MultiPoly._wrap(a) for a in args]
    n = len(zs)
    if mu.length > n:
        return MultiPoly.zero()
    staggered = [z + (n - i) for i, z in enumerate(zs, start=1)]
    return factorial_schur(mu, staggered)


def elementary_of_values(values: Sequence[Value], top: int) -> list[Value]:
    """[e_0, ..., e_top] of the values, in one pass."""
    acc: list[Value] = [1] + [0] * top
    for t in values:
        for k in range(top, 0, -1):
            acc[k] += t * acc[k - 1]
    return acc


def complete_of_values(values: Sequence[Value], top: int) -> list[Value]:
    """[h_0, ..., h_top] of the values, in one pass."""
    acc: list[Value] = [1] + [0] * top
    for t in values:
        for k in range(1, top + 1):
            acc[k] += t * acc[k - 1]
    return acc


def _variant(mu: Partition, g: int, numeric: bool) -> str:
    """The Kempf-Laksov variant expanded for mu at genus g.

    A numeric determinant is a matrix of ints, eliminated fraction-free
    in about rows^3 products (exactalg.det), so it takes the variant
    with fewer rows: l(mu) for "psi", mu_1 for "psi_prime".  A polynomial
    one costs with the size of its entries as well, so it takes the
    sparse "psi_prime" unless mu is wide, mu_1 > min(g, 2 l(mu)).  That
    bound was set from the determinants of every shape with l(mu) <= g
    and |mu| <= 14 at g = 6..8 (CHANGES.md).
    """
    if numeric:
        return "psi" if mu.length <= mu.part(1) else "psi_prime"
    return "psi_prime" if mu.part(1) <= min(g, 2 * mu.length) else "psi"


def _shape(mu: Partition, g: int, variant: str) -> list[tuple[str, int, range]]:
    """The rows (kind, r, ks) of the Kempf-Laksov matrix of mu at genus g:
    the series kind, "h" or "e", the interval bound r and the degrees ks
    of the row's entries, one per column.

    Variant "psi" is l(mu) x l(mu), of kind "h": entry (i, j) has degree
    k = mu_i + j - i and interval bound r = mu_i - i + g.  Variant
    "psi_prime" is l(mu') x l(mu'), of kind "e", built the same way from
    the conjugate mu' with the bound r = i - mu'_i + g.
    """
    kind, parts, sign = ("h", mu, 1) if variant == "psi" else ("e", mu.conjugate(), -1)
    size = len(parts)
    return [
        (kind, g + sign * (p - i), range(p + 1 - i, p + 1 - i + size))
        for i, p in enumerate(parts, start=1)
    ]


def _interval_coefficients(kind: str, r: int, top: int) -> list[int]:
    """Coefficients 0..top of c(interval) for the interval list {0..r-1}
    of bound r: elementary for kind "h", complete for kind "e".

    r >= 1 whenever l(mu) <= g.
    """
    interval = elementary_of_values if kind == "h" else complete_of_values
    return interval(range(r), top)


def _entry_terms(series: Sequence[Value], coeffs: list[int], k: int, psi: Value) -> list[Value]:
    """The nonzero terms series[k-b] * coeffs[b] * psi^b of the degree-k part
    of (sum_a series[a]) * c(interval), psi^b marking degree b; the entry
    is their sum, taken by the caller in one accumulation.

    series is [h_0, h_1, ...] or [e_0, e_1, ...] of the x, zero past its
    end, and coeffs are the interval's coefficients to degree k or
    beyond.  psi is the variable psi, or the number -u.  For k < 0 the
    range of b is empty, where a slice coeffs[:k + 1] would not be: the
    "psi" rows of (4,1,1,1) have entries of degree -2.
    """
    low = max(k + 1 - len(series), 0)
    return [series[k - b] * (coeffs[b] * psi**b) for b in range(low, k + 1) if coeffs[b]]


@lru_cache(maxsize=None)
def _lambda_series(kind: str, g: int, ring: Layout) -> list[MultiPoly]:
    """The series of kind in the lambda basis, in ring.

    Kind "e" is [e_0..e_g], e_a(x) = (-1)^a lambda_a.  Kind "h" is the
    Segre classes of E*, [h_0, h_1, ...], as far as _matrix_entry has
    grown the list.
    """
    if kind == "h":
        return [MultiPoly.one()]
    return [MultiPoly.one(), *(MultiPoly.variable(lam(a), ring).scale((-1) ** a) for a in range(1, g + 1))]


@lru_cache(maxsize=None)
def _matrix_entry(kind: str, g: int, r: int, k: int, ring: Layout) -> MultiPoly:
    """The entry of kind, interval bound r and degree k in lambda and psi, in ring.

    The Segre list grows bottom-up to h_k by e_i(x) = (-1)^i lambda_i and
    sum_i (-1)^i e_i h_(b-i) = 0, that is h_b = -sum_{i=1}^{min(b,g)}
    lambda_i h_(b-i), so no call recurses once per degree.
    """
    series = _lambda_series(kind, g, ring)
    while kind == "h" and len(series) <= k:
        b = len(series)
        lower = range(1, min(b, g) + 1)
        series.append(-MultiPoly.sum((MultiPoly.variable(lam(i), ring), series[b - i]) for i in lower))
    coeffs = _interval_coefficients(kind, r, k)
    return MultiPoly.sum(_entry_terms(series, coeffs, k, MultiPoly.variable(PSI, ring)))


def psi_matrix(mu: Partition, g: int, shift: int = 0) -> list[list[MultiPoly]]:
    """Rows of the Kempf-Laksov matrix whose determinant is the
    Schubert-class pullback.

    Entries are polynomials in lambda_1..lambda_g and psi, in the variant
    _variant picks at g, shaped as _shape says with every interval bound
    raised by shift, and share the layout lambda_ring(g, |mu|).  At
    shift = 0 the determinant is kstar_schubert(mu, g), that is
    u^|mu| t_mu(x/u) with u -> -psi.  At shift = 1 it is
    u^|mu| t_mu(x/u - 1), the Weierstrass class (see wcycles): the
    interval {1..r} has the coefficients of {0..r}, since a value 0 adds
    nothing to e or h, and that is the interval of bound r + 1.
    Refused for l(mu) > g, where the class is zero.
    """
    if mu.length > g:
        raise ValueError("partition longer than the genus")
    ring = lambda_ring(g, mu.weight)
    shape = _shape(mu, g + shift, _variant(mu, g, numeric=False))
    return [[_matrix_entry(kind, g, r, k, ring) for k in ks] for kind, r, ks in shape]


# -- the roots view ----------------------------------------------------------


def root_orbits(p: MultiPoly, g: int) -> dict:
    """p under lambda_a -> (-1)^a e_a(x_1..x_g) on the monomial symmetric
    functions m_nu; p is a polynomial in lambda_1..lambda_g and psi.

    Maps (rest, nu) to the nonzero coefficient of rest * m_nu: rest is the
    non-lambda part of a monomial of p (the psi power), as the
    (variable, exponent) pairs of Layout.unpack, and nu a partition of at
    most g positive parts, weakly decreasing.  The keys come in
    descending order of rest, as p's terms sort, then of nu; for a
    homogeneous p that is the order of the orbits' leading monomials
    rest * x^nu in in_roots.  For each rest, the coefficients are summed
    from the tables of `_orbit_table`.
    """
    src = p.layout
    tables: dict = {}
    orbits: dict = {}
    for mono, coeff in p.items():
        diffs = [0] * g
        for var, e in src.unpack(mono):
            if var.family == "lambda":
                if var.index > g:
                    raise ValueError(f"lambda_{var.index} in the roots of genus {g}")
                diffs[var.index - 1] = e
                mono -= e * src.units[var]
        coeff *= (-1) ** sum(a * d for a, d in enumerate(diffs, start=1))
        acc = orbits.setdefault(mono, {})
        for nu, count in _orbit_table(tuple(diffs), tables).items():
            acc[nu] = acc.get(nu, 0) + coeff * count
    return {
        (tuple(src.unpack(rest)), nu[: g - nu.count(0)]): coeff
        for rest in sorted(orbits, reverse=True)
        for nu, coeff in sorted(orbits[rest].items(), reverse=True)
        if coeff
    }


def in_roots(p: MultiPoly, xs: tuple[Variable, ...]) -> MultiPoly:
    """p under lambda_a -> (-1)^a e_a(xs), for g = len(xs) variables xs in
    canonical order: the orbits of root_orbits(p, g) written out.

    Each orbit is written as its distinct rearrangements xs^sigma(nu), in
    the layout of xs and p's other variables, where a rearrangement is a
    sum of shifted exponents and its product with the rest one more sum.
    """
    g = len(xs)
    rest_vars = [v for v in p.variables() if v.family != "lambda"]
    ring = Layout.of([*rest_vars, *xs], max(p.layout.width, field_width(p.degree())))
    units = tuple(ring.units[x] for x in xs)
    orbit_monos: dict = {}
    out: dict = {}
    for (rest, nu), coeff in root_orbits(p, g).items():
        head = ring.pack(rest)
        for xmono in _orbit_monomials(units, nu + (0,) * (g - len(nu)), orbit_monos):
            out[head + xmono] = coeff
    return MultiPoly(out, ring)


@lru_cache(maxsize=1 << 16)
def _moves(vec: tuple[int, ...], a: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Each sort(vec + 1_S) over a-subsets S of the places, with the
    number of subsets S that give it.

    vec is weakly decreasing.  Choosing j places of a run of n equal
    entries gives comb(n, j) subsets, and the result stays sorted when the
    chosen places of a run are its first.  Cached: the orbit tables of one
    class ask for each move about three times (955 calls for 297 moves at
    (5,4,3,2), g = 6).
    """
    runs = [(v, len(list(group))) for v, group in groupby(vec)]
    out = []

    def rec(r: int, left: int, head: tuple[int, ...], ways: int) -> None:
        if r == len(runs):
            if not left:
                out.append((head, ways))
            return
        v, n = runs[r]
        for j in range(min(n, left) + 1):
            rec(r + 1, left - j, head + (v + 1,) * j + (v,) * (n - j), ways * math.comb(n, j))

    rec(0, a, (), 1)
    return tuple(out)


@lru_cache(maxsize=1 << 16)
def _orbit_size(nu: tuple[int, ...]) -> int:
    """The number of distinct rearrangements of nu, g! / prod_i m_i! for
    the multiplicities m_i of its entries."""
    return math.factorial(len(nu)) // math.prod(math.factorial(len(list(run))) for _, run in groupby(nu))


def _orbit_table(diffs: tuple[int, ...], memo: dict) -> dict[tuple[int, ...], int]:
    """prod_a e_a(x_1..x_g)^(diffs_a) on the monomial symmetric functions,
    g = len(diffs).

    Maps each weakly decreasing g-tuple nu to the coefficient of m_nu: the
    number of 0-1 matrices whose row sums are the factor indices (a taken
    diffs_a times) and whose column sums are nu (Macdonald, Symmetric
    Functions and Hall Polynomials, I.6).  Built from the table with one
    factor e_a fewer, a the largest index with diffs_a > 0, by the push
    rule: the mass of f on the orbit of mu, its coefficient times the
    orbit size, goes to each sort(mu + 1_S) once per a-subset S,

        mass of f e_a on nu = sum over mu of (mass of f on mu) *
                              #{a-subsets S : sort(mu + 1_S) = nu},

    which holds for symmetric f; each new coefficient is its mass divided
    by the orbit size of nu, exactly, as the coefficients are counts.
    memo maps exponent vectors to their tables: the chain of smaller
    tables is walked down to the first one in memo, then built back up
    with every step stored, so no call recurses once per factor.
    """
    chain = []
    while diffs not in memo:
        a = max((i for i, d in enumerate(diffs, start=1) if d), default=0)
        if not a:
            memo[diffs] = {diffs: 1}  # the empty product: m_0 = 1
            break
        chain.append((diffs, a))
        diffs = diffs[: a - 1] + (diffs[a - 1] - 1,) + diffs[a:]
    table = memo[diffs]
    for diffs, a in reversed(chain):
        mass: dict[tuple[int, ...], int] = {}
        for mu, coeff in table.items():
            weight = coeff * _orbit_size(mu)
            for nu, ways in _moves(mu, a):
                mass[nu] = mass.get(nu, 0) + weight * ways
        table = memo[diffs] = {nu: m // _orbit_size(nu) for nu, m in mass.items()}
    return table


def _orbit_monomials(units: tuple[int, ...], nu: tuple[int, ...], memo: dict) -> list[int]:
    """Every distinct monomial x^sigma(nu) in the last len(nu) variables,
    packed: units are the monomials x_1..x_g of one layout.

    nu is weakly decreasing.  The orbit of a tail of nu lives in the
    last places only, so memo, keyed by that tail, shares it between the
    orbits of every nu a caller passes with the same units.
    """
    if not nu or not nu[0]:
        return [0]
    found = memo.get(nu)
    if found is None:
        place = units[len(units) - len(nu)]
        found = []
        for head in dict.fromkeys(nu):
            i = nu.index(head)
            tails = _orbit_monomials(units, nu[:i] + nu[i + 1 :], memo)
            lead = head * place
            found.extend([lead + tail for tail in tails])
        memo[nu] = found
    return found
