"""Pullbacks of equivariant Grassmannian classes to pointed-curve moduli.

The pullback of the Schubert class of a partition mu at genus g lives in
Q[lambda_1..lambda_g, psi].  It is the Kempf-Laksov determinant of
schur.psi_matrix(mu, g): entry (i, j) is the degree-(mu_i + j - i) part
of (sum_a s_a) * c(interval), where the Segre classes of E*,

    s_a = h_a(x) = -sum_{i=1}^{min(a,g)} lambda_i s_(a-i),   s_0 = 1,

carry the x-dependence and the interval {0..mu_i - i + g - 1} contributes
plain rational multiples of psi^b.  Raising every interval value by one
(psi_matrix(mu, g, shift=1)) gives the Weierstrass class of wcycles
from the same determinant.  The determinant is PolyMatrix.det,
a Laplace expansion with memoised minors.

The x_i are Chern roots of the dual Hodge bundle, so e_a(x) =
(-1)^a lambda_a, and value_x is the same class written back in the
roots.  It is derived lazily, on first access, and is never needed to
compute value_lambda.  A lambda-monomial prod_a lambda_a^(d_a) maps to
plus or minus prod_a e_a^(d_a), a symmetric polynomial, so it is
expanded orbit by orbit: its coefficient on the monomial symmetric
function m_nu is the number of 0-1 matrices with row sums the factor
indices a and column sums nu.  The orbit table of a product is built
from the table with one factor e_a fewer by the pull rule

    [x^nu](f e_a) = sum over a-subsets S with nu - 1_S >= 0 of
                    [x^sort(nu - 1_S)] f        (f symmetric),

so only weakly decreasing nu are ever stored.  The coefficients of the
whole class are summed per orbit and per psi power, and each orbit is
written out as its distinct rearrangements once, at the end: for
mu = (5,4,3,2) at g = 6 that is 201 orbits over 15 psi powers for the
19,872 terms of value_x.

On the smooth locus a class is reduced modulo Mumford's relations
c(E) c(E*) = 1.  They involve lambda only, so the degree-d slice of the
ideal they generate is I_d = sum_k psi^k J_(d-k), where J is the
lambda-only Mumford ideal: psi is a free block index.  mumford_reduce
reduces each psi^k block against the Echelon of the slice of J at its
lambda-weight, cached per genus and weight.  Q[lambda]/J has the
Hilbert series prod_{i<=g} (1 + t^i), of total dimension 2^g (it is the
cohomology of the Lagrangian Grassmannian LG(g)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import groupby
from types import MappingProxyType
from typing import Mapping, Optional

from .exactalg import (
    Echelon,
    Monomial,
    MultiPoly,
    PSI,
    U,
    Variable,
    _mono_mul,
    _mono_weight,
    kap,
    lam,
    xvar,
)
from .schur import psi_matrix
from .semigroups import Partition

__all__ = [
    "PullbackClass",
    "MumfordIdeal",
    "kstar_schubert",
    "kstar_power_sum",
    "mumford_reduce",
    "smooth_power_sum",
    "bernoulli",
    "chern_interval",
    "lambda_monomials",
]


@dataclass(frozen=True)
class PullbackClass:
    """A pullback class in the lambda presentation, with its x-root view."""

    genus: int
    partition: Optional[Partition]
    power: Optional[int]
    value_lambda: MultiPoly

    @cached_property
    def value_x(self) -> MultiPoly:
        """value_lambda under lambda_a -> (-1)^a e_a(x_1..x_g)."""
        return self.in_roots(tuple(xvar(i) for i in range(1, self.genus + 1)))

    def in_roots(self, xs: tuple[Variable, ...]) -> MultiPoly:
        """value_lambda under lambda_a -> (-1)^a e_a(xs), for g variables
        xs in canonical order.

        The image is symmetric in xs, so it is summed orbit by orbit: for
        each non-lambda part of a monomial (the psi power), one map from
        weakly decreasing nu to the coefficient of the monomial symmetric
        function m_nu, taken from `_orbit_table`.  Each orbit is then
        written out as its distinct rearrangements xs^sigma(nu).
        """
        g = self.genus
        orbits: dict = {}
        for mono, coeff in self.value_lambda.items():
            diffs = [0] * g
            rest = []
            for var, e in mono:
                if var.family == "lambda":
                    diffs[var.index - 1] = e
                else:
                    rest.append((var, e))
            if sum(a * d for a, d in enumerate(diffs, start=1)) % 2:
                coeff = -coeff
            if coeff.denominator == 1:
                coeff = coeff.numerator  # int arithmetic is much faster
            acc = orbits.setdefault(tuple(rest), {})
            for nu, count in _orbit_table(g, tuple(diffs)).items():
                acc[nu] = acc.get(nu, 0) + coeff * count
        orbit_monos: dict = {}
        out: dict = {}
        for rest, acc in orbits.items():
            for nu, coeff in acc.items():
                if coeff:
                    for xmono in _orbit_monomials(xs, nu, orbit_monos):
                        out[_mono_mul(rest, xmono)] = coeff
        return MultiPoly(out)


# -- x-root view --------------------------------------------------------------


def _moves(vec: tuple[int, ...], a: int, step: int) -> list[tuple[tuple[int, ...], int]]:
    """Each sort(vec + step * 1_S) over a-subsets S of the places, with the
    number of subsets S that give it.

    vec is weakly decreasing and step is +1 or -1; for -1 only subsets
    inside the support count.  Choosing j places of a run of n equal
    entries gives comb(n, j) subsets, and the result stays sorted when the
    chosen places of a run are its first (step +1) or last (step -1).
    """
    runs = [(v, len(list(group))) for v, group in groupby(vec)]
    out = []

    def rec(r: int, left: int, head: tuple[int, ...], ways: int) -> None:
        if r == len(runs):
            if not left:
                out.append((head, ways))
            return
        v, n = runs[r]
        top = min(n, left) if step > 0 or v else 0
        for j in range(top + 1):
            if step > 0:
                piece = (v + 1,) * j + (v,) * (n - j)
            else:
                piece = (v,) * (n - j) + (v - 1,) * j
            rec(r + 1, left - j, head + piece, ways * math.comb(n, j))

    rec(0, a, (), 1)
    return out


@lru_cache(maxsize=None)
def _orbit_table(g: int, diffs: tuple[int, ...]) -> Mapping[tuple[int, ...], int]:
    """prod_a e_a(x_1..x_g)^(diffs_a) on the monomial symmetric functions.

    Maps each weakly decreasing g-tuple nu to the coefficient of m_nu: the
    number of 0-1 matrices whose row sums are the factor indices (a taken
    diffs_a times) and whose column sums are nu (Macdonald, Symmetric
    Functions and Hall Polynomials, I.6).  Built from the table with one
    factor e_a fewer, a the largest index with diffs_a > 0, by the pull
    rule

        [x^nu](f e_a) = sum over a-subsets S with nu - 1_S >= 0 of
                        [x^sort(nu - 1_S)] f,

    which holds for symmetric f.  Every nu with a nonzero coefficient is
    sort(mu + 1_S) for some mu of the smaller table.
    """
    a = max((i for i, d in enumerate(diffs, start=1) if d), default=0)
    if not a:
        return MappingProxyType({(0,) * g: 1})
    smaller = _orbit_table(g, diffs[: a - 1] + (diffs[a - 1] - 1,) + diffs[a:])
    candidates = {nu for mu in smaller for nu, _ in _moves(mu, a, 1)}
    return MappingProxyType(
        {
            nu: sum(smaller.get(mu, 0) * ways for mu, ways in _moves(nu, a, -1))
            for nu in candidates
        }
    )


def _orbit_monomials(xs: tuple[Variable, ...], nu: tuple[int, ...], memo: dict) -> list:
    """Every distinct monomial x^sigma(nu) in the last len(nu) variables of xs.

    nu is weakly decreasing.  The orbit of a tail of nu lives in the
    last places only, so memo, keyed by that tail, shares it between the
    orbits of every nu a caller passes with the same xs.
    """
    if not nu or not nu[0]:
        return [()]
    found = memo.get(nu)
    if found is None:
        place = xs[len(xs) - len(nu)]
        found = []
        for head in dict.fromkeys(nu):
            i = nu.index(head)
            tails = _orbit_monomials(xs, nu[:i] + nu[i + 1 :], memo)
            if head:
                pair = ((place, head),)
                found.extend([pair + tail for tail in tails])
            else:
                found.extend(tails)
        memo[nu] = found
    return found


def kstar_schubert(mu: Partition, g: int) -> PullbackClass:
    """Pullback of the equivariant Schubert class of mu at genus g.

    The Kempf-Laksov determinant of psi_matrix(mu, g); the class is zero
    whenever l(mu) exceeds g.
    """
    if g < 1:
        raise ValueError("genus must be at least 1")
    value = psi_matrix(mu, g).det()
    return PullbackClass(genus=g, partition=mu, power=None, value_lambda=value)


@lru_cache(maxsize=None)
def _power_sum_lambda(g: int, t: int) -> MultiPoly:
    """p_t(x_1..x_g) in the lambda basis by Newton's identity:
    p_t = -sum_{1<=i<t, i<=g} lambda_i p_(t-i) - t lambda_t (last term for t <= g)."""
    out = MultiPoly.zero()
    for i in range(1, min(t - 1, g) + 1):
        out = out - MultiPoly.variable(lam(i)) * _power_sum_lambda(g, t - i)
    if t <= g:
        out = out - MultiPoly.variable(lam(t)).scale(t)
    return out


def kstar_power_sum(s: int, g: int, chern_normalized: bool = False) -> PullbackClass:
    """Pullback of the power-sum class: sum_i x_i^s minus the psi tail.

    Terms beyond i = g cancel identically under the pinning, leaving

        sum_{i<=g} x_i^s - sum_{i<=g} (i - g)^s psi^s.

    chern_normalized divides by s! (Chern-character convention).
    """
    if g < 1 or s < 1:
        raise ValueError("genus and power must be at least 1")
    tail = sum((i - g) ** s for i in range(1, g + 1))
    value = _power_sum_lambda(g, s) - (MultiPoly.variable(PSI) ** s).scale(tail)
    if chern_normalized:
        value = value.scale(Fraction(1, math.factorial(s)))
    return PullbackClass(genus=g, partition=None, power=s, value_lambda=value)


# -- Mumford quotient -------------------------------------------------------


@dataclass(frozen=True)
class MumfordIdeal:
    """Relations from the vanishing of c(E) c(E*) - 1 in even degrees.

    The degree-2k part of c(E) c(E*) is sum_{i+j=2k} (-1)^i lambda_i
    lambda_j with lambda_0 = 1, for k = 1..g; the odd parts cancel under
    i <-> j.  Every generator lies in Q[lambda].
    """

    genus: int
    generators: tuple[tuple[int, MultiPoly], ...]

    @classmethod
    def for_genus(cls, g: int) -> "MumfordIdeal":
        lams = [MultiPoly.one()] + [MultiPoly.variable(lam(a)) for a in range(1, g + 1)]
        gens = []
        for k in range(1, g + 1):
            pairs = range(max(0, 2 * k - g), min(g, 2 * k) + 1)
            gen = sum(((lams[i] * lams[2 * k - i]).scale((-1) ** i) for i in pairs), MultiPoly.zero())
            gens.append((2 * k, gen))
        return cls(genus=g, generators=tuple(gens))


def lambda_monomials(g: int, weight: int) -> list[Monomial]:
    """Every monomial in lambda_1..lambda_g of the given weight, in
    canonical order (mono_sort_key).

    Canonical order walks lambda_1, lambda_2, ... and prefers the larger
    exponent, so choosing the exponents in that order, each from the
    largest down, emits the monomials already sorted.
    """
    out: list[Monomial] = []

    def rec(index: int, left: int, head: Monomial) -> None:
        if not left:
            out.append(head)
            return
        if index > g:
            return
        for e in range(left // index, -1, -1):
            rec(index + 1, left - e * index, head + (((lam(index), e),) if e else ()))

    rec(1, weight, ())
    return out


@lru_cache(maxsize=None)
def _mumford_pivots(g: int, weight: int):
    """Row-echelon basis of the weight slice J_w of the lambda-only
    Mumford ideal J.

    Returns (lambda_monomials(g, weight), the exactalg.Echelon of the
    integer rows m * generator).
    """
    basis = lambda_monomials(g, weight)
    column = {m: i for i, m in enumerate(basis)}
    echelon = Echelon()
    for gen_degree, gen in MumfordIdeal.for_genus(g).generators:
        if gen_degree > weight:
            break
        terms = [(mono, int(c)) for mono, c in gen.items()]
        for m in lambda_monomials(g, weight - gen_degree):
            row = [0] * len(basis)
            for mono, c in terms:
                row[column[_mono_mul(m, mono)]] = c
            echelon.add(row)
    return basis, echelon


def mumford_reduce(p: MultiPoly, g: int) -> MultiPoly:
    """Normal form modulo the Mumford relations, block by block.

    The generators involve lambda only, so the ideal's degree-d slice is
    I_d = sum_k psi^k J_(d-k), one block per psi power, and canonical
    order sorts each block as it sorts the lambda parts.  Each
    (lambda-weight, psi power) block of p is reduced by the Echelon of J
    at that weight, which makes the result unique.  Idempotent, and
    zero exactly on members of the ideal.
    """
    for v in p.variables():
        if v.family not in ("lambda", "psi") or v.index > g:
            raise ValueError("mumford_reduce expects a polynomial in lambda_1..lambda_g and psi")
    blocks: dict[tuple[int, int], dict] = {}
    for mono, c in p.items():
        k = 0
        if mono and mono[-1][0] == PSI:  # psi sorts after every lambda
            k = mono[-1][1]
            mono = mono[:-1]
        blocks.setdefault((_mono_weight(mono), k), {})[mono] = c
    out = {}
    for (weight, k), part in blocks.items():
        basis, echelon = _mumford_pivots(g, weight)
        vec = echelon.reduce([part.get(m, 0) for m in basis])
        psi = ((PSI, k),) if k else ()
        for m, c in zip(basis, vec):
            if c:
                out[m + psi] = c
    return MultiPoly(out)


# -- power sums on the smooth locus ----------------------------------------


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention) via the binomial recurrence."""
    if n < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


def smooth_power_sum(s: int, g: int, paper_sign: bool = False) -> MultiPoly:
    """Power-sum pullback on the smooth locus, in kappa and psi.

    Even s = 2r reduces to a pure psi term whose derived sign is negative
    (the x part dies against the Mumford relations); paper_sign flips it
    to the published positive form.  Odd s = 2r - 1 carries
    B_2r kappa_(2r-1) / 2r; the kappa index is forced down from the
    published 2r by degree counting.
    """
    if g < 1 or s < 1:
        raise ValueError("genus and power must be at least 1")
    psi = MultiPoly.variable(PSI)
    tail = sum((i - g) ** s for i in range(1, g + 1))
    tail_poly = (psi**s).scale(tail)
    if s % 2 == 0:
        return tail_poly if paper_sign else -tail_poly
    r = (s + 1) // 2
    kappa_term = MultiPoly.variable(kap(2 * r - 1)).scale(bernoulli(2 * r) / (2 * r))
    return kappa_term - tail_poly


def chern_interval(i: int, j: int) -> MultiPoly:
    """prod_{m=i}^{j} (1 - (m+1) u); the empty range gives 1."""
    out = MultiPoly.one()
    u = MultiPoly.variable(U)
    for m in range(i, j + 1):
        out = out * (MultiPoly.one() - u.scale(m + 1))
    return out
