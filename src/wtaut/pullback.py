"""Pullbacks of equivariant Grassmannian classes to pointed-curve moduli.

The pullback of the Schubert class of a partition mu at genus g lives in
Q[lambda_1..lambda_g, psi].  It is the Kempf-Laksov determinant of
schur.psi_matrix(mu, g): entry (i, j) is the degree-(mu_i + j - i) part
of (sum_a s_a) * c(interval), where the Segre classes of E*,

    s_a = h_a(x) = -sum_{i=1}^{min(a,g)} lambda_i s_(a-i),   s_0 = 1,

carry the x-dependence and the interval {0..mu_i - i + g - 1} contributes
plain rational multiples of psi^b.  The determinant is expanded by
cofactors.  The x_i are Chern roots of the dual Hodge bundle, so
e_a(x) = (-1)^a lambda_a; value_x is the same class written back in the
roots, obtained by expanding each lambda-monomial as that signed product
of elementary symmetric polynomials.  It is derived lazily, on first
access, and is never needed to compute value_lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional

from .exactalg import (
    MultiPoly,
    PSI,
    U,
    Variable,
    _det_cofactor,
    _mono_mul,
    kap,
    lam,
    mono_sort_key,
    xvar,
)
from .schur import psi_matrix
from .semigroups import Partition

__all__ = [
    "PullbackClass",
    "MumfordIdeal",
    "kstar_schubert",
    "kstar_power_sum",
    "to_lambda_basis",
    "mumford_reduce",
    "smooth_power_sum",
    "bernoulli",
    "chern_interval",
    "lambda_psi_monomials",
]


@dataclass(frozen=True)
class PullbackClass:
    """A pullback class in the lambda presentation, with its x-root view."""

    genus: int
    partition: Optional[Partition]
    power: Optional[int]
    value_lambda: MultiPoly
    mode: str = "CM"

    @property
    def degree(self) -> int | None:
        return self.value_lambda.weighted_degree()

    @cached_property
    def value_x(self) -> MultiPoly:
        """value_lambda under lambda_a -> (-1)^a e_a(x_1..x_g)."""
        g = self.genus
        xs = [xvar(i) for i in range(1, g + 1)]
        xmonos: dict = {}
        acc: dict = {}
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
            rest = tuple(rest)
            for vec, ecoef in _elementary_product_table(g, tuple(diffs)):
                xmono = xmonos.get(vec)
                if xmono is None:
                    xmono = xmonos[vec] = tuple((x, e) for x, e in zip(xs, vec) if e)
                key = _mono_mul(rest, xmono)
                val = acc.get(key, 0) + coeff * ecoef
                if val:
                    acc[key] = val
                else:
                    acc.pop(key, None)
        return MultiPoly(acc)


def kstar_schubert(mu: Partition, g: int) -> PullbackClass:
    """Pullback of the equivariant Schubert class of mu at genus g.

    The cofactor expansion of the Kempf-Laksov determinant; the class is
    zero whenever l(mu) exceeds g.
    """
    if g < 1:
        raise ValueError("genus must be at least 1")
    value = _det_cofactor([list(row) for row in psi_matrix(mu, g).entry_rows()])
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


# -- lambda basis -----------------------------------------------------------


@lru_cache(maxsize=None)
def _elementary_table(g: int, a: int) -> tuple[tuple[int, ...], ...]:
    """Support of e_a(x_1..x_g) as 0/1 exponent vectors."""
    from itertools import combinations

    out = []
    for picks in combinations(range(g), a):
        vec = [0] * g
        for i in picks:
            vec[i] = 1
        out.append(tuple(vec))
    return tuple(out)


@lru_cache(maxsize=None)
def _elementary_product_table(g: int, diffs: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """prod_a e_a(x)^(diffs_a) as an {x exponent vector: int} table."""
    table: dict[tuple[int, ...], int] = {(0,) * g: 1}
    for a, mult in enumerate(diffs, start=1):
        for _ in range(mult):
            nxt: dict[tuple[int, ...], int] = {}
            for vec, c in table.items():
                for evec in _elementary_table(g, a):
                    key = tuple(v + w for v, w in zip(vec, evec))
                    nxt[key] = nxt.get(key, 0) + c
            table = nxt
    return tuple(table.items())


def to_lambda_basis(p: MultiPoly, g: int) -> MultiPoly:
    """Rewrite a polynomial symmetric in x_1..x_g via e_a(x) -> (-1)^a lambda_a.

    Other variables (psi, u, kappa) pass through untouched.  Raises on
    input that is not symmetric in the x block.  Classical elimination:
    peel off the lex-leading x orbit with the matching product of
    elementary symmetric polynomials; every step only creates smaller
    orbits, so a max-heap over x exponent vectors drives the loop.  No
    class is computed through it: it inverts PullbackClass.value_x and
    serves as an independent check of the lambda-native routes.
    """
    import heapq

    zero_vec = (0,) * g
    groups: dict[tuple[int, ...], dict] = {}
    for mono, c in p.items():
        exps = [0] * g
        rest = []
        for var, e in mono:
            if var.family == "x":
                if var.index > g:
                    raise ValueError(f"x index {var.index} exceeds the genus {g}")
                exps[var.index - 1] = e
            else:
                rest.append((var, e))
        bucket = groups.setdefault(tuple(exps), {})
        key = tuple(rest)
        val = bucket.get(key, 0) + c
        if val:
            bucket[key] = val
        else:
            bucket.pop(key, None)

    groups = {vec: bucket for vec, bucket in groups.items() if bucket}
    # symmetry: every exponent vector must carry the same coefficients
    # as its sorted representative
    for vec, bucket in groups.items():
        rep = tuple(sorted(vec, reverse=True))
        if rep != vec and groups.get(rep) != bucket:
            raise ValueError("polynomial is not symmetric in x variables")

    heap = [tuple(-e for e in vec) for vec in groups if vec != zero_vec]
    heapq.heapify(heap)
    out_terms: dict = {}

    def emit(mono, value) -> None:
        val = out_terms.get(mono, 0) + value
        if val:
            out_terms[mono] = val
        else:
            out_terms.pop(mono, None)

    while heap:
        vec = tuple(-e for e in heapq.heappop(heap))
        bucket = groups.pop(vec, None)
        if not bucket:
            continue
        if any(vec[i] < vec[i + 1] for i in range(g - 1)):
            raise ValueError("polynomial is not symmetric in x variables")
        diffs = tuple(vec[a - 1] - (vec[a] if a < g else 0) for a in range(1, g + 1))
        # cancel bucket * prod_a e_a^(diffs_a); its leading orbit is vec
        for evec, ecoef in _elementary_product_table(g, diffs):
            if evec == vec:
                continue
            target = groups.get(evec)
            if target is None:
                target = groups[evec] = {}
                if evec != zero_vec:
                    heapq.heappush(heap, tuple(-e for e in evec))
            for rest, rc in bucket.items():
                val = target.get(rest, 0) - rc * ecoef
                if val:
                    target[rest] = val
                else:
                    target.pop(rest, None)
        # prod_a ((-1)^a lambda_a)^(diffs_a) is a single signed monomial
        sign = -1 if sum(a * d for a, d in enumerate(diffs, start=1)) % 2 else 1
        lam_mono = tuple((lam(a), d) for a, d in enumerate(diffs, start=1) if d)
        for rest, rc in bucket.items():
            emit(_mono_mul(lam_mono, rest), rc * sign)

    for rest, rc in groups.pop(zero_vec, {}).items():
        emit(rest, rc)
    return MultiPoly(out_terms)


# -- Mumford quotient -------------------------------------------------------


@dataclass(frozen=True)
class MumfordIdeal:
    """Relations from the vanishing of c(E) c(E*) - 1 in even degrees."""

    genus: int
    generators: tuple[tuple[int, MultiPoly], ...]

    @classmethod
    def for_genus(cls, g: int) -> "MumfordIdeal":
        total = MultiPoly.one()
        dual = MultiPoly.one()
        for a in range(1, g + 1):
            la = MultiPoly.variable(lam(a))
            total = total + la
            dual = dual + (la if a % 2 == 0 else -la)
        product = total * dual - MultiPoly.one()
        comps = product.homogeneous_components()
        gens = []
        for k in range(1, g + 1):
            if 2 * k < len(comps) and not comps[2 * k].is_zero():
                gens.append((2 * k, comps[2 * k]))
        # odd components cancel identically
        for d in range(1, len(comps), 2):
            assert comps[d].is_zero()
        return cls(genus=g, generators=tuple(gens))


def lambda_psi_monomials(g: int, degree: int) -> list[MultiPoly]:
    """Canonically ordered monomial basis of the weighted degree-d slice
    of Q[lambda_1..lambda_g, psi]."""

    out: list[MultiPoly] = []

    def rec(index: int, left: int, pairs: list[tuple[Variable, int]]) -> None:
        if index == 0:
            mono = list(pairs)
            if left:
                mono.append((PSI, left))
            out.append(MultiPoly.monomial(mono))
            return
        for e in range(left // index + 1):
            rec(index - 1, left - e * index, pairs + ([(lam(index), e)] if e else []))

    rec(g, degree, [])
    out.sort(key=lambda m: mono_sort_key(m.terms()[0][0]))
    return out


@lru_cache(maxsize=None)
def _mumford_pivots(g: int, degree: int):
    """Reduced row-echelon form of the degree slice of the Mumford ideal.

    Returns (basis monomials, pivot map column -> reduced row).
    """
    ideal = MumfordIdeal.for_genus(g)
    basis = lambda_psi_monomials(g, degree)
    index = {m.terms()[0][0]: i for i, m in enumerate(basis)}
    rows: list[list[Fraction]] = []
    for gen_degree, gen in ideal.generators:
        if gen_degree > degree:
            continue
        for m in lambda_psi_monomials(g, degree - gen_degree):
            product = m * gen
            row = [Fraction(0)] * len(basis)
            for mono, c in product.items():
                row[index[mono]] = c
            rows.append(row)
    pivots: dict[int, list[Fraction]] = {}
    for row in rows:
        for col in sorted(pivots):
            if row[col]:
                factor = row[col]
                prow = pivots[col]
                for j in range(col, len(row)):
                    row[j] -= factor * prow[j]
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is None:
            continue
        inv = Fraction(1) / row[lead]
        row = [v * inv for v in row]
        for col, prow in pivots.items():
            if prow[lead]:
                factor = prow[lead]
                for j in range(len(row)):
                    prow[j] -= factor * row[j]
        pivots[lead] = row
    return basis, pivots


def mumford_reduce(p: MultiPoly, g: int) -> MultiPoly:
    """Normal form modulo the Mumford relations, degree by degree.

    Idempotent, and zero exactly on members of the ideal.
    """
    for v in p.variables():
        if v.family not in ("lambda", "psi"):
            raise ValueError("mumford_reduce expects a polynomial in lambda and psi")
    out = MultiPoly.zero()
    for degree, comp in enumerate(p.homogeneous_components()):
        if comp.is_zero():
            continue
        basis, pivots = _mumford_pivots(g, degree)
        index = {m.terms()[0][0]: i for i, m in enumerate(basis)}
        vec = [Fraction(0)] * len(basis)
        for mono, c in comp.items():
            vec[index[mono]] = c
        for col in sorted(pivots):
            if vec[col]:
                factor = vec[col]
                prow = pivots[col]
                for j in range(col, len(vec)):
                    vec[j] -= factor * prow[j]
        for i, c in enumerate(vec):
            if c:
                out = out + basis[i].scale(c)
    return out


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
