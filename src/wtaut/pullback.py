"""Pullbacks of equivariant Grassmannian classes to pointed-curve moduli.

The pullback of the Schubert class of a partition mu at genus g lives in
Q[lambda_1..lambda_g, psi].  It is the Kempf-Laksov determinant of
schur.psi_matrix(mu, g), in one of two variants with the same
determinant.  In "psi", entry (i, j) is the degree-(mu_i + j - i) part
of (sum_a s_a) * c(interval), where the Segre classes of E*,

    s_a = h_a(x) = -sum_{i=1}^{min(a,g)} lambda_i s_(a-i),   s_0 = 1,

carry the x-dependence and the interval {0..mu_i - i + g - 1} contributes
plain rational multiples of psi^b.  "psi_prime" is built from the
conjugate partition with e and h swapped: its entries take
e_a(x) = (-1)^a lambda_a in place of s_a, so each has at most g + 1
terms.  It is the one expanded unless mu is wide (schur._variant).
The Weierstrass class of wcycles is the same determinant with every
interval bound raised by one.  The determinant is exactalg.det, a
Laplace expansion with memoised minors over the rows psi_matrix returns.

kstar_schubert and kstar_power_sum return the class as a polynomial in
lambda and psi.  In the Chern roots x_1..x_g of the dual Hodge bundle,
where e_a(x) = (-1)^a lambda_a, the class is symmetric: schur.root_orbits
writes it as its coefficients on the monomial symmetric functions m_nu,
and schur.in_roots expands those orbits into monomials of the x_i.

On the smooth locus a class is reduced modulo Mumford's relations
c(E) c(E*) = 1.  They involve lambda only, so the degree-d slice of the
ideal they generate is I_d = sum_k psi^k J_(d-k), where J is the
lambda-only Mumford ideal: psi is a free block index.  Q[lambda]/J has
the Hilbert series prod_{i<=g} (1 + t^i), of total dimension 2^g (it is
the cohomology of the Lagrangian Grassmannian LG(g)), and no slice of J
is built.  Under the concave weights f(i) = i (2g + 1 - i) of the
lambda_i the generator gen_k leads with lambda_k^2; these leading terms
are coprime, so the generators are a Groebner basis and the square-free
monomials lambda_S are a basis of the quotient, reached by the rewrite
rule lambda_k^2 = 2 sum_{i<k, 2k-i<=g} (-1)^(k+i+1) lambda_i
lambda_(2k-i) (lambda_0 = 1).  mumford_reduce writes each psi^k block
on that basis and reads off the graded-lex normal form: its coefficients
on the smallest monomials of the block's lambda-weight whose images are
independent, cached per genus and weight.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exactalg import Echelon, Layout, Monomial, MultiPoly, PSI, det, field_width, kap, lam
from .schur import lambda_ring, psi_matrix
from .semigroups import Partition, partitions_of

__all__ = [
    "kstar_schubert",
    "kstar_power_sum",
    "kstar_power_sum_roots",
    "mumford_reduce",
    "smooth_power_sum",
    "bernoulli",
    "lambda_monomials",
]


def kstar_schubert(mu: Partition, g: int) -> MultiPoly:
    """Pullback of the equivariant Schubert class of mu at genus g, in
    lambda and psi.

    The Kempf-Laksov determinant of psi_matrix(mu, g); the class is zero
    whenever l(mu) exceeds g.
    """
    if g < 1:
        raise ValueError("genus must be at least 1")
    if mu.length > g:
        return MultiPoly.zero()
    return det(psi_matrix(mu, g))


def _power_sum_lambda(g: int, s: int) -> MultiPoly:
    """p_s(x_1..x_g) in the lambda basis by Newton's identity,

        p_t = -sum_{1<=i<t, i<=g} lambda_i p_(t-i) - t lambda_t   (last term for t <= g),

    built bottom-up from p_1, so that no call recurses once per degree.
    """
    ring = lambda_ring(g, s)
    sums = [MultiPoly.zero()]  # p_0 is never read: i < t keeps t - i >= 1
    for t in range(1, s + 1):
        lower = range(1, min(t - 1, g) + 1)
        terms = [(MultiPoly.variable(lam(i), ring), sums[t - i]) for i in lower]
        if t <= g:
            terms.append((t, MultiPoly.variable(lam(t), ring)))
        sums.append(-MultiPoly.sum(terms))
    return sums[s]


def _psi_tail(s: int, g: int) -> int:
    """sum_{i<=g} (i - g)^s, the coefficient of psi^s the pinning takes off."""
    return sum((i - g) ** s for i in range(1, g + 1))


def kstar_power_sum(s: int, g: int) -> MultiPoly:
    """Pullback of the power-sum class: sum_i x_i^s minus the psi tail.

    Terms beyond i = g cancel identically under the pinning, leaving

        sum_{i<=g} x_i^s - sum_{i<=g} (i - g)^s psi^s.
    """
    if g < 1 or s < 1:
        raise ValueError("genus and power must be at least 1")
    psi_power = MultiPoly.variable(PSI, lambda_ring(g, s)) ** s
    return _power_sum_lambda(g, s) - psi_power.scale(_psi_tail(s, g))


def kstar_power_sum_roots(s: int, g: int) -> dict:
    """kstar_power_sum(s, g) on the monomial symmetric functions of the
    roots, keyed as schur.root_orbits keys them, from the formula above:
    sum_i x_i^s - c psi^s = m_(s) - c psi^s m_(), with no lambda class
    built or rewritten; the psi orbit is left out where c = 0 (g = 1)."""
    if g < 1 or s < 1:
        raise ValueError("genus and power must be at least 1")
    orbits = {(((PSI, s),), ()): -_psi_tail(s, g), ((), (s,)): 1}
    return {key: coeff for key, coeff in orbits.items() if coeff}


# -- Mumford quotient -------------------------------------------------------


@lru_cache(maxsize=None)
def lambda_monomials(g: int, weight: int, ring: Layout) -> list[Monomial]:
    """Every monomial in lambda_1..lambda_g of the given weight, packed in
    ring, a layout with fields for them wide enough for weight, in
    canonical order.

    They are the partitions of weight with parts <= g, a part i standing
    for a factor lambda_i; canonical order is descending int order.
    The list is cached and shared by every caller, which must not
    change it.
    """
    units = [0, *(ring.units[lam(i)] for i in range(1, g + 1))]
    monos = [sum(units[i] for i in parts) for parts in partitions_of(weight, g, weight)]
    return sorted(monos, reverse=True)


@lru_cache(maxsize=None)
def _square_free(g: int, ring: Layout):
    """The memoised map that writes a lambda-monomial of ring in the
    square-free basis of Q[lambda]/J: it returns {lambda_S: int} (an
    entry may be 0), where lambda_S is the product of the lambda_i for i
    in S.

    A monomial divisible by some lambda_k^2 is rewritten by the rule

        lambda_k^2 = 2 sum_{i<k, 2k-i<=g} (-1)^(k+i+1) lambda_i lambda_(2k-i),   lambda_0 = 1,

    which is gen_k = 0 (see _mumford_pivots) solved for its leading term,
    and each term of the result in turn.  Every step lowers the concave
    weight, so this ends, and since the gen_k are a Groebner basis the
    image does not depend on which square is rewritten first.  The sum
    is empty where no i < k has 2k - i <= g: lambda_1^2 = 0 at g = 1.
    The dicts returned are shared by every caller, which must not change
    them.
    """
    units = [0, *(ring.units[lam(i)] for i in range(1, g + 1))]
    rules = [
        (2 * units[k], [(2 * (-1) ** (k + i + 1), units[i] + units[2 * k - i]) for i in range(max(0, 2 * k - g), k)])
        for k in range(1, g + 1)
    ]
    images: dict[Monomial, dict] = {}

    def image(mono: Monomial) -> dict:
        found = images.get(mono)
        if found is None:
            for square, terms in rules:
                if ring.divides(square, mono):
                    found = {}
                    for c, pair in terms:
                        for s, d in image(mono - square + pair).items():
                            found[s] = found.get(s, 0) + c * d
                    break
            else:
                found = {mono: 1}
            images[mono] = found
        return found

    return image


@lru_cache(maxsize=None)
def _mumford_pivots(g: int, weight: int, ring: Layout):
    """The standard monomials of the weight slice of Q[lambda]/J, packed
    in ring, and the Echelon that writes a class on them.

    J is generated by the even parts of c(E) c(E*) - 1, for k = 1..g,

        gen_k = sum_{i+j=2k} (-1)^i lambda_i lambda_j,   lambda_0 = 1.

    Weigh lambda_i by f(i) = i (2g + 1 - i).  f is strictly concave with
    f(0) = 0, so f(i) + f(2k - i) < 2 f(k) for 0 <= i < k: the leading
    term of gen_k is lambda_k^2.  These leading terms are pairwise
    coprime, so the gen_k are a Groebner basis under that order
    (Buchberger's first criterion) and the square-free monomials of the
    weight, the columns here, are a basis of the slice; _square_free
    writes every monomial on them.

    The normal form is the graded-lex one, on the monomials that lead
    (in canonical order) no member of J_w.  A monomial is one of those
    exactly when its image is independent of the images of all smaller
    monomials, so they are kept walking lambda_monomials(g, weight,
    ring) from the smallest up, wherever an image raises the rank,
    until there are as many as columns; the images span the slice, so
    the walk always gets there.

    Returns (the columns, the kept monomials, the Echelon of the rows
    [image(kept_j) | -e_j]).  Reducing [image(p) | 0] against it clears
    the columns and leaves the coefficients of p on the kept monomials.
    """
    basis = lambda_monomials(g, weight, ring)
    image = _square_free(g, ring)
    high = sum(1 << ring.offsets[lam(i)] for i in range(1, g + 1)) * (ring.mask - 1)  # exponent bits above 1
    columns = [m for m in basis if not m & high]
    kept, rank, solve = [], Echelon(), Echelon()
    for m in reversed(basis):
        if len(kept) == len(columns):
            break
        row = [image(m).get(s, 0) for s in columns]
        rank.add(row)
        if len(rank) > len(kept):
            solve.add(row + [-int(i == len(kept)) for i in range(len(columns))])
            kept.append(m)
    return columns, kept, solve


def mumford_reduce(p: MultiPoly, g: int) -> MultiPoly:
    """Normal form modulo the Mumford relations, block by block.

    The generators involve lambda only, so the ideal's degree-d slice is
    I_d = sum_k psi^k J_(d-k), one block per psi power, and canonical
    order sorts each block as it sorts the lambda parts.  Each
    (lambda-weight, psi power) block of p is written on the square-free
    basis and solved for its coefficients on the standard monomials of
    _mumford_pivots at that weight, which makes the result unique.
    Idempotent, and zero exactly on members of the ideal.
    """
    for v in p.variables():
        if v.family not in ("lambda", "psi") or v.index > g:
            raise ValueError("mumford_reduce expects a polynomial in lambda_1..lambda_g and psi")
    ring = lambda_ring(g, p.degree())
    image = _square_free(g, ring)
    psi = ring.units[PSI]
    blocks: dict[tuple[int, int], dict] = {}
    for mono, c in p.recast(ring).items():
        k = mono & ring.mask  # psi sorts after every lambda: its field is the lowest
        mono -= k * psi
        blocks.setdefault((mono >> ring.shift, k), {})[mono] = c
    out = {}
    for (weight, k), part in blocks.items():
        columns, kept, solve = _mumford_pivots(g, weight, ring)
        vec = dict.fromkeys(columns, 0)
        for m, c in part.items():
            for s, d in image(m).items():
                vec[s] += c * d
        for m, c in zip(kept, solve.reduce([*vec.values(), *[0] * len(kept)])[len(kept) :]):
            out[m + k * psi] = c
    return MultiPoly(out, ring)


# -- power sums on the smooth locus ----------------------------------------


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention) from tangent numbers,

        B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)),

    where T_1, T_2, ... = 1, 2, 16, 272, ... are the Taylor coefficients
    (2k - 1)! [x^(2k-1)] tan x.  They come from the integer recurrence of
    Brent and Harvey ("Fast computation of Bernoulli, tangent and secant
    numbers", 2013, arXiv:1108.0286), O(m^2) multiply-adds by small ints;
    only the last step divides.  B_j = 0 for odd j >= 3.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    m = n // 2
    tangent = [0, 1] + [0] * (m - 1)  # T_1..T_m at indices 1..m
    for k in range(2, m + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    four = 4**m
    return Fraction((-1) ** (m - 1) * 2 * m * tangent[m], four * (four - 1))


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
    r = (s + 1) // 2
    ring = Layout.of((kap(2 * r - 1), PSI), field_width(s))
    psi = MultiPoly.variable(PSI, ring)
    tail_poly = (psi**s).scale(_psi_tail(s, g))
    if s % 2 == 0:
        return tail_poly if paper_sign else -tail_poly
    kappa_term = MultiPoly.variable(kap(2 * r - 1), ring).scale(bernoulli(2 * r) / (2 * r))
    return kappa_term - tail_poly

