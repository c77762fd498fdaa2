"""Weierstrass cycle classes on pointed moduli and their pushforwards.

The class of the cycle attached to a semigroup H of genus g with gaps
a_1 < ... < a_g is driven by its partition mu = (a_g - g, ..., a_1 - 1),
zeros dropped (NumericalSemigroup.partition):

    [W_H] = u^|mu| * s*_mu(z_1..z_g),   z_i = (x_i + (i - g - 1) u) / u,

equivalently u^|mu| t_mu(y_1 - 1, ..., y_g - 1) with y = x/u and
u -> -psi.  Here t_mu(y) = s_mu(y | a) is the factorial Schur polynomial
with a_m = m - 1, built from the generalized powers
(y | a)^k = y (y - 1) ... (y - k + 1).  Translating every argument by -1
turns these into (y - 1)(y - 2) ... (y - k) = (y | a')^k with a'_m = m,
and the Vandermonde in the denominator does not change under
translation, so t_mu(y - 1) = s_mu(y | a'_m = m) (Macdonald, "Schur
functions: theme and variations", 1992, 6th variation).  In the
Kempf-Laksov determinant of the plain Schubert pullback the sequence a
enters only through the interval {0..r-1} of each row, of bound r.
Raising every value by one gives {1..r}, whose elementary and complete
symmetric functions are those of {0..r}, since a value 0 adds nothing to
either: so the Weierstrass class is the same determinant with every
interval bound raised by one, psi_matrix(mu, g, shift=1).  The unit
shift is what makes mu = (1) reproduce the classical Weierstrass
divisor class g(g+1)/2 psi - lambda_1.  The unshifted evaluation
u^|mu| t_mu(x/u) is kept available for comparison: it is the plain
pullback kstar_schubert(mu, g) (in s*_mu(z) with
z_i = (x_i + (i - g) u) / u the shifted-Schur stagger cancels the
offset), and for mu = (1) it is g(g-1)/2 psi - lambda_1.
Pushing forward along the forgetful map sends lambda-monomial times
psi^m to the same lambda-monomial times kappa_(m-1), dropping the degree
by one.

Every class here holds up to a nonzero constant factor.  Both functions
return polynomials: weierstrass_class the pointed class, pushforward_rule
its pushforward.  The CLI writes the record of a class: its gaps, its
codim |mu|, its normalization, the kappa_0 substitution and the virtual
flag.
"""
from __future__ import annotations

from .errors import DataError
from .exactalg import Layout, MultiPoly, PSI, det, kap
from .schur import psi_matrix
from .semigroups import Partition

__all__ = ["weierstrass_class", "pushforward_rule"]


def pushforward_rule(pointed: MultiPoly) -> MultiPoly:
    """lambda-monomial * psi^m  ->  lambda-monomial * kappa_(m-1).

    psi-free terms are annihilated (kappa with index -1 is zero).  The
    result's layout is the pointed one with psi and kappa_0..kappa_(d-1)
    added, d the degree, which bounds every psi power.  There a term with
    psi^m moves by adding the unit of kappa_(m-1) and taking off m units
    of psi, which lowers the weighted degree by m - (m - 1) = 1.  No two
    terms land together: the lambda part and m are kept.
    """
    if any(v.family not in ("lambda", "psi") for v in pointed.variables()):
        raise ValueError("pushforward expects a polynomial in lambda and psi")
    src, top = pointed.layout, pointed.degree()
    ring = Layout.of([*src.variables, PSI, *map(kap, range(top))], src.width)
    off, mask, psi = ring.offsets[PSI], ring.mask, ring.units[PSI]
    moves = [0, *(ring.units[kap(m - 1)] - m * psi for m in range(1, top + 1))]
    out = {}
    for mono, coeff in pointed.recast(ring).items():
        m = mono >> off & mask
        if m:
            out[mono + moves[m]] = coeff
    return MultiPoly(out, ring)


def weierstrass_class(mu: Partition, g: int, unshifted: bool = False) -> MultiPoly:
    """Pointed cycle class of genus g driven by the partition mu, of length <= g.

    For a semigroup H, mu = H.partition, (a_g - g, ..., a_1 - 1) with
    zeros dropped, gives the class of the locus of points with
    semigroup H.  Its parts obey a_j - j <= j - 1, since each of the
    a_j - j non-gaps x below a_j gives a gap a_j - x below it, so mu
    fits in the staircase delta_(g-1).  Any other mu gives the class of
    the same formula, virtual when no semigroup sequence dominates the
    sequence attached to mu, s_i = mu_i + g - i for i <= g with
    d = g - 1: its bound s_i <= 2g - 2i is mu_i <= g - i, so that is
    exactly when mu does not fit in delta_(g-1).  unshifted=True returns
    the plain Schubert pullback kstar_schubert(mu, g) instead; for
    mu = (1) that is g(g-1)/2 psi - lambda_1 rather than
    g(g+1)/2 psi - lambda_1.
    """
    if mu.length > g:
        raise DataError("partition longer than the genus")
    if g < 1:
        raise DataError("cycle classes need genus at least 1")
    return det(psi_matrix(mu, g, shift=0 if unshifted else 1))
