"""Weierstrass cycle classes on pointed moduli and their pushforwards.

The class of the cycle attached to a semigroup H of genus g is driven by
the partition mu of its index sequence (index-g component convention):

    [W_H] = u^|mu| * s*_mu(z_1..z_g),   z_i = (x_i + (i - g - 1) u) / u,

equivalently u^|mu| t_mu(x_1/u - 1, ..., x_g/u - 1) with u -> -psi.  That
is the plain Schubert pullback kstar_schubert(mu, g).value_lambda, the
same expression without the -1, with every Chern root twisted by
x_i -> x_i - u = x_i + psi.  Since lambda_a = (-1)^a e_a(x), the twist is
the substitution

    lambda_a -> sum_{j<=a} C(g-j, a-j) lambda_j (-psi)^(a-j),   lambda_0 = 1,

applied to the plain class.  The unit argument shift is what makes
mu = (1) reproduce the classical Weierstrass divisor class
g(g+1)/2 psi - lambda_1.  The unshifted evaluation u^|mu| t_mu(x/u) is
kept available for comparison: it is the plain pullback itself (in
s*_mu(z) with z_i = (x_i + (i - g) u) / u the shifted-Schur stagger
cancels the offset), and for mu = (1) it is g(g-1)/2 psi - lambda_1.
Pushing forward along the forgetful map sends lambda-monomial times
psi^m to the same lambda-monomial times kappa_(m-1), dropping the degree
by one.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from .errors import DataError
from .exactalg import MultiPoly, PSI, kap, lam
from .pullback import kstar_schubert
from .semigroups import (
    IndexSequence,
    NumericalSemigroup,
    Partition,
    hprime_partition,
    is_realizable,
    semigroup_from_sequence,
    sequence_from_hprime_partition,
    weierstrass_sequence,
)

__all__ = [
    "CycleClass",
    "weierstrass_class",
    "virtual_class",
    "push_to_unpointed",
    "intersection_nonempty",
    "pushforward_rule",
]


@dataclass(frozen=True)
class CycleClass:
    """Cycle class data; formulas hold up to a nonzero constant factor."""

    genus: int
    semigroup: Optional[NumericalSemigroup]
    partition: Partition
    class_pointed: MultiPoly
    class_unpointed: MultiPoly
    virtual: bool
    normalization: str = "up-to-constant"

    @property
    def codimension(self) -> int:
        return self.partition.weight

    def record(self) -> dict:
        """JSON-ready record."""
        return {
            "gaps": list(self.semigroup.gaps) if self.semigroup else None,
            "partition": list(self.partition.parts),
            "codim": self.codimension,
            "class_pointed": self.class_pointed.to_json(),
            "class_unpointed": self.class_unpointed.to_json(),
            "virtual": self.virtual,
            "normalization": self.normalization,
        }


def _twist_roots(p: MultiPoly, g: int) -> MultiPoly:
    """x_i -> x_i + psi on a class in lambda and psi."""
    minus_psi = -MultiPoly.variable(PSI)
    lams = [MultiPoly.one()] + [MultiPoly.variable(lam(j)) for j in range(1, g + 1)]
    sigma = {}
    for a in range(1, g + 1):
        image = MultiPoly.zero()
        for j in range(a + 1):
            image = image + lams[j] * (minus_psi ** (a - j)).scale(comb(g - j, a - j))
        sigma[lam(a)] = image
    return p.substitute(sigma)


def pushforward_rule(pointed: MultiPoly) -> MultiPoly:
    """lambda-monomial * psi^m  ->  lambda-monomial * kappa_(m-1).

    psi-free terms are annihilated (kappa with index -1 is zero).
    """
    out = MultiPoly.zero()
    for mono, coeff in pointed.items():
        m = 0
        rest = []
        for var, e in mono:
            if var == PSI:
                m = e
            elif var.family == "lambda":
                rest.append((var, e))
            else:
                raise ValueError("pushforward expects a polynomial in lambda and psi")
        if m == 0:
            continue
        rest.append((kap(m - 1), 1))
        out = out + MultiPoly.monomial(rest, coeff)
    return out


def weierstrass_class(semigroup: NumericalSemigroup, unshifted: bool = False) -> CycleClass:
    """Cycle class of the locus of points with the given semigroup.

    unshifted=True returns the plain Schubert pullback
    kstar_schubert(mu, g).value_lambda instead; for mu = (1) that is
    g(g-1)/2 psi - lambda_1 rather than g(g+1)/2 psi - lambda_1.
    """
    g = semigroup.genus
    if g < 1:
        raise DataError("cycle classes need genus at least 1")
    mu = hprime_partition(weierstrass_sequence(semigroup), g)
    pointed = kstar_schubert(mu, g).value_lambda
    if not unshifted:
        pointed = _twist_roots(pointed, g)
    return CycleClass(
        genus=g,
        semigroup=semigroup,
        partition=mu,
        class_pointed=pointed,
        class_unpointed=pushforward_rule(pointed),
        virtual=False,
    )


def virtual_class(mu: Partition, g: int, unshifted: bool = False) -> CycleClass:
    """Same formula driven by an arbitrary partition of length <= g.

    Flagged virtual when no semigroup sequence dominates the sequence
    attached to mu.  unshifted=True returns the plain Schubert pullback
    kstar_schubert(mu, g).value_lambda, which for mu = (1) is
    g(g-1)/2 psi - lambda_1.
    """
    if mu.length > g:
        raise DataError("partition longer than the genus")
    if g < 1:
        raise DataError("cycle classes need genus at least 1")
    seq = sequence_from_hprime_partition(mu, g)
    pointed = kstar_schubert(mu, g).value_lambda
    if not unshifted:
        pointed = _twist_roots(pointed, g)
    return CycleClass(
        genus=g,
        semigroup=None,
        partition=mu,
        class_pointed=pointed,
        class_unpointed=pushforward_rule(pointed),
        virtual=not is_realizable(seq, g),
    )


def push_to_unpointed(cycle: CycleClass, substitute_kappa0: bool = False) -> MultiPoly:
    """Unpointed class of a cycle; optionally set kappa_0 = 2g - 2."""
    out = cycle.class_unpointed
    if substitute_kappa0:
        out = out.substitute({kap(0): MultiPoly.constant(2 * cycle.genus - 2)})
    return out


def intersection_nonempty(seq: IndexSequence, g: int, closed: bool) -> bool:
    """Cell-intersection criterion for the locus of curves with disks.

    closed=False tests the open cell: the complement set must be a
    numerical semigroup of genus g.  closed=True tests the cycle closure
    via the entrywise bounds (some semigroup sequence dominates seq).
    """
    if closed:
        return is_realizable(seq, g)
    semigroup = semigroup_from_sequence(seq)
    return semigroup is not None and semigroup.genus == g
