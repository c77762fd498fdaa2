"""Relations and Hilbert-function bounds for the tautological ring.

The ambient graded algebra is A = Q[lambda_1..lambda_g, psi] with
weights i and 1.  Two ideals sandwich the (unknown) tautological ring R:

* I is generated by the Schubert pullbacks of the bound-violating
  partitions (those whose index sequence cannot be dominated by a
  semigroup sequence), giving an upper bound h_d(A/I) >= h_d(R);
* I_ev is the kernel of the evaluation at all monomial fixed points,
  lambda_i -> e_i(s_1 + 1, ..., s_g + 1) psi^i per semigroup, giving a
  lower bound h_d(A/I_ev) <= h_d(R).

Both dimension counts are exact linear algebra over Q on the monomial
basis of each degree slice; no Groebner machinery is involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DataError
from .exactalg import MultiPoly, PSI, lam, rank_over_q
from .pullback import kstar_schubert, lambda_psi_monomials
from .schur import elementary_of_values
from .semigroups import (
    NumericalSemigroup,
    Partition,
    enumerate_semigroups,
    partitions_up_to,
    weierstrass_sequence,
)

__all__ = [
    "GradedAlgebraSpec",
    "HilbertReport",
    "relation_generators",
    "hilbert_quotient_upper",
    "hilbert_quotient_lower",
    "ev_homomorphism",
    "sandwich_report",
    "violating_partitions",
]


@dataclass(frozen=True)
class GradedAlgebraSpec:
    """The free algebra Q[lambda_1..lambda_g, psi] truncated at a degree."""

    genus: int
    cutoff: int

    def monomials(self, degree: int) -> list[MultiPoly]:
        return lambda_psi_monomials(self.genus, degree)

    def dim(self, degree: int) -> int:
        return len(self.monomials(degree))


@dataclass(frozen=True)
class HilbertReport:
    """Per-degree sandwich h_d(A/I_ev) <= h_d(R) <= h_d(A/I)."""

    genus: int
    cutoff: int
    lower: tuple[int, ...]
    upper: tuple[int, ...]
    generator_counts: tuple[int, ...] = field(default=())

    def rows(self) -> list[dict]:
        return [
            {"degree": d, "lower": self.lower[d], "upper": self.upper[d]}
            for d in range(self.cutoff + 1)
        ]


def violating_partitions(g: int, max_weight: int) -> list[Partition]:
    """Partitions of length <= g whose sequence escapes every semigroup.

    In partition terms (virtual cardinality g - 1): some part satisfies
    mu_i >= g - i + 2.  Longer partitions are omitted because their
    pullback classes vanish identically.
    """
    out = []
    for mu in partitions_up_to(max_weight, max_length=g):
        if any(mu.part(i) >= g - i + 2 for i in range(1, mu.length + 1)):
            out.append(mu)
    return out


def relation_generators(g: int, max_weight: int) -> list[tuple[Partition, MultiPoly]]:
    """Bound-violating partitions with their pullback classes in lambda, psi."""
    if g < 1:
        raise DataError("relations need genus at least 1")
    if max_weight < 1:
        raise DataError("the weight cutoff must be at least 1")
    return [
        (mu, kstar_schubert(mu, g).value_lambda) for mu in violating_partitions(g, max_weight)
    ]


def _coeff_rows(
    products: list[MultiPoly], basis: list[MultiPoly]
) -> list[list[Fraction]]:
    index = {m.terms()[0][0]: i for i, m in enumerate(basis)}
    rows = []
    for p in products:
        row = [Fraction(0)] * len(basis)
        for mono, c in p.items():
            row[index[mono]] = c
        rows.append(row)
    return rows


def hilbert_quotient_upper(g: int, cutoff: int) -> list[int]:
    """dim A_d minus the rank of the degree-d slice of the relation ideal."""
    algebra = GradedAlgebraSpec(g, cutoff)
    generators = relation_generators(g, cutoff) if g >= 1 else []
    dims = []
    for d in range(cutoff + 1):
        basis = algebra.monomials(d)
        products = []
        for mu, gen in generators:
            w = mu.weight
            if w > d:
                continue
            for m in algebra.monomials(d - w):
                products.append(m * gen)
        rank = rank_over_q(_coeff_rows(products, basis)) if products else 0
        dims.append(len(basis) - rank)
    return dims


def ev_homomorphism(p: MultiPoly, semigroup: NumericalSemigroup) -> MultiPoly:
    """Evaluation at the monomial fixed point of a semigroup.

    The substitution lambda_i -> e_i(s_1 + 1, ..., s_g + 1) psi^i is a
    ring homomorphism onto Q[psi].
    """
    g = semigroup.genus
    for v in p.variables():
        if v.family not in ("lambda", "psi"):
            raise ValueError("ev expects a polynomial in lambda and psi")
    seq = weierstrass_sequence(semigroup)
    shifted = [seq.s(i) + 1 for i in range(1, g + 1)]
    psi = MultiPoly.variable(PSI)
    sigma = {}
    for i in range(1, g + 1):
        sigma[lam(i)] = (psi**i).scale(elementary_of_values(shifted, i))
    return p.substitute(sigma)


def _ev_coefficient(mono, e_values: list[Fraction]) -> Fraction:
    """Coefficient of psi^deg in the evaluation of a lambda-psi monomial."""
    out = Fraction(1)
    for var, e in mono:
        if var.family == "lambda":
            out *= e_values[var.index] ** e
    return out


def hilbert_quotient_lower(g: int, cutoff: int) -> list[int]:
    """Rank of the fixed-point evaluation on each degree slice."""
    semigroups = enumerate_semigroups(g)
    tables = []
    for semigroup in semigroups:
        seq = weierstrass_sequence(semigroup)
        shifted = [seq.s(i) + 1 for i in range(1, g + 1)]
        tables.append([Fraction(0)] + [elementary_of_values(shifted, i) for i in range(1, g + 1)])
    algebra = GradedAlgebraSpec(g, cutoff)
    dims = []
    for d in range(cutoff + 1):
        basis = algebra.monomials(d)
        matrix = []
        for e_values in tables:
            matrix.append(
                [_ev_coefficient(m.terms()[0][0], e_values) for m in basis]
            )
        dims.append(rank_over_q(matrix))
    return dims


def sandwich_report(g: int, cutoff: int) -> HilbertReport:
    """Pair the lower and upper Hilbert functions; lower <= upper must hold."""
    lower = hilbert_quotient_lower(g, cutoff)
    if g >= 1:
        upper = hilbert_quotient_upper(g, cutoff)
    else:
        upper = [GradedAlgebraSpec(g, cutoff).dim(d) for d in range(cutoff + 1)]
    for d in range(cutoff + 1):
        if lower[d] > upper[d]:
            raise AssertionError(
                f"sandwich violated at degree {d}: lower {lower[d]} > upper {upper[d]}"
            )
    weights = [mu.weight for mu in violating_partitions(g, cutoff)]
    counts = [weights.count(d) for d in range(cutoff + 1)]
    return HilbertReport(
        genus=g,
        cutoff=cutoff,
        lower=tuple(lower),
        upper=tuple(upper),
        generator_counts=tuple(counts),
    )
