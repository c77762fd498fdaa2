"""Relations and Hilbert-function bounds for the tautological ring.

The ambient graded algebra is A = Q[lambda_1..lambda_g, psi] with
weights i and 1.  Two ideals sandwich the (unknown) tautological ring R:

* I is generated by the Schubert pullbacks of the bound-violating
  partitions (those whose index sequence cannot be dominated by a
  semigroup sequence), giving an upper bound h_d(A/I) >= h_d(R);
* I_ev is the kernel of the evaluation at all monomial fixed points,
  lambda_i -> e_i(a_1, ..., a_g) psi^i for the gaps a_1 < ... < a_g of
  each semigroup, giving a lower bound h_d(A/I_ev) <= h_d(R).

The upper bound has a closed form, a count of partitions inside the
staircase (see `hilbert_quotient_upper`).  The lower bound is the rank
of the evaluation, exact integer linear algebra: each lambda-monomial
is a row of its values at the fixed points, and one Echelon grows by
these rows in degree order, skipping the multiples of monomials already
found dependent (see `hilbert_quotient_lower`); no Groebner basis is
computed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DataError
from .exactalg import Echelon, MultiPoly
from .pullback import kstar_schubert, lambda_monomials
from .schur import elementary_of_values, lambda_ring
from .semigroups import Partition, enumerate_semigroups, in_staircase, partitions_up_to

__all__ = [
    "HilbertReport",
    "relation_generators",
    "hilbert_quotient_upper",
    "hilbert_quotient_lower",
    "sandwich_report",
    "violating_partitions",
]


class HilbertReport(NamedTuple):
    """Per-degree sandwich h_d(A/I_ev) <= h_d(R) <= h_d(A/I) for d = 0..cutoff.

    lower[d] and upper[d] are the two bounds in degree d, and
    generator_counts[d] is the number of relation generators of weight d.
    The CLI writes the hilbert rows from these; the genus and the cutoff
    are the caller's.
    """

    lower: tuple[int, ...]
    upper: tuple[int, ...]
    generator_counts: tuple[int, ...]


def violating_partitions(g: int, max_weight: int) -> list[Partition]:
    """Partitions of length <= g whose sequence escapes every semigroup.

    In partition terms (virtual cardinality g - 1): some part satisfies
    mu_i >= g - i + 2, i.e. mu does not fit in the staircase.  Longer
    partitions are omitted because their pullback classes vanish
    identically.
    """
    return [mu for mu in partitions_up_to(max_weight, max_length=g) if not in_staircase(mu, g)]


def relation_generators(g: int, max_weight: int) -> list[tuple[Partition, MultiPoly]]:
    """Bound-violating partitions with their pullback classes in lambda, psi."""
    if g < 1:
        raise DataError("relations need genus at least 1")
    if max_weight < 1:
        raise DataError("the weight cutoff must be at least 1")
    return [(mu, kstar_schubert(mu, g)) for mu in violating_partitions(g, max_weight)]


def hilbert_quotient_upper(g: int, cutoff: int) -> list[int]:
    """h_d(A/I) = #{mu in delta_g : |mu| <= d} for d = 0..cutoff.

    With u -> -psi each generator of I is the equivariant Schubert class
    s_mu(x|a) of a violating partition.  The factorial Schur classes
    s_mu(x|a) with l(mu) <= g form a Q[psi]-basis of A, and a product
    s_mu s_nu expands only in classes s_rho with rho containing both
    mu and nu (Molev-Sagan, Trans. AMS 351, 1999; Knutson-Tao, Duke
    119, 2003).  The violating partitions are exactly those outside the
    staircase delta_g = (g, g-1, ..., 1), a set closed under growing
    the diagram, so I is the free Q[psi]-span of the violating classes
    and A/I is free over Q[psi] on {s_mu : mu in delta_g}.  Its degree-d
    slice has the basis psi^(d - |mu|) s_mu with |mu| <= d.  The count
    levels off at the Catalan number C_(g+1) once d >= g(g+1)/2; for
    g = 0 it is 1 in every degree, the dimension of A_d = Q psi^d.
    """
    weights = [mu.weight for mu in partitions_up_to(cutoff, max_length=g) if in_staircase(mu, g)]
    return [sum(1 for w in weights if w <= d) for d in range(cutoff + 1)]


def hilbert_quotient_lower(g: int, cutoff: int) -> list[int]:
    """Rank of the fixed-point evaluation on each degree slice.

    At the monomial fixed point of a semigroup with gaps a_1 < ... < a_g,
    lambda_i evaluates to e_i(a_1, ..., a_g) psi^i, so a monomial
    lambda^m psi^(d - |m|) evaluates to prod_i e_i^(m_i) psi^d at every
    fixed point, and psi changes no coefficient: h_d is
    the rank of the evaluation on the lambda-monomials of weight <= d.
    Row rank equals column rank, so each lambda-monomial is one integer
    row of its values at the N_g fixed points, the rows are added to one
    Echelon, and h_d is its size after degree d.  The rank cannot exceed
    N_g, so rows stop once it is reached; distinct semigroups give
    distinct fixed points, so it is reached in high enough degree.

    The rows are the Hilbert function of a finite set of points, so the
    Buchberger-Moeller argument applies (Abbott, Bigatti, Kreuzer and
    Robbiano, J. Symbolic Comput. 30, 2000).  The monomials are added in
    increasing order of a term order, weighted degree and then lex (the
    reverse of canonical order).  A monomial that leaves the rank
    unchanged is a leading term of the vanishing ideal, and so is every
    multiple of it: such a multiple is, on the points, a combination of
    smaller monomials, all in the span already.  So it gets no row.
    """
    tables = [elementary_of_values(h.gaps, g) for h in enumerate_semigroups(g)]
    ring = lambda_ring(g, cutoff)
    echelon = Echelon()
    dependent: list[int] = []
    dims = []
    for d in range(cutoff + 1):
        for mono in reversed(lambda_monomials(g, d, ring)):
            if len(echelon) == len(tables):
                break
            if any(ring.divides(leading, mono) for leading in dependent):
                continue
            rank = len(echelon)
            pairs = ring.unpack(mono)
            echelon.add([math.prod(e_values[v.index] ** e for v, e in pairs) for e_values in tables])
            if len(echelon) == rank:
                dependent.append(mono)
        dims.append(len(echelon))
    return dims


def sandwich_report(g: int, cutoff: int) -> HilbertReport:
    """Pair the lower and upper Hilbert functions; lower <= upper must hold."""
    lower = hilbert_quotient_lower(g, cutoff)
    upper = hilbert_quotient_upper(g, cutoff)
    for d in range(cutoff + 1):
        if lower[d] > upper[d]:
            raise DataError(
                f"sandwich violated at degree {d}: lower {lower[d]} > upper {upper[d]}"
            )
    weights = [mu.weight for mu in violating_partitions(g, cutoff)]
    counts = [weights.count(d) for d in range(cutoff + 1)]
    return HilbertReport(tuple(lower), tuple(upper), tuple(counts))
