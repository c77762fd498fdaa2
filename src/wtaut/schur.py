"""Factorial and shifted Schur polynomials, and the Kempf-Laksov matrices.

The factorial Schur polynomial t_mu(z_1..z_n) is the double Schur
polynomial s_mu(z | a) with a_m = m - 1, classically the ratio

    det[(z_i | a)^(mu_j + n - j)] / prod_{i<j} (z_i - z_j),

(z | a)^k = (z - a_1) ... (z - a_k).  wtaut never forms that ratio.
The Kempf-Laksov determinant of psi_matrix(mu, g), the Schubert-class
pullback, is u^|mu| t_mu(x/u) at u = -psi in the Chern roots x_1..x_g,
so at psi = -1 (u = 1) and g = n it is t_mu itself: entry (i, j) is

    sum_b (-1)^b e_b(0, 1, ..., r_i - 1) h_(k - b),
    k = mu_i + j - i,  r_i = mu_i - i + n,

a Jacobi-Trudi form of t_mu (Macdonald, "Schur functions: theme and
variations", 1992, 6th variation).  The conjugate variant has e and h
swapped, and factorial_schur expands whichever has fewer rows.  When
every argument is a number, the integers h_a(u z) and e_a(u z), with u
a common denominator of the z_i, stand in for the Segre classes, psi
is -u, and the determinant u^|mu| t_mu(z) is an integer.  Otherwise it
is taken in lambda_1..lambda_n and written in the roots z_1..z_n by
the orbit expansion of PullbackClass.value_x; arguments other than
z_i itself are then substituted, one variable at a time.
No difference of arguments is divided by, so repeated arguments need
no special case.
Shifted Schur polynomials are the staggered substitution
s*_mu(z_1..z_n) = t_mu(z_1 + n - 1, ..., z_n), which makes the
stability identity s*_mu(z, 0) = s*_mu(z) hold by construction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Sequence, Union

from .exactalg import MultiPoly, PolyMatrix, PSI, lam, zvar
from .semigroups import Partition

__all__ = [
    "factorial_schur",
    "shifted_schur",
    "psi_matrix",
    "generic_arguments",
]

Value = Union[MultiPoly, Fraction, int]


def generic_arguments(n: int) -> list[MultiPoly]:
    return [MultiPoly.variable(zvar(i)) for i in range(1, n + 1)]


def factorial_schur(mu: Partition, args: Sequence[Value]) -> MultiPoly:
    """t_mu(z_1..z_n), the Kempf-Laksov determinant of psi_matrix(mu, n) at psi = -1.

    Of the two variants, the one with fewer rows is expanded.
    """
    zs = [MultiPoly._wrap(v) for v in args]
    n = len(zs)
    if mu.length > n:
        raise ValueError("insufficient variables")
    variant = "psi" if mu.length <= mu.part(1) else "psi_prime"
    numeric = not any(z.variables() for z in zs)
    if numeric:  # u^|mu| t_mu(x/u) at the integers x = u z, u a common denominator
        values = [z.constant_term() for z in zs]
        u = math.lcm(*(v.denominator for v in values))
        xs = [int(v * u) for v in values]
        top = mu.part(1) + mu.length
        complete = complete_of_values(xs, top).__getitem__
        elementary = elementary_of_values(xs, top).__getitem__
    else:
        u, complete, elementary = 1, partial(_segre_class, n), partial(_signed_lambda, n)
    det = _matrix(mu, n, variant, lambda r, k: _entry(variant, complete, elementary, r, k, 0, -u)).det()
    if numeric:
        return det / u**mu.weight
    from .pullback import PullbackClass  # pullback builds on this module

    zvars = tuple(zvar(i) for i in range(1, n + 1))
    out = PullbackClass(genus=n, partition=mu, power=None, value_lambda=det).in_roots(zvars)
    sigma = {v: z for v, z in zip(zvars, zs) if z != MultiPoly.variable(v)}
    if any(w in sigma and w != v for v, z in sigma.items() for w in z.variables()):
        return out.substitute(sigma)  # z_i -> a polynomial in another z_j: jointly
    for v, z in sigma.items():  # one at a time: far cheaper than jointly
        out = out.substitute({v: z})
    return out


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


@lru_cache(maxsize=None)
def _segre_class(g: int, a: int) -> MultiPoly:
    """h_a(x_1..x_g) in the lambda basis, the Segre class of E*.

    Since e_i(x) = (-1)^i lambda_i, the identity sum_i (-1)^i e_i h_(a-i) = 0
    reads s_a = -sum_{i=1}^{min(a,g)} lambda_i s_(a-i), with s_0 = 1.
    """
    if a < 0:
        return MultiPoly.zero()
    if a == 0:
        return MultiPoly.one()
    out = MultiPoly.zero()
    for i in range(1, min(a, g) + 1):
        out = out - MultiPoly.variable(lam(i)) * _segre_class(g, a - i)
    return out


def _signed_lambda(g: int, a: int) -> MultiPoly:
    """e_a(x_1..x_g) = (-1)^a lambda_a in the lambda basis."""
    if a < 0 or a > g:
        return MultiPoly.zero()
    if a == 0:
        return MultiPoly.one()
    return MultiPoly.variable(lam(a)).scale((-1) ** a)


def _entry(
    variant: str,
    complete: Callable[[int], Value],
    elementary: Callable[[int], Value],
    r: int,
    k: int,
    shift: int,
    psi: Value,
) -> Value:
    """Degree-k part of (sum_a c_a) * c(interval), psi^b marking degree b.

    For "psi", c_a = complete(a) = h_a(x) and the interval list
    {shift..r-1+shift} enters with elementary coefficients when r >= 1,
    or {0..-r} with complete coefficients when it is inverted;
    "psi_prime" uses c_a = elementary(a) = e_a(x) and swaps the two
    coefficient kinds.  The inverted list is never shifted: it occurs
    only when l(mu) > g, where both conventions give zero.  psi is the
    variable psi, or the number -u.
    """
    if variant == "psi":
        series, genuine, inverted = complete, elementary_of_values, complete_of_values
    else:
        series, genuine, inverted = elementary, complete_of_values, elementary_of_values
    if k < 0:
        return 0
    coeffs = genuine(range(shift, r + shift), k) if r >= 1 else inverted(range(0, -r + 1), k)
    out: Value = 0
    for b, c in enumerate(coeffs):
        if c:
            out = out + series(k - b) * (c * psi**b)
    return out


@lru_cache(maxsize=None)
def _matrix_entry(variant: str, g: int, r: int, k: int, shift: int) -> MultiPoly:
    """The entry in lambda and psi: h_a(x) and e_a(x) in the lambda basis."""
    series = (partial(_segre_class, g), partial(_signed_lambda, g))
    return MultiPoly._wrap(_entry(variant, *series, r, k, shift, MultiPoly.variable(PSI)))


def _matrix(mu: Partition, g: int, variant: str, entry: Callable[[int, int], Value]) -> PolyMatrix:
    """The Kempf-Laksov matrix of entry(r, k) for each (i, j) of the variant.

    Variant "psi" is l(mu) x l(mu): entry (i, j) has degree
    k = mu_i + j - i and interval bound r = mu_i - i + g.  Variant
    "psi_prime" is l(mu') x l(mu'), built the same way from the
    conjugate mu' with the bound r = i - mu'_i + g.
    """
    if variant == "psi":
        parts, sign = mu, 1
    elif variant == "psi_prime":
        parts, sign = mu.conjugate(), -1
    else:
        raise ValueError("variant must be 'psi' or 'psi_prime'")
    size = parts.length
    return PolyMatrix(
        [
            [entry(g + sign * (parts.part(i) - i), parts.part(i) + j - i) for j in range(1, size + 1)]
            for i in range(1, size + 1)
        ]
    )


def psi_matrix(mu: Partition, g: int, variant: str = "psi", shift: int = 0) -> PolyMatrix:
    """Kempf-Laksov matrix whose determinant is the Schubert-class pullback.

    Entries are polynomials in lambda_1..lambda_g and psi, shaped as in
    _matrix: Segre (complete-homogeneous) entries for variant "psi",
    elementary entries for "psi_prime".  Both determinants equal
    kstar_schubert(mu, g) at shift = 0, that is u^|mu| t_mu(x/u) with
    u -> -psi.  shift = 1 raises every interval value by one, which
    gives u^|mu| t_mu(x/u - 1), the Weierstrass class (see wcycles).
    """
    return _matrix(mu, g, variant, lambda r, k: _matrix_entry(variant, g, r, k, shift))
