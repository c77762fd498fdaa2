"""Factorial, shifted, and double Schur polynomials, plus the matrix forms.

The double Schur polynomial of a partition mu in n arguments over a
parameter sequence a is the ratio of determinants

    s_mu(z_1..z_n | a) = det[(z_i | a)^(mu_j + n - j)] / det[(z_i | a)^(n - j)]

where (z | a)^k = (z - a_1) ... (z - a_k) is the generalized power.  The
denominator equals the Vandermonde product of the arguments, so the
numerator (PolyMatrix.det) is divided exactly by the factors
z_i - z_j one at a time; numeric and symbolic arguments take the same
route.  The factorial Schur polynomial t_mu is the specialization
a_m = m - 1, where (z | a)^k is the falling factorial z (z-1) ... (z-k+1).
Shifted Schur polynomials are the staggered substitution
s*_mu(z_1..z_n) = t_mu(z_1 + n - 1, ..., z_n), which makes the
stability identity s*_mu(z, 0) = s*_mu(z) hold by construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence, Union

from .exactalg import (
    MultiPoly,
    PolyMatrix,
    PSI,
    U,
    div_monic_linear,
    exact_div,
    lam,
    zvar,
)
from .semigroups import Partition

__all__ = [
    "ParamSequence",
    "falling_factorial",
    "generalized_power",
    "factorial_schur",
    "shifted_schur",
    "double_schur",
    "psi_matrix",
    "generic_arguments",
]

Value = Union[MultiPoly, Fraction, int]


class ParamSequence:
    """Parameter sequence a_1, a_2, ... fed to generalized powers.

    Either an explicit list of values, or a rule j -> affine expression;
    the factorial specialization is a_j = j - 1.
    """

    __slots__ = ("rule", "label")

    def __init__(self, rule: Callable[[int], "MultiPoly | Fraction | int"], label: str = "custom"):
        self.rule = rule
        self.label = label

    def __call__(self, j: int) -> MultiPoly:
        if j < 1:
            raise IndexError("parameter indices are 1-based")
        return MultiPoly._wrap(self.rule(j))

    def __repr__(self) -> str:
        return f"ParamSequence({self.label})"

    @classmethod
    def zeros(cls) -> "ParamSequence":
        return cls(rule=lambda j: MultiPoly.zero(), label="zero")

    @classmethod
    def factorial(cls) -> "ParamSequence":
        return cls(rule=lambda j: MultiPoly.constant(j - 1), label="factorial")

    @classmethod
    def explicit(cls, values: Sequence[Value]) -> "ParamSequence":
        frozen = tuple(MultiPoly._wrap(v) for v in values)

        def rule(j: int, _vals=frozen) -> MultiPoly:
            if j > len(_vals):
                raise IndexError(f"parameter sequence has only {len(_vals)} entries")
            return _vals[j - 1]

        return cls(rule=rule, label="explicit")

    @classmethod
    def affine_u(cls, slope: int, shift: int) -> "ParamSequence":
        """a_j = (slope * j + shift) u, the translated equivariant sequence."""
        u = MultiPoly.variable(U)

        def rule(j: int) -> MultiPoly:
            return u.scale(slope * j + shift)

        return cls(rule=rule, label=f"({slope}j{shift:+d})u")


def falling_factorial(z: Value, i: int) -> MultiPoly:
    """z (z - 1) ... (z - i + 1); equals 1 when i = 0."""
    return generalized_power(z, i, ParamSequence.factorial())


def generalized_power(z: Value, k: int, a: ParamSequence) -> MultiPoly:
    """Product of k linear factors (z - a_1) ... (z - a_k).

    The factorial parameters a_m = m - 1 recover the falling factorial.
    """
    if k < 0:
        raise ValueError("generalized power must be non-negative")
    z = MultiPoly._wrap(z)
    out = MultiPoly.one()
    for m in range(1, k + 1):
        out = out * (z - a(m))
    return out


def generic_arguments(n: int) -> list[MultiPoly]:
    return [MultiPoly.variable(zvar(i)) for i in range(1, n + 1)]


def _divide_by_vandermonde(num: MultiPoly, args: Sequence[MultiPoly]) -> MultiPoly:
    """Divide by prod_{i<j} (z_i - z_j), factor by factor."""
    out = num
    n = len(args)
    for i in range(n):
        for j in range(i + 1, n):
            diff = args[i] - args[j]
            if diff.is_zero():
                raise ValueError("repeated Schur arguments")
            if not diff.variables():
                out = out / diff.constant_term()
                continue
            extracted = _extract_monic_linear(diff)
            if extracted is not None:
                va, rest = extracted
                out = div_monic_linear(out, va, rest)
            else:
                out = exact_div(out, diff)
    return out


def _extract_monic_linear(diff: MultiPoly):
    """Write diff as va - rest with rest free of va, if possible."""
    terms = list(diff.items())
    for mono, coeff in terms:
        if coeff != 1 or len(mono) != 1 or mono[0][1] != 1:
            continue
        va = mono[0][0]
        clean = all(
            all(var != va for var, _ in other)
            for other, _ in terms
            if other != mono
        )
        if clean:
            return va, MultiPoly.variable(va) - diff
    return None


def factorial_schur(mu: Partition, args: Sequence[Value]) -> MultiPoly:
    """t_mu(z_1..z_n): the double Schur polynomial with a_m = m - 1."""
    return double_schur(mu, args, ParamSequence.factorial())


def shifted_schur(mu: Partition, args: Sequence[Value]) -> MultiPoly:
    """s*_mu(z_1..z_n) = t_mu(z_1 + n - 1, ..., z_n); zero when l(mu) > n."""
    zs = [MultiPoly._wrap(a) for a in args]
    n = len(zs)
    if mu.length > n:
        return MultiPoly.zero()
    staggered = [z + (n - i) for i, z in enumerate(zs, start=1)]
    return factorial_schur(mu, staggered)


def double_schur(mu: Partition, args: Sequence[Value], a: ParamSequence) -> MultiPoly:
    """det[(x_i | a)^(mu_j + n - j)] divided exactly by the Vandermonde of x.

    The one determinant-ratio route: factorial_schur is a_m = m - 1, and
    a identically zero gives the classical Schur polynomial.
    """
    xs = [MultiPoly._wrap(v) for v in args]
    n = len(xs)
    if mu.length > n:
        raise ValueError("insufficient variables")
    exponents = [mu.part(j) + n - j for j in range(1, n + 1)]
    rows = [[generalized_power(x, e, a) for e in exponents] for x in xs]
    return _divide_by_vandermonde(PolyMatrix(rows).det(), xs)


def elementary_of_values(values: Sequence[int], b: int) -> Fraction:
    if b < 0:
        return Fraction(0)
    acc = [Fraction(0)] * (b + 1)
    acc[0] = Fraction(1)
    for t in values:
        for k in range(min(b, len(acc) - 1), 0, -1):
            acc[k] += t * acc[k - 1]
    return acc[b]


def complete_of_values(values: Sequence[int], b: int) -> Fraction:
    if b < 0:
        return Fraction(0)
    acc = [Fraction(0)] * (b + 1)
    acc[0] = Fraction(1)
    for t in values:
        for k in range(1, b + 1):
            acc[k] += t * acc[k - 1]
    return acc[b]


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


@lru_cache(maxsize=None)
def _matrix_entry(variant: str, g: int, r: int, k: int, shift: int) -> MultiPoly:
    """Degree-k part of (sum_a c_a(x)) * c(interval) in lambda and psi.

    For "psi", c_a(x) = h_a(x) and the interval list {shift..r-1+shift}
    enters with elementary coefficients when r >= 1, or {0..-r} with
    complete coefficients when it is inverted; "psi_prime" uses
    c_a(x) = e_a(x) and swaps the two coefficient kinds.  The inverted
    list is never shifted: it occurs only when l(mu) > g, where both
    conventions give zero.
    """
    if k < 0:
        return MultiPoly.zero()
    if variant == "psi":
        series, genuine, inverted = _segre_class, elementary_of_values, complete_of_values
    else:
        series, genuine, inverted = _signed_lambda, complete_of_values, elementary_of_values
    psi = MultiPoly.variable(PSI)
    out = MultiPoly.zero()
    for b in range(0, k + 1):
        coeff = genuine(range(shift, r + shift), b) if r >= 1 else inverted(range(0, -r + 1), b)
        if coeff:
            out = out + series(g, k - b).scale(coeff) * psi**b
    return out


def psi_matrix(mu: Partition, g: int, variant: str = "psi", shift: int = 0) -> PolyMatrix:
    """Kempf-Laksov matrix whose determinant is the Schubert-class pullback.

    Entries are polynomials in lambda_1..lambda_g and psi.  Variant "psi"
    is l(mu) x l(mu): entry (i, j) has degree k = mu_i + j - i and
    interval bound r = mu_i - i + g, with Segre (complete-homogeneous)
    entries.  Variant "psi_prime" is l(mu') x l(mu') with elementary
    entries, built the same way from the conjugate mu' with the bound
    r = i - mu'_i + g.  Both determinants equal kstar_schubert(mu, g)
    at shift = 0, that is u^|mu| t_mu(x/u) with u -> -psi.  shift = 1
    raises every interval value by one, which gives u^|mu| t_mu(x/u - 1),
    the Weierstrass class (see wcycles).
    """
    if variant == "psi":
        parts, sign = mu, 1
    elif variant == "psi_prime":
        parts, sign = mu.conjugate(), -1
    else:
        raise ValueError("variant must be 'psi' or 'psi_prime'")
    size = parts.length
    if size == 0:
        return PolyMatrix([])
    return PolyMatrix(
        [
            [
                _matrix_entry(
                    variant, g, g + sign * (parts.part(i) - i), parts.part(i) + j - i, shift
                )
                for j in range(1, size + 1)
            ]
            for i in range(1, size + 1)
        ]
    )
