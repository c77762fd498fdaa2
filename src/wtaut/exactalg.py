"""Exact sparse multivariate polynomial arithmetic over Q.

Everything downstream (Schur evaluations, pullback classes, cycle
classes, Hilbert tables) reduces to arithmetic in the graded ring

    Q[lambda_1..lambda_g, psi, kappa_j, x_i, u, z_i]

with weights  lambda_i -> i,  kappa_j -> j,  and 1 for all the weight-one
families (psi, u, x, z).  Coefficients are exact: ints, and Fractions
only where a division makes them; there is no floating-point mode.
Variables are plain tuples and monomials tuples of (variable, exponent)
pairs, kept in a canonical graded-lex order (family precedence
lambda < psi < kappa < x < u < z, then index) so printed polynomials
and JSON payloads are byte-stable across runs.  Determinants are one
function, det; linear algebra over the integers is one kernel, Echelon.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

__all__ = [
    "Variable",
    "MultiPoly",
    "det",
    "lam",
    "kap",
    "xvar",
    "zvar",
    "PSI",
    "U",
    "Echelon",
]

_FAMILIES = ("lambda", "psi", "kappa", "x", "u", "z")
_RANK = {fam: r for r, fam in enumerate(_FAMILIES)}
_UNINDEXED = frozenset(("psi", "u"))

Scalar = Union[int, Fraction]


class Variable(namedtuple("Variable", "rank index weight name")):
    """One symbol from the fixed alphabet, e.g. lambda_3, psi, or x_2.

    A variable is the plain tuple (rank, index, weight, name), where rank
    is the place of its family in lambda < psi < kappa < x < u < z.  So
    tuple order is canonical order, and tuple equality and hashing are
    those of the symbol.  The weight (graded degree) is the index for
    lambda_i and kappa_j and one for every other family.  psi and u are
    distinct symbols; they are only related through the explicit
    substitution u -> -psi performed by callers.
    """

    __slots__ = ()

    def __new__(cls, family: str, index: int = 0) -> "Variable":
        if family not in _RANK:
            raise ValueError(f"unknown variable family {family!r}")
        if family in _UNINDEXED:
            if index != 0:
                raise ValueError(f"{family} takes no index")
        elif family == "kappa":
            if index < 0:
                raise ValueError("kappa index must be >= 0")
        elif index < 1:
            raise ValueError(f"{family} index must be >= 1")
        weight = index if family in ("lambda", "kappa") else 1
        name = family if family in _UNINDEXED else f"{family}{index}"
        return super().__new__(cls, _RANK[family], index, weight, name)

    def __getnewargs__(self) -> tuple[str, int]:
        return self.family, self.index

    @property
    def family(self) -> str:
        return _FAMILIES[self.rank]

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


def lam(i: int) -> Variable:
    return Variable("lambda", i)


def kap(j: int) -> Variable:
    return Variable("kappa", j)


def xvar(i: int) -> Variable:
    return Variable("x", i)


def zvar(i: int) -> Variable:
    return Variable("z", i)


PSI = Variable("psi")
U = Variable("u")


# A monomial is a tuple of (Variable, exponent) pairs with positive
# exponents, sorted by variable (canonical order).  The empty tuple is 1.
Monomial = tuple[tuple[Variable, int], ...]


def _mono_weight(mono: Monomial) -> int:
    return sum(v.weight * e for v, e in mono)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = []
    ia = ib = 0
    while ia < len(a) and ib < len(b):
        (va, ea), (vb, eb) = a[ia], b[ib]
        if va == vb:
            out.append((va, ea + eb))
            ia += 1
            ib += 1
        elif va < vb:
            out.append(a[ia])
            ia += 1
        else:
            out.append(b[ib])
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


# Sentinel pair after every (variable, -exponent) pair, its "variable"
# ranking past every family; it makes a monomial that is a strict prefix
# of another (possible only through weight-zero kappa_0) compare as the
# larger one, matching sparse-lex semantics.
_END = ((1 << 30,), 0)


def mono_sort_key(mono: Monomial):
    """Canonical graded-lex order: ascending key = display order.

    The leading (largest) monomial has the smallest key: degree is
    negated and exponents enter negated, so tuple comparison walks the
    variables in canonical order and prefers larger exponents.
    """
    return -_mono_weight(mono), tuple([(v, -e) for v, e in mono]) + (_END,)


def _coerce_coeff(value) -> Scalar:
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, float):
        raise TypeError("floating-point coefficients are not allowed")
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


class MultiPoly:
    """Immutable sparse polynomial: map from monomial to nonzero coefficient.

    Coefficients are kept as given, int or Fraction, so integer
    arithmetic stays on ints until a division makes a Fraction.  The
    canonically sorted term list is built on first use and kept, so
    rendering a polynomial several ways sorts it once.
    """

    __slots__ = ("_terms", "_sorted")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        self._terms = {mono: coeff for mono, coeff in terms.items() if coeff} if terms else {}
        self._sorted = None

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls({(): 1})

    @classmethod
    def constant(cls, value: Scalar) -> "MultiPoly":
        return cls({(): _coerce_coeff(value)})

    @classmethod
    def variable(cls, var: Variable) -> "MultiPoly":
        return cls({((var, 1),): 1})

    @staticmethod
    def sum(values: Iterable["MultiPoly | Scalar"]) -> "MultiPoly":
        """The sum of the values, accumulated in one dict.

        Adding them one by one copies the growing partial sum at every
        step; for k values of comparable size that costs about k/2 times
        as much.
        """
        acc: dict[Monomial, Scalar] = {}
        for value in values:
            for mono, coeff in MultiPoly._wrap(value)._terms.items():
                acc[mono] = acc.get(mono, 0) + coeff
        return MultiPoly(acc)

    @staticmethod
    def _wrap(value: "MultiPoly | Scalar") -> "MultiPoly":
        if isinstance(value, MultiPoly):
            return value
        return MultiPoly.constant(value)

    # -- basic protocol ----------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._terms == other._terms

    def _sorted_terms(self) -> tuple[tuple[Monomial, Scalar], ...]:
        """Terms in canonical display order, leading term first."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self._terms.items(), key=lambda term: mono_sort_key(term[0])))
        return self._sorted

    def items(self):
        """Raw (monomial, coefficient) pairs in arbitrary order."""
        return self._terms.items()

    def constant_term(self) -> Scalar:
        return self._terms.get((), 0)

    def variables(self) -> set[Variable]:
        out: set[Variable] = set()
        for mono in self._terms:
            out.update(v for v, _ in mono)
        return out

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = MultiPoly._wrap(other)
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = out.get(mono, 0) + coeff
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        return MultiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-MultiPoly._wrap(other))

    def __rsub__(self, other):
        return MultiPoly._wrap(other) + (-self)

    def __mul__(self, other):
        other = MultiPoly._wrap(other)
        if not self._terms or not other._terms:
            return MultiPoly.zero()
        # iterate over the smaller factor
        if len(self._terms) > len(other._terms):
            self, other = other, self
        out: dict[Monomial, Scalar] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                mono = _mono_mul(ma, mb)
                acc = out.get(mono, 0) + ca * cb
                if acc:
                    out[mono] = acc
                else:
                    out.pop(mono, None)
        return MultiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("polynomial power must be an integer")
        if exponent < 0:
            raise ValueError("non-polynomial operation")
        result = MultiPoly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def scale(self, value: Scalar) -> "MultiPoly":
        c = _coerce_coeff(value)
        if not c:
            return MultiPoly.zero()
        return MultiPoly({m: co * c for m, co in self._terms.items()})

    def __truediv__(self, other: Scalar):
        c = _coerce_coeff(other)
        if not c:
            raise ZeroDivisionError("division by zero")
        return self.scale(Fraction(1) / c)

    # -- structure ----------------------------------------------------

    def substitute(self, sigma: Mapping[Variable, "MultiPoly | Scalar"]) -> "MultiPoly":
        """Apply the ring homomorphism sending each variable to its image.

        Variables absent from sigma map to themselves.
        """
        images = {v: MultiPoly._wrap(p) for v, p in sigma.items()}
        power_cache: dict[tuple[Variable, int], MultiPoly] = {}
        acc: dict[Monomial, Scalar] = {}
        for mono, coeff in self._terms.items():
            image: MultiPoly | None = None
            plain: list[tuple[Variable, int]] = []
            for var, exp in mono:
                if var in images:
                    key = (var, exp)
                    if key not in power_cache:
                        power_cache[key] = images[var] ** exp
                    factor = power_cache[key]
                    image = factor if image is None else image * factor
                else:
                    plain.append((var, exp))
            plain_mono = tuple(plain)
            if image is None:
                val = acc.get(plain_mono, 0) + coeff
                if val:
                    acc[plain_mono] = val
                else:
                    acc.pop(plain_mono, None)
                continue
            for m2, c2 in image._terms.items():
                target = _mono_mul(plain_mono, m2)
                val = acc.get(target, 0) + coeff * c2
                if val:
                    acc[target] = val
                else:
                    acc.pop(target, None)
        return MultiPoly(acc)

    # -- serialization -------------------------------------------------

    def rendered_terms(self) -> Iterator[tuple[str, list[tuple[str, int]], str]]:
        """Each term, leading first, in the three forms the output needs.

        They are the coefficient's text, the (name, exponent) pairs in
        string order of the names (lambda10 before lambda2), and the
        term's piece of canonical_str with its sign in front, as in
        " + 3*psi" or " - lambda1".
        """
        for mono, coeff in self._sorted_terms():
            coeff_text = str(coeff)
            pairs = [(v.name, e) for v, e in mono]
            body = "*".join([f"{name}^{e}" if e > 1 else name for name, e in pairs])
            sign, mag = (" - ", coeff_text[1:]) if coeff_text[0] == "-" else (" + ", coeff_text)
            if body:
                mag = body if mag == "1" else f"{mag}*{body}"
            pairs.sort()
            yield coeff_text, pairs, sign + mag

    @staticmethod
    def joined_text(pieces: Iterable[str]) -> str:
        """canonical_str from the pieces rendered_terms yields, in order."""
        text = "".join(pieces)
        if not text:
            return "0"
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def canonical_str(self) -> str:
        return MultiPoly.joined_text(piece for _, _, piece in self.rendered_terms())

    def latex(self) -> str:
        if not self._terms:
            return "0"

        def sym(v: Variable) -> str:
            if v.family in _UNINDEXED:
                return "\\" + v.family if v.family == "psi" else "u"
            if v.family in ("lambda", "kappa"):
                return f"\\{v.family}_{{{v.index}}}"
            return f"{v.family}_{{{v.index}}}"

        pieces = []
        for mono, coeff in self._sorted_terms():
            body = "".join(f"{sym(v)}^{{{e}}}" if e > 1 else sym(v) for v, e in mono)
            mag = abs(coeff)
            if mag.denominator == 1:
                magtex = str(mag)
            else:
                magtex = f"\\tfrac{{{mag.numerator}}}{{{mag.denominator}}}"
            if not body:
                text = magtex
            elif mag == 1:
                text = body
            else:
                text = f"{magtex}{body}"
            if not pieces:
                pieces.append(text if coeff > 0 else f"-{text}")
            else:
                pieces.append(f" + {text}" if coeff > 0 else f" - {text}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self.canonical_str()})"


def det(rows: Sequence[Sequence[MultiPoly | Scalar]]) -> MultiPoly:
    """Exact determinant of a square matrix by Laplace expansion with
    memoised minors.

    The entries are MultiPoly or plain numbers; a matrix of numbers is
    expanded in their own arithmetic.  Row i is expanded against the
    minors of rows i+1..n-1, each keyed by its set of columns, so every
    distinct minor is computed once; zero entries and zero minors are
    skipped.  The minors are built from the bottom row up because the
    bottom rows of a Kempf-Laksov matrix hold its lowest-degree entries:
    the largest products are first-row entries times (n-1)-minors,
    exactly those of cofactor expansion along the first row.  Built from
    the top down instead, the expansion multiplies large partial
    expansions of the upper rows, which is 2 to 6 times slower on these
    matrices.  All C(n, k) minors of k rows may be kept, so the cost
    grows like 2^n.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    minors: dict[int, MultiPoly | Scalar] = {0: 1}
    for row in reversed(rows):
        larger: dict[int, MultiPoly | Scalar] = {}
        for cols, minor in minors.items():
            for j, entry in enumerate(row):
                bit = 1 << j
                if cols & bit or not entry:
                    continue
                piece = entry * minor
                if (cols & (bit - 1)).bit_count() & 1:
                    piece = -piece
                key = cols | bit
                larger[key] = larger[key] + piece if key in larger else piece
        minors = {cols: minor for cols, minor in larger.items() if minor}
    return MultiPoly._wrap(minors.get((1 << n) - 1, 0))


class Echelon:
    """Row-echelon basis of the span of integer rows, grown one row at a time.

    rows maps each pivot column to a primitive integer row whose first
    nonzero entry sits in that column and is positive; len() is the
    rank.  Elimination is fraction-free (Bareiss, Math. Comp. 1968): an
    added row becomes b*row - a*prow against the pivot row with the same
    leading column (a, b the two leads over their gcd), until it
    vanishes or leads at a new pivot column, where it is stored divided
    by its content.  The set of pivot columns depends only on the span.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Sequence[int]] = ()):
        self.rows: dict[int, list[int]] = {}
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self.rows)

    def add(self, row: Sequence[int]) -> None:
        row = list(row)
        lead = next((j for j, v in enumerate(row) if v), None)
        while lead in self.rows:
            prow = self.rows[lead]
            common = math.gcd(row[lead], prow[lead])
            a, b = row[lead] // common, prow[lead] // common
            row[lead:] = [b * v - a * w for v, w in zip(row[lead:], prow[lead:])]
            lead = next((j for j in range(lead + 1, len(row)) if row[j]), None)
        if lead is None:
            return
        content = math.gcd(*row)
        if row[lead] < 0:
            content = -content
        self.rows[lead] = [v // content for v in row]

    def reduce(self, vec: Sequence[Scalar]) -> list[Scalar]:
        """vec minus the multiples of the rows that clear every pivot column.

        Clearing in increasing pivot order makes the result depend only
        on vec and the span: it is zero exactly on members of the span,
        and reducing it again changes nothing.
        """
        vec = list(vec)
        for col in sorted(self.rows):
            if vec[col]:
                prow = self.rows[col]
                factor = Fraction(vec[col], prow[col])
                vec[col:] = [v - factor * w if w else v for v, w in zip(vec[col:], prow[col:])]
        return vec
