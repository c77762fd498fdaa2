"""Exact sparse multivariate polynomial arithmetic over Q.

Everything downstream (Schur evaluations, pullback classes, cycle
classes, Hilbert tables) reduces to arithmetic in the graded ring

    Q[lambda_1..lambda_g, psi, kappa_j, x_i, u, z_i]

with weights  lambda_i -> i,  kappa_j -> j,  and 1 for all the weight-one
families (psi, u, x, z).  Coefficients are exact: ints, and Fractions
only where a division makes them; there is no floating-point mode.

A monomial is one int, a packed exponent vector (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).  The Layout of a polynomial lists the variables of
its ring in canonical order (family precedence lambda < psi < kappa <
x < u < z, then index) and gives each one a bit field of the same
width, the first variable the highest; the weighted degree sits above
them all, in a field without a width.  So a product of monomials is the
sum of their ints, the weighted degree is a shift, and descending int
order is canonical graded-lex order: the weighted degree first, then the
exponents in canonical order of the variables, the larger first.  That is
the order of the sparse lists of (variable, exponent) pairs that printed
polynomials follow, down to a list that is a strict prefix of another
(only weight-zero kappa_0 can make one): the longer list has the larger
int.  Monomials are decoded only by the few callers that read exponents,
through Layout.unpack, and to be printed.  Every printed form, the
canonical text, LaTeX and the JSON object {"terms", "text"} that this
module alone writes (MultiPoly.json_object), comes from one walk over the
sorted terms that decodes just the fields where a term differs from the
one before.

A layout of width w holds exponents below 2^w, and the top bit of each
field is a guard: two polynomials are multiplied in a layout only when no
exponent of either reaches 2^(w-1), so a sum of two fields never carries
into the next one.  Builders choose the width from a degree bound before
work starts (field_width); a product that would break the rule anyway is
formed in a layout one bit wider.  Polynomials of one ring share one
layout; two layouts meet, in sums and products, in the layout of the
union of their variables at the larger width.  Terms are accumulated in
one place, MultiPoly.sum, whose values may be pairs (a, b) that stand for
the products a * b: addition, multiplication, the minors of det and the
groups of a substitution are all such sums, and the result is one bit
wider when a factor of some pair reaches the guard bit of the layout
where all summands and factors meet.  Determinants are one function,
det; linear algebra over the integers is one kernel, Echelon.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence, Union

__all__ = [
    "Variable",
    "Layout",
    "field_width",
    "MultiPoly",
    "det",
    "lam",
    "kap",
    "zvar",
    "PSI",
    "Echelon",
]

_FAMILIES = ("lambda", "psi", "kappa", "x", "u", "z")
_RANK = {fam: r for r, fam in enumerate(_FAMILIES)}
_UNINDEXED = frozenset(("psi", "u"))
# the LaTeX symbol of each family, by rank; format fills in the index
_LATEX = ("\\lambda_{{{}}}", "\\psi", "\\kappa_{{{}}}", "x_{{{}}}", "u", "z_{{{}}}")

Scalar = Union[int, Fraction]


class Variable(namedtuple("Variable", "rank index weight name")):
    """One symbol from the fixed alphabet, e.g. lambda_3, psi, or x_2.

    A variable is the plain tuple (rank, index, weight, name), where rank
    is the place of its family in lambda < psi < kappa < x < u < z.  So
    tuple order is canonical order, and tuple equality and hashing are
    those of the symbol.  The weight (graded degree) is the index for
    lambda_i and kappa_j and one for every other family.  psi and u are
    distinct symbols; they are only related through the explicit
    substitution u -> -psi, which only the tests perform, on the double
    Schur polynomials of their reference routes.
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


def zvar(i: int) -> Variable:
    return Variable("z", i)


PSI = Variable("psi")


# A monomial is an int packed by the Layout of its polynomial: the
# exponent of the i-th of n variables (canonical order) in bits
# [w(n-1-i), w(n-i)), the weighted degree from bit wn up.  0 is the
# monomial 1 in every layout.
Monomial = int

_MIN_WIDTH = 8


def field_width(degree: int) -> int:
    """Bits per field for exponents up to degree with the guard bit clear."""
    return max(_MIN_WIDTH, degree.bit_length() + 1)


class Layout:
    """How the monomials of one ring are packed into ints.

    variables are in canonical order and every one has a field of width
    bits; offsets maps each to the lowest bit of its field, units to the
    packed monomial of the variable itself (its field and its weight), and
    guard has the top bit of every field set.  Layouts are interned by
    Layout.of, so polynomials of one ring share the object and compare
    their layouts by identity.
    """

    __slots__ = ("variables", "width", "mask", "shift", "offsets", "units", "guard", "_upward")

    _interned: dict = {}

    def __init__(self, variables: tuple[Variable, ...], width: int):
        n = len(variables)
        self.variables = variables
        self.width = width
        self.mask = (1 << width) - 1
        self.shift = width * n
        self.offsets = {v: width * (n - 1 - i) for i, v in enumerate(variables)}
        self.units = {v: (1 << off) | (v.weight << self.shift) for v, off in self.offsets.items()}
        self.guard = sum(1 << (off + width - 1) for off in self.offsets.values())
        self._upward = variables[::-1]  # the variable of each field, lowest field first

    @classmethod
    def of(cls, variables: Iterable[Variable], width: int = _MIN_WIDTH) -> "Layout":
        """The layout of these variables (in any order) with fields of width bits."""
        key = (tuple(sorted(set(variables))), width)
        found = cls._interned.get(key)
        if found is None:
            found = cls._interned[key] = cls(*key)
        return found

    def common(self, other: "Layout") -> "Layout":
        """The layout two polynomials meet in: both variable sets, the larger width."""
        if other is self or not other.variables:
            return self
        if not self.variables:
            return other
        return Layout.of(self.variables + other.variables, max(self.width, other.width))

    def pack(self, pairs: Iterable[tuple[Variable, int]]) -> Monomial:
        """The monomial of (variable, exponent) pairs, one pair per variable;
        each exponent must fit its field."""
        mono = 0
        for var, e in pairs:
            if not 0 <= e <= self.mask:
                raise ValueError(f"exponent {e} of {var.name} does not fit a {self.width}-bit field")
            mono += e * self.units[var]
        return mono

    def unpack(self, mono: Monomial) -> list[tuple[Variable, int]]:
        """The (variable, exponent) pairs of a monomial, canonical order, zero exponents left out.

        The highest nonzero field is found from the bit length, so the
        cost goes with the variables present, not with those of the
        layout (a pushed-forward class has one kappa field per psi power).
        """
        width, upward = self.width, self._upward
        mono &= (1 << self.shift) - 1
        pairs = []
        while mono:
            field = (mono.bit_length() - 1) // width
            off = field * width
            e = mono >> off
            pairs.append((upward[field], e))
            mono ^= e << off
        return pairs

    def divides(self, a: Monomial, b: Monomial) -> bool:
        """Whether monomial a divides monomial b, field by field.

        Every exponent must be below the guard bit: then setting the
        guard bits of b and subtracting a leaves each guard bit set
        exactly where b's field is at least a's, and no field borrows
        from the next.
        """
        guard = self.guard
        return ((b | guard) - a) & guard == guard


_EMPTY = Layout.of(())


def _coerce_coeff(value) -> Scalar:
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, float):
        raise TypeError("floating-point coefficients are not allowed")
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


class MultiPoly:
    """Immutable sparse polynomial: map from packed monomial to nonzero coefficient.

    layout says how its monomials are packed.  Coefficients are kept as
    given, int or Fraction, so integer arithmetic stays on ints until a
    division makes a Fraction.  The canonically sorted term list and the
    bitwise or of the monomials (for the guard test of products) are
    built on first use and kept.
    """

    __slots__ = ("_terms", "layout", "_sorted", "_bits")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None, layout: Layout = _EMPTY):
        self._terms = {mono: coeff for mono, coeff in terms.items() if coeff} if terms else {}
        self.layout = layout
        self._sorted = None
        self._bits = None

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls({0: 1})

    @classmethod
    def constant(cls, value: Scalar) -> "MultiPoly":
        return cls({0: _coerce_coeff(value)})

    @classmethod
    def variable(cls, var: Variable, layout: Layout | None = None) -> "MultiPoly":
        """var as a polynomial of layout, by default a layout of its own."""
        layout = layout or Layout.of((var,))
        return cls({layout.units[var]: 1}, layout)

    @staticmethod
    def sum(values: Iterable["MultiPoly | Scalar | tuple"]) -> "MultiPoly":
        """The sum of the values, accumulated in one dict; a value may be a
        pair (a, b), which stands for the product a * b.

        This is the one place where terms are accumulated: a + b is the
        sum of [a, b], a * b that of [(a, b)], and the terms of each pair's
        product go straight into the sum's dict, with no dict of their
        own.  Adding the values one by one would copy the growing partial
        sum at every step; for k values of comparable size that costs
        about k/2 times as much.  The result's layout is the one where all
        summands and factors meet, one bit wider if a factor of some pair
        reaches the guard bit of that layout's fields, so that no product
        carries.  A pair with a zero factor adds nothing, its layout
        included.
        """
        parts = [tuple(map(MultiPoly._wrap, v)) if type(v) is tuple else (MultiPoly._wrap(v),) for v in values]
        parts = [part for part in parts if len(part) == 1 or all(part)]
        layout = reduce(Layout.common, [p.layout for part in parts for p in part], _EMPTY)
        width = layout.width
        factors = [p for part in parts if len(part) == 2 for p in part]
        if any(p.layout.width == width and p._or() & p.layout.guard for p in factors):  # a product could carry
            layout = Layout.of(layout.variables, width + 1)
        acc: dict[Monomial, Scalar] = {}
        get = acc.get
        for part in parts:
            if len(part) == 1:
                for mono, coeff in part[0].recast(layout)._terms.items():
                    acc[mono] = get(mono, 0) + coeff
                continue
            a, b = sorted((p.recast(layout)._terms for p in part), key=len)  # the smaller factor outside
            inner = b.items()
            for ma, ca in a.items():
                for mb, cb in inner:
                    mono = ma + mb
                    acc[mono] = get(mono, 0) + ca * cb
        return MultiPoly(acc, layout)

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
        layout = self.layout.common(other.layout)
        return self.recast(layout)._terms == other.recast(layout)._terms

    def _sorted_terms(self) -> tuple[tuple[Monomial, Scalar], ...]:
        """Terms in canonical display order, leading term first."""
        if self._sorted is None:
            terms = self._terms
            self._sorted = tuple([(mono, terms[mono]) for mono in sorted(terms, reverse=True)])
        return self._sorted

    def _or(self) -> int:
        """The bitwise or of the monomials: a bound on every field at once."""
        if self._bits is None:
            self._bits = reduce(or_, self._terms, 0)
        return self._bits

    def items(self):
        """Raw (monomial, coefficient) pairs in arbitrary order; layout.unpack reads a monomial."""
        return self._terms.items()

    def constant_term(self) -> Scalar:
        return self._terms.get(0, 0)

    def degree(self) -> int:
        """The largest weighted degree of a term (0 for constants and zero)."""
        return max(self._terms, default=0) >> self.layout.shift

    def variables(self) -> set[Variable]:
        bits, mask = self._or(), self.layout.mask
        return {v for v, off in self.layout.offsets.items() if bits >> off & mask}

    def recast(self, layout: Layout) -> "MultiPoly":
        """The same polynomial in another layout, which has all its variables."""
        src = self.layout
        if src is layout:
            return self
        if not src.variables:
            return MultiPoly(self._terms, layout)
        moves = [(off, layout.offsets[v]) for v, off in src.offsets.items()]
        mask, shift, target_shift = src.mask, src.shift, layout.shift
        bits = self._or()
        if any(bits >> off & mask > layout.mask for off, _ in moves):
            raise ValueError("an exponent does not fit the narrower layout")
        out = {}
        for mono, coeff in self._terms.items():
            packed = mono >> shift << target_shift
            for off, target in moves:
                packed |= (mono >> off & mask) << target
            out[packed] = coeff
        return MultiPoly(out, layout)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        return MultiPoly.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly({m: -c for m, c in self._terms.items()}, self.layout)

    def __sub__(self, other):
        return self + (-MultiPoly._wrap(other))

    def __rsub__(self, other):
        return MultiPoly._wrap(other) + (-self)

    def __mul__(self, other):
        return MultiPoly.sum([(self, other)])

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
        return MultiPoly({m: co * c for m, co in self._terms.items()}, self.layout)

    def __truediv__(self, other: Scalar):
        c = _coerce_coeff(other)
        if not c:
            raise ZeroDivisionError("division by zero")
        return self.scale(Fraction(1) / c)

    # -- structure ----------------------------------------------------

    def substitute(self, sigma: Mapping[Variable, "MultiPoly | Scalar"]) -> "MultiPoly":
        """Apply the ring homomorphism sending each variable to its image,
        all at once: {z1: z2, z2: z1} swaps z1 and z2.

        Variables absent from sigma map to themselves.  The terms are
        grouped by the exponent of the first substituted variable; the
        other variables are substituted into each group, with that
        exponent cleared, in the same way, and the result is multiplied by
        the image's power, each power formed once per call.  Images are
        never substituted into, which makes the substitution simultaneous,
        and its cost is about that of substituting one variable at a time.
        """
        images = [(v, MultiPoly._wrap(p)) for v, p in sigma.items() if v in self.layout.offsets]
        return self._substituted(images, {})

    def _substituted(self, images: list[tuple[Variable, "MultiPoly"]], powers: dict) -> "MultiPoly":
        """substitute for the (variable, image) pairs, sharing powers[var, e] across groups."""
        if not images or not self._terms:
            return self
        (var, image), rest = images[0], images[1:]
        layout = self.layout
        off, unit, mask = layout.offsets[var], layout.units[var], layout.mask
        groups: dict[int, dict[Monomial, Scalar]] = {}
        for mono, coeff in self._terms.items():
            e = mono >> off & mask
            groups.setdefault(e, {})[mono - e * unit] = coeff
        parts = []
        for e, group in groups.items():
            part = MultiPoly(group, layout)._substituted(rest, powers)
            if e:
                if (var, e) not in powers:
                    powers[var, e] = image**e
                part = (part, powers[var, e])
            parts.append(part)
        return MultiPoly.sum(parts)

    # -- serialization -------------------------------------------------

    def _rendered_terms(self, indent: str) -> Iterator[tuple[str, str, str, str]]:
        """Each term, leading first, in the four forms the output needs.

        They are the coefficient's text; the body of its JSON "exps"
        object, an entry indent + '"name": e' per variable, comma-joined
        in string order of the names (lambda10 before lambda2); the
        term's piece of canonical_str with its sign in front, as in
        " + 3*psi" or " - lambda1"; and the LaTeX of its monomial alone,
        as in "\\lambda_{1}^{2}\\psi".  Text and LaTeX follow field order.

        Terms come in descending int order, so neighbours share their
        highest fields, and the highest bit of prev ^ mono lies in the
        highest field where they differ.  A stack holds the fields of the
        term before, highest first, each with the text, JSON and LaTeX of
        the fields up to it already joined; the fields at or below that
        bit are popped and only they are decoded again, by bit length as
        in Layout.unpack.  Each field's pieces are formatted once per
        call.  Names are ASCII letters and digits: they need no JSON
        escaping, and entries sort as their names do, since '"' sorts
        below both.
        """
        layout = self.layout
        width, upward = layout.width, layout._upward
        names = [v.name for v in layout.variables]
        in_order = names == sorted(names)  # then field order is the JSON key order
        fields = (1 << layout.shift) - 1
        pieces: dict[int, tuple[str, str, str]] = {}  # field bits -> ("*name^e", ',indent"name": e', LaTeX)
        # (offset of the field, text, JSON and LaTeX up to it, its JSON entry);
        # the bottom entry stands above every field and is never popped
        stack = [(layout.shift, "", "", "", "")]
        prev = 0
        for mono, coeff in self._sorted_terms():
            mono &= fields
            top = (prev ^ mono).bit_length()
            while stack[-1][0] < top:
                stack.pop()
            off, body, exps, tex, _ = stack[-1]
            # below the lowest field kept; a field above top that was not kept is 0 in both terms
            rest = mono & ((1 << off) - 1)
            while rest:
                off = (rest.bit_length() - 1) // width * width
                bits = rest >> off << off
                rest ^= bits
                piece = pieces.get(bits)
                if piece is None:
                    var, e = upward[off // width], bits >> off
                    text, latex = var.name, _LATEX[var.rank].format(var.index)
                    if e > 1:
                        text, latex = f"{text}^{e}", f"{latex}^{{{e}}}"
                    piece = pieces[bits] = ("*" + text, f',{indent}"{var.name}": {e}', latex)
                body += piece[0]
                exps += piece[1]
                tex += piece[2]
                stack.append((off, body, exps, tex, piece[1]))
            if not in_order:
                exps = "".join(sorted([entry[4] for entry in stack]))
            coeff_text = str(coeff)
            sign, mag = (" - ", coeff_text[1:]) if coeff_text[0] == "-" else (" + ", coeff_text)
            if body:
                mag = body[1:] if mag == "1" else mag + body
            yield coeff_text, exps[1:], sign + mag, tex
            prev = mono

    @staticmethod
    def _joined_text(pieces: Iterable[str]) -> str:
        """The polynomial from its signed term pieces, in order, as in "-a + b"; 0 if none."""
        text = "".join(pieces)
        if not text:
            return "0"
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def canonical_str(self) -> str:
        return MultiPoly._joined_text(piece for _, _, piece, _ in self._rendered_terms(""))

    def json_object(self, nl: str) -> str:
        """The object {"terms": [{"coeff", "exps"}, ...], "text": canonical_str()}
        as json.dumps(..., indent=2, sort_keys=True) writes it; nl is the
        line break and indent of the line it starts on.

        The coefficients are digits, "-" and "/", and the text is ASCII
        letters, digits and "*^/+- ": neither needs JSON escaping.
        """
        i1, i2, i3, i4 = (nl + "  " * k for k in range(1, 5))
        records, pieces = [], []
        for coeff, exps, piece, _ in self._rendered_terms(i4):
            exps = f"{{{exps}{i3}}}" if exps else "{}"
            records.append(f'{i2}{{{i3}"coeff": "{coeff}",{i3}"exps": {exps}{i2}}}')
            pieces.append(piece)
        terms = f"[{','.join(records)}{i1}]" if records else "[]"
        return f'{{{i1}"terms": {terms},{i1}"text": "{MultiPoly._joined_text(pieces)}"{nl}}}'

    def latex(self) -> str:
        """The polynomial in LaTeX, as in "-\\lambda_{1} + \\tfrac{3}{2}\\psi^{2}"."""
        pieces = []
        for coeff, _, _, body in self._rendered_terms(""):
            sign, mag = (" - ", coeff[1:]) if coeff[0] == "-" else (" + ", coeff)
            if "/" in mag:
                num, _, den = mag.partition("/")
                mag = f"\\tfrac{{{num}}}{{{den}}}"
            if body:
                mag = body if mag == "1" else mag + body
            pieces.append(sign + mag)
        return MultiPoly._joined_text(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self.canonical_str()})"


def det(rows: Sequence[Sequence[MultiPoly | Scalar]]) -> MultiPoly:
    """Exact determinant of a square matrix.

    A matrix of ints is eliminated fraction-free (Bareiss, Math. Comp.
    1968), which takes about n^3 products.  Any other matrix, of
    MultiPoly or of Fractions, is expanded by Laplace with memoised
    minors: row i is expanded against the minors of rows i+1..n-1, each
    keyed by its set of columns, so every distinct minor is computed
    once, by one MultiPoly.sum over its pairs (+-entry, smaller minor),
    with each entry negated once per row; zero entries and zero minors
    are skipped.  The minors are built from the bottom row up because the
    bottom rows of a Kempf-Laksov matrix hold its lowest-degree entries:
    the largest products are first-row entries times (n-1)-minors,
    exactly those of cofactor expansion along the first row.  Built from
    the top down instead, the expansion multiplies large partial
    expansions of the upper rows, which is 2 to 6 times slower on these
    matrices.  All C(n, k) minors of k rows may be kept, so the cost grows
    like 2^n.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    if all(type(entry) is int for row in rows for entry in row):
        return MultiPoly.constant(_bareiss(rows))
    minors: dict[int, MultiPoly | Scalar] = {0: 1}
    for row in reversed(rows):
        signed = [(entry, -entry) for entry in row]
        pairs: dict[int, list] = {}
        for cols, minor in minors.items():
            for j, entry in enumerate(row):
                bit = 1 << j
                if cols & bit or not entry:
                    continue
                sign = (cols & (bit - 1)).bit_count() & 1
                pairs.setdefault(cols | bit, []).append((signed[j][sign], minor))
        minors = {cols: minor for cols, summands in pairs.items() if (minor := MultiPoly.sum(summands))}
    return MultiPoly._wrap(minors.get((1 << n) - 1, 0))


def _bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square int matrix by fraction-free elimination.

    After step k every entry below and right of the pivot is a (k+2)-minor
    of the matrix, so the division by the previous pivot is exact.  A zero
    pivot is swapped for a lower row with a nonzero entry in its column,
    which flips the sign; if there is none, the determinant is zero.
    """
    m = [list(row) for row in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot = pivot_row[k]
        for row in m[k + 1 :]:
            a = row[k]
            row[k + 1 :] = [(pivot * v - a * w) // prev for v, w in zip(row[k + 1 :], pivot_row[k + 1 :])]
        prev = pivot
    return sign * m[-1][-1] if n else 1


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
