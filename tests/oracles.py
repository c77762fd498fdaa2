"""Reference routines the tests compare the production code against.

Each one is an independent, slower route to an object that `wtaut`
computes another way, or a helper only tests need.  None of them is
reached from `src/`.

* `elementary_in_x`, `complete_in_x`: e_a and h_a of x_1..x_g as
  explicit polynomials, by the one-variable recursions.
* `_elementary_table`, `_elementary_product_table`: prod_a e_a(x)^(d_a)
  as a table over every exponent vector, built by repeated products.
* `value_x_expansion`: a lambda-psi class written in the x-roots by
  expanding each lambda-monomial through that full table, the route
  `schur.in_roots` took before it went orbit by orbit.
* `to_lambda_basis`: the inverse change of basis, by peeling off
  leading orbits.
* `lambda_psi_monomials`, `coefficient_rows`, `integer_rows`,
  `full_slice_pivots`, `full_slice_reduce`: the Mumford normal form by
  eliminating whole (lambda, psi) degree slices, the route
  `mumford_reduce` took before it reduced psi-block by psi-block over
  the lambda-only ideal.
* `mumford_generators`: the Mumford relations as polynomials, the even
  parts of c(E) c(E*) - 1 summed over the pairs (i, 2k - i), the route
  `pullback._mumford_pivots` took before it wrote each row from the
  relations' coefficients.
* `lower_bound_by_degree`: the fixed-point lower Hilbert bound ranked
  from scratch at every degree, one row per semigroup, the route
  `hilbert_quotient_lower` took before it grew one echelon of
  lambda-monomial rows.
* `recursive_lambda_monomials`: the lambda-monomials of a weight by a
  recursion over the exponents of lambda_1, lambda_2, ..., the route
  `lambda_monomials` took before it read them off partitions.
* `pairs_pushforward`: the pushforward psi^m -> kappa_(m-1) with every
  term unpacked to pairs and packed again by `from_pairs`, the route
  `pushforward_rule` took before it moved packed monomials.
* `pull_moves`, `pull_orbit_table`: the orbit table of a product of
  e_a(x) by the pull rule, each coefficient of f e_a gathered from the
  table of f through the moves nu - 1_S, the route `schur._orbit_table`
  took before it pushed each orbit's mass through the moves mu + 1_S.
* `shifted_interval_matrix`: a Kempf-Laksov matrix whose interval values
  are all raised by a shift, the route `psi_matrix(mu, g, shift)` took
  before it raised the interval bound instead.
* `ParamSequence`, `generalized_power`, `falling_factorial`,
  `double_schur`: double Schur polynomials as the ratio of determinants
  det[(z_i | a)^(mu_j + n - j)] / Vandermonde, the route
  `factorial_schur` took before it became the Kempf-Laksov determinant;
  `ratio_factorial_schur` and `ratio_shifted_schur` are its factorial
  and shifted specializations.
* `canonical_str`, `to_json`, `poly_payload`: a polynomial's text, its
  term records and the {"text", "terms"} object built as separate dicts
  and lists for `json.dumps`, the route the CLI took before it wrote
  each polynomial in one pass over its terms; `from_json` reads the
  term records back, naming variables through `parse_variable`.
* `latex`: a polynomial in LaTeX with every term unpacked through
  `Layout.unpack`, the route `MultiPoly.latex` took before it printed
  from the same walk over the terms as the text and the JSON.
* `exact_div`: exact polynomial division, the ratio route's division by
  each factor of the Vandermonde.
* `from_pairs`: a polynomial from its terms as lists of (variable,
  exponent) pairs, in a layout of just their variables; production code
  packs its monomials itself.
* `monomial`, `terms`, `pair_terms`, `coefficient`: a one-term
  polynomial from (variable, exponent) pairs, the terms in display order
  as a new list, the terms in arbitrary order, each monomial unpacked to
  its tuple of pairs, and the coefficient of the monomial of some pairs.
* `mono_sort_key`, `pairs_mul`, `pairs_weight`: the order, product and
  weighted degree of monomials written as sorted tuples of (variable,
  exponent) pairs, the representation `MultiPoly` kept before it packed
  each monomial into one int; `mono_sort_key` is the order oracle for
  packed int order.
* `weighted_degrees`, `homogeneous_components`: the weighted degrees of
  a polynomial's terms, and its split into homogeneous parts.
* `ev_homomorphism`: a lambda-psi class evaluated at the monomial fixed
  point of a semigroup, by substitution.
* `fixed_point_value`: the number a homogeneous lambda-psi class takes
  at the monomial fixed point of a gap list, with psi -> 1.
* `hook_product`: the product of the hook lengths of a partition.
* `evaluate`: a polynomial at a point, the sum of coeff * prod v^e over
  its unpacked terms in Fractions, the reference for `substitute`.
* `partition_contains`: Young diagram containment of two partitions.
* `IndexSequence`, `weierstrass_sequence`, `semigroup_from_sequence`,
  `partition_from_sequence`, `hprime_partition`, `is_realizable`,
  `dual_index_set`, `intersection_nonempty`: a semigroup as its index
  sequence s_i = a_(g+1-i) - 1 (a Maya diagram with a virtual
  cardinality and a normalised head), its inverse, its partitions by the
  one Maya-diagram rule mu_i = s_i + i - d, the entrywise realizability
  bound, the dual index set and the cell-intersection criteria, the
  route `semigroups`, `wcycles` and `tautring` took before they read
  every datum off the gap list (`NumericalSemigroup.partition`,
  `semigroup_record`, e_i of the gaps at the fixed points).
* `sequence_from_hprime_partition`: the index sequence of a partition,
  the inverse of `hprime_partition`, through which `virtual_class` tested
  its flag by `is_realizable` before it read the flag off the staircase.
* `piecewise_hprime_partition`, `counted_dual_index_set`: the H'
  partition of a sequence by a formula piecewise around its last
  non-negative entry, and the dual index set with its virtual
  cardinality counted over a window, the routes `hprime_partition` and
  `dual_index_set` took before both came from the one Maya-diagram rule.
* `listed_closure_witness`: the first pair of non-gaps whose sum is a
  gap, found by listing every non-gap up to the largest gap, the route
  `semigroups._closure_witness` took before it walked the small non-gaps
  against the gap list.
* `recurrence_bernoulli`: B_0..B_n by the binomial recurrence in
  Fractions, the route `pullback.bernoulli` took before it used tangent
  numbers.
* `xvar`, `U`: the variables x_i and u, which only tests name; the x
  and u families stay in `Variable`.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, groupby

from wtaut.exactalg import PSI, Echelon, Layout, MultiPoly, Variable, det, field_width, kap, lam
from wtaut.pullback import lambda_monomials
from wtaut.schur import _shape, complete_of_values, elementary_of_values, lambda_ring
from wtaut.errors import DataError
from wtaut.semigroups import NumericalSemigroup, Partition, enumerate_semigroups


def xvar(i: int) -> Variable:
    return Variable("x", i)


U = Variable("u")


# -- monomials as sorted tuples of (variable, exponent) pairs -----------------


def pairs_weight(mono) -> int:
    return sum(v.weight * e for v, e in mono)


def pairs_mul(a, b) -> tuple:
    """The product of two sorted pair tuples, by a pairwise merge."""
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


def mono_sort_key(mono):
    """Canonical graded-lex order of a pair tuple: ascending key = display order.

    The leading (largest) monomial has the smallest key: degree is
    negated and exponents enter negated, so tuple comparison walks the
    variables in canonical order and prefers larger exponents.
    """
    return -pairs_weight(mono), tuple([(v, -e) for v, e in mono]) + (_END,)


def pair_terms(p: MultiPoly) -> list:
    """(pair tuple, coefficient) for every term of p, in arbitrary order."""
    unpack = p.layout.unpack
    return [(tuple(unpack(mono)), coeff) for mono, coeff in p.items()]


def from_pairs(terms) -> MultiPoly:
    """The sum of the terms, each a list of (variable, exponent) pairs (one
    per variable) and a coefficient, in a layout of their variables wide
    enough for them."""
    terms = [(list(pairs), coeff) for pairs, coeff in terms]
    pairs = [pair for mono, _ in terms for pair in mono]
    layout = Layout.of({v for v, _ in pairs}, field_width(max((e for _, e in pairs), default=0)))
    acc: dict = {}
    for mono, coeff in terms:
        key = layout.pack(mono)
        acc[key] = acc.get(key, 0) + coeff
    return MultiPoly(acc, layout)


@lru_cache(maxsize=None)
def elementary_in_x(g: int, a: int) -> MultiPoly:
    """e_a(x_1..x_g), zero above a = g."""
    if a < 0 or a > g:
        return MultiPoly.zero()
    if a == 0:
        return MultiPoly.one()
    if g == 0:
        return MultiPoly.zero()
    x_g = MultiPoly.variable(xvar(g))
    return elementary_in_x(g - 1, a) + x_g * elementary_in_x(g - 1, a - 1)


@lru_cache(maxsize=None)
def complete_in_x(g: int, a: int) -> MultiPoly:
    """h_a(x_1..x_g)."""
    if a < 0:
        return MultiPoly.zero()
    if a == 0:
        return MultiPoly.one()
    if g == 0:
        return MultiPoly.zero()
    if g == 1:
        return MultiPoly.variable(xvar(1)) ** a
    x_g = MultiPoly.variable(xvar(g))
    return complete_in_x(g - 1, a) + x_g * complete_in_x(g, a - 1)


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


def value_x_expansion(value_lambda: MultiPoly, g: int) -> MultiPoly:
    """value_lambda under lambda_a -> (-1)^a e_a(x_1..x_g)."""
    xs = [xvar(i) for i in range(1, g + 1)]
    xmonos: dict = {}
    acc: dict = {}
    for mono, coeff in pair_terms(value_lambda):
        diffs = [0] * g
        rest = []
        for var, e in mono:
            if var.family == "lambda":
                diffs[var.index - 1] = e
            else:
                rest.append((var, e))
        if sum(a * d for a, d in enumerate(diffs, start=1)) % 2:
            coeff = -coeff
        rest = tuple(rest)
        for vec, ecoef in _elementary_product_table(g, tuple(diffs)):
            xmono = xmonos.get(vec)
            if xmono is None:
                xmono = xmonos[vec] = tuple((x, e) for x, e in zip(xs, vec) if e)
            key = pairs_mul(rest, xmono)
            val = acc.get(key, 0) + coeff * ecoef
            if val:
                acc[key] = val
            else:
                acc.pop(key, None)
    return from_pairs(acc.items())


def to_lambda_basis(p: MultiPoly, g: int) -> MultiPoly:
    """Rewrite a polynomial symmetric in x_1..x_g via e_a(x) -> (-1)^a lambda_a.

    Other variables (psi, u, kappa) pass through untouched.  Raises on
    input that is not symmetric in the x block.  Classical elimination:
    peel off the lex-leading x orbit with the matching product of
    elementary symmetric polynomials; every step only creates smaller
    orbits, so a max-heap over x exponent vectors drives the loop.  No
    class is computed through it: it inverts schur.in_roots and
    serves as an independent check of the lambda-native routes.
    """
    import heapq

    zero_vec = (0,) * g
    groups: dict[tuple[int, ...], dict] = {}
    for mono, c in pair_terms(p):
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
            emit(pairs_mul(lam_mono, rest), rc * sign)

    for rest, rc in groups.pop(zero_vec, {}).items():
        emit(rest, rc)
    return from_pairs(out_terms.items())


def lambda_psi_monomials(g: int, degree: int) -> list[MultiPoly]:
    """Canonically ordered monomial basis of the weighted degree-d slice
    of Q[lambda_1..lambda_g, psi]."""

    out: list[MultiPoly] = []

    def rec(index: int, left: int, pairs: list[tuple[Variable, int]]) -> None:
        if index == 0:
            mono = list(pairs)
            if left:
                mono.append((PSI, left))
            out.append(monomial(mono))
            return
        for e in range(left // index + 1):
            rec(index - 1, left - e * index, pairs + ([(lam(index), e)] if e else []))

    rec(g, degree, [])
    out.sort(key=lambda m: mono_sort_key(terms(m)[0][0]))
    return out


def coefficient_rows(polys: list[MultiPoly], basis: list[MultiPoly]) -> list[list[Fraction]]:
    """Coefficients of each polynomial on a monomial basis of its degree slice."""
    index = {terms(m)[0][0]: i for i, m in enumerate(basis)}
    rows = []
    for p in polys:
        row = [Fraction(0)] * len(basis)
        for mono, c in pair_terms(p):
            row[index[mono]] = c
        rows.append(row)
    return rows


def integer_rows(rows: list[list[Fraction]]) -> list[list[int]]:
    """Each rational row times the lcm of its denominators: same span."""
    out = []
    for row in rows:
        scale = math.lcm(*(Fraction(c).denominator for c in row))
        out.append([int(c * scale) for c in row])
    return out


def mumford_generators(g: int) -> tuple[tuple[int, MultiPoly], ...]:
    """Relations from the vanishing of c(E) c(E*) - 1 in even degrees,
    as (degree, generator) pairs.

    The degree-2k part of c(E) c(E*) is sum_{i+j=2k} (-1)^i lambda_i
    lambda_j with lambda_0 = 1, for k = 1..g; the odd parts cancel under
    i <-> j.  Every generator lies in Q[lambda].
    """
    ring = lambda_ring(g, 2 * g)
    lams = [MultiPoly.one()] + [MultiPoly.variable(lam(a), ring) for a in range(1, g + 1)]
    gens = []
    for k in range(1, g + 1):
        pairs = range(max(0, 2 * k - g), min(g, 2 * k) + 1)
        gen = MultiPoly.sum((lams[i].scale((-1) ** i), lams[2 * k - i]) for i in pairs)
        gens.append((2 * k, gen))
    return tuple(gens)


@lru_cache(maxsize=None)
def full_slice_pivots(g: int, degree: int):
    """Row-echelon basis of the degree slice of the Mumford ideal.

    Returns (basis monomials, the Echelon of the coefficient rows of
    m * generator).
    """
    basis = lambda_psi_monomials(g, degree)
    products = [
        m * gen
        for gen_degree, gen in mumford_generators(g)
        if gen_degree <= degree
        for m in lambda_psi_monomials(g, degree - gen_degree)
    ]
    return basis, Echelon(integer_rows(coefficient_rows(products, basis)))


def full_slice_reduce(p: MultiPoly, g: int) -> MultiPoly:
    """Normal form modulo the Mumford relations, degree by degree.

    Echelon.reduce clears every pivot column, which makes the result
    unique.  Idempotent, and zero exactly on members of the ideal.
    """
    for v in p.variables():
        if v.family not in ("lambda", "psi") or v.index > g:
            raise ValueError("mumford_reduce expects a polynomial in lambda_1..lambda_g and psi")
    out = MultiPoly.zero()
    for degree, comp in enumerate(homogeneous_components(p)):
        if not comp:
            continue
        basis, echelon = full_slice_pivots(g, degree)
        (vec,) = coefficient_rows([comp], basis)
        for i, c in enumerate(echelon.reduce(vec)):
            if c:
                out = out + basis[i].scale(c)
    return out


def lower_bound_by_degree(g: int, cutoff: int) -> list[int]:
    """Rank of the fixed-point evaluation on each degree slice, from scratch.

    One row per semigroup, one column per lambda-monomial of weight
    <= d, holding its value prod_a e_a^(m_a) at the fixed point.
    """
    tables = [elementary_of_values(h.gaps, h.genus) for h in enumerate_semigroups(g)]
    rows: list[list[int]] = [[] for _ in tables]
    dims = []
    for d in range(cutoff + 1):
        ring = lambda_ring(g, d)
        monos = [ring.unpack(mono) for mono in lambda_monomials(g, d, ring)]
        for row, e_values in zip(rows, tables):
            row.extend(math.prod(e_values[v.index] ** e for v, e in mono) for mono in monos)
        dims.append(len(Echelon(rows)))
    return dims


def recursive_lambda_monomials(g: int, weight: int, ring) -> list[int]:
    """lambda_monomials(g, weight, ring) by choosing the exponents of
    lambda_1, lambda_2, ... in turn, each from the largest down, which
    emits them in canonical order with no sort."""
    steps = [ring.units[lam(i)] for i in range(1, g + 1)]
    out: list[int] = []

    def rec(index: int, left: int, head: int) -> None:
        if not left:
            out.append(head)
            return
        if index > g:
            return
        for e in range(left // index, -1, -1):
            rec(index + 1, left - e * index, head + e * steps[index - 1])

    rec(1, weight, 0)
    return out


def pairs_pushforward(pointed: MultiPoly) -> MultiPoly:
    """wcycles.pushforward_rule with every term unpacked to (variable,
    exponent) pairs, psi^m swapped for kappa_(m-1), and packed again by
    from_pairs in a layout of just the variables present."""
    out = []
    for mono, coeff in pair_terms(pointed):
        pairs = dict(mono)
        if any(v.family not in ("lambda", "psi") for v in pairs):
            raise ValueError("pushforward expects a polynomial in lambda and psi")
        m = pairs.pop(PSI, 0)
        if m:
            out.append(([*pairs.items(), (kap(m - 1), 1)], coeff))
    return from_pairs(out)


@lru_cache(maxsize=None)
def pull_moves(vec: tuple[int, ...], a: int, step: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Each sort(vec + step * 1_S) over a-subsets S of the places, with the
    number of subsets S that give it; step is +1 or -1, and for -1 only
    subsets inside the support count.  The chosen places of a run of
    equal entries are its first (step +1) or last (step -1)."""
    runs = [(v, len(list(group))) for v, group in groupby(vec)]
    out = []

    def rec(r: int, left: int, head: tuple[int, ...], ways: int) -> None:
        if r == len(runs):
            if not left:
                out.append((head, ways))
            return
        v, n = runs[r]
        top = min(n, left) if step > 0 or v else 0
        for j in range(top + 1):
            if step > 0:
                piece = (v + 1,) * j + (v,) * (n - j)
            else:
                piece = (v,) * (n - j) + (v - 1,) * j
            rec(r + 1, left - j, head + piece, ways * math.comb(n, j))

    rec(0, a, (), 1)
    return tuple(out)


def pull_orbit_table(diffs: tuple[int, ...], memo: dict) -> dict[tuple[int, ...], int]:
    """schur._orbit_table by the pull rule

        [x^nu](f e_a) = sum over a-subsets S with nu - 1_S >= 0 of
                        [x^sort(nu - 1_S)] f        (f symmetric),

    over the candidates nu = sort(mu + 1_S) of the smaller table's mu,
    a the largest index with diffs_a > 0; the same signature and memo."""
    chain = []
    while diffs not in memo:
        a = max((i for i, d in enumerate(diffs, start=1) if d), default=0)
        if not a:
            memo[diffs] = {diffs: 1}
            break
        chain.append((diffs, a))
        diffs = diffs[: a - 1] + (diffs[a - 1] - 1,) + diffs[a:]
    table = memo[diffs]
    for diffs, a in reversed(chain):
        candidates = {nu for mu in table for nu, _ in pull_moves(mu, a, 1)}
        table = memo[diffs] = {
            nu: sum(table.get(mu, 0) * ways for mu, ways in pull_moves(nu, a, -1))
            for nu in candidates
        }
    return table


def shifted_interval_matrix(mu: Partition, g: int, variant: str, shift: int) -> list[list[MultiPoly]]:
    """The Kempf-Laksov matrix of mu at genus g in the variant, with each
    row's interval the list {shift..r-1+shift} for its bound r at g.

    The Segre classes of E* come from h_b = -sum_{i<=min(b,g)} lambda_i
    h_(b-i), the elementary classes from e_a(x) = (-1)^a lambda_a.
    """
    ring = lambda_ring(g, mu.weight)
    psi = MultiPoly.variable(PSI, ring)
    lams = [MultiPoly.variable(lam(i), ring) for i in range(1, g + 1)]
    segre = [MultiPoly.one()]  # grown as far as an entry asks
    elementary = [MultiPoly.one(), *(x.scale((-1) ** a) for a, x in enumerate(lams, start=1))]
    series = {"e": elementary, "h": segre}
    rows = []
    for kind, r, ks in _shape(mu, g, variant):
        values = range(shift, r + shift)
        row = []
        for k in ks:
            while kind == "h" and len(segre) <= k:
                b = len(segre)
                segre.append(-MultiPoly.sum(lams[i - 1] * segre[b - i] for i in range(1, min(b, g) + 1)))
            coeffs = (elementary_of_values if kind == "h" else complete_of_values)(values, k)
            row.append(MultiPoly.sum(
                series[kind][k - b] * (psi**b).scale(coeffs[b])
                for b in range(k + 1) if k - b < len(series[kind])
            ))
        rows.append(row)
    return rows


class ParamSequence:
    """Parameter sequence a_1, a_2, ... fed to generalized powers: a rule
    j -> a_j; the factorial specialization is a_j = j - 1."""

    def __init__(self, rule):
        self.rule = rule

    def __call__(self, j: int) -> MultiPoly:
        if j < 1:
            raise IndexError("parameter indices are 1-based")
        return MultiPoly._wrap(self.rule(j))

    @classmethod
    def zeros(cls) -> "ParamSequence":
        return cls(lambda j: MultiPoly.zero())

    @classmethod
    def factorial(cls) -> "ParamSequence":
        return cls(lambda j: MultiPoly.constant(j - 1))

    @classmethod
    def affine_u(cls, slope: int, shift: int) -> "ParamSequence":
        """a_j = (slope * j + shift) u, the translated equivariant sequence."""
        u = MultiPoly.variable(U)
        return cls(lambda j: u.scale(slope * j + shift))


def generalized_power(z, k: int, a: ParamSequence) -> MultiPoly:
    """(z - a_1) ... (z - a_k); the empty product is 1."""
    if k < 0:
        raise ValueError("generalized power must be non-negative")
    z = MultiPoly._wrap(z)
    out = MultiPoly.one()
    for m in range(1, k + 1):
        out = out * (z - a(m))
    return out


def falling_factorial(z, i: int) -> MultiPoly:
    """z (z - 1) ... (z - i + 1); equals 1 when i = 0."""
    return generalized_power(z, i, ParamSequence.factorial())


def double_schur(mu: Partition, args, a: ParamSequence) -> MultiPoly:
    """det[(x_i | a)^(mu_j + n - j)] divided exactly by prod_{i<j} (x_i - x_j),
    one factor at a time; a identically zero gives the classical Schur
    polynomial.  Repeated arguments make a factor zero and are refused."""
    xs = [MultiPoly._wrap(v) for v in args]
    n = len(xs)
    if mu.length > n:
        raise ValueError("insufficient variables")
    exponents = [mu.part(j) + n - j for j in range(1, n + 1)]
    out = det([[generalized_power(x, e, a) for e in exponents] for x in xs])
    for i in range(n):
        for j in range(i + 1, n):
            diff = xs[i] - xs[j]
            if not diff:
                raise ValueError("repeated Schur arguments")
            out = exact_div(out, diff)
    return out


def ratio_factorial_schur(mu: Partition, args) -> MultiPoly:
    """t_mu(z_1..z_n) as the ratio of determinants with a_m = m - 1."""
    return double_schur(mu, args, ParamSequence.factorial())


def ratio_shifted_schur(mu: Partition, args) -> MultiPoly:
    """s*_mu(z_1..z_n) = t_mu(z_1 + n - 1, ..., z_n) by the ratio route."""
    n = len(args)
    if mu.length > n:
        return MultiPoly.zero()
    return ratio_factorial_schur(mu, [MultiPoly._wrap(z) + (n - i) for i, z in enumerate(args, start=1)])


def canonical_str(p: MultiPoly) -> str:
    if not p:
        return "0"
    pieces = []
    for mono, coeff in terms(p):
        body = "*".join(f"{v.name}^{e}" if e > 1 else v.name for v, e in mono)
        mag = abs(coeff)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not pieces:
            pieces.append(text if coeff > 0 else f"-{text}")
        else:
            pieces.append(f" + {text}" if coeff > 0 else f" - {text}")
    return "".join(pieces)


def _latex_symbol(v: Variable) -> str:
    if v.family in ("psi", "u"):
        return "\\" + v.family if v.family == "psi" else "u"
    if v.family in ("lambda", "kappa"):
        return f"\\{v.family}_{{{v.index}}}"
    return f"{v.family}_{{{v.index}}}"


def latex(p: MultiPoly) -> str:
    pieces = []
    for mono, coeff in terms(p):
        body = "".join(f"{_latex_symbol(v)}^{{{e}}}" if e > 1 else _latex_symbol(v) for v, e in mono)
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
        pieces.append(f" + {text}" if coeff > 0 else f" - {text}")
    text = "".join(pieces)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def to_json(p: MultiPoly) -> list[dict]:
    return [{"coeff": str(coeff), "exps": {v.name: e for v, e in mono}} for mono, coeff in terms(p)]


def poly_payload(p: MultiPoly) -> dict:
    return {"text": canonical_str(p), "terms": to_json(p)}


def from_json(data) -> MultiPoly:
    return from_pairs(
        ([(parse_variable(name), int(e)) for name, e in entry["exps"].items()], Fraction(entry["coeff"]))
        for entry in data
    )


_NAME_RE = re.compile(r"^([a-z]+?)(\d*)$")


def parse_variable(name: str) -> Variable:
    """The variable whose name is name, as in lambda12, psi or x3."""
    m = _NAME_RE.match(name)
    if m is None:
        raise ValueError(f"cannot parse variable name {name!r}")
    family, digits = m.group(1), m.group(2)
    if family in ("psi", "u"):
        if digits:
            raise ValueError(f"cannot parse variable name {name!r}")
        return Variable(family)
    if not digits:
        raise ValueError(f"variable {name!r} needs an index")
    return Variable(family, int(digits))


def _sorted_monomial(pairs) -> tuple:
    """The monomial of (variable, exponent) pairs, zero exponents dropped."""
    return tuple(sorted((v, e) for v, e in pairs if e))


def monomial(pairs, coeff=1) -> MultiPoly:
    """coeff times the product of v^e over the (variable, exponent) pairs."""
    return from_pairs([(_sorted_monomial(pairs), coeff)])


def terms(p: MultiPoly) -> list:
    """Terms in canonical display order (leading term first), as a new list
    of (pair tuple, coefficient)."""
    unpack = p.layout.unpack
    return [(tuple(unpack(mono)), coeff) for mono, coeff in p._sorted_terms()]


def coefficient(p: MultiPoly, pairs):
    """The coefficient in p of the monomial of the (variable, exponent) pairs."""
    return dict(pair_terms(p)).get(_sorted_monomial(pairs), 0)


def exact_div(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Exact polynomial division; raises ValueError if q does not divide p.

    The leading term of the remainder comes from a heap that holds every
    monomial of the remainder, and possibly some cancelled since.
    """
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p:
        return MultiPoly.zero()
    lq_mono, lq_coeff = terms(q)[0]
    lq = dict(lq_mono)
    rem = dict(pair_terms(p))
    heap = [(mono_sort_key(m), m) for m in rem]
    heapq.heapify(heap)
    quot: dict = {}
    qterms = pair_terms(q)
    while heap:
        mono = heapq.heappop(heap)[1]
        coeff = rem.get(mono)
        if coeff is None:
            continue
        exps = dict(mono)
        factor = []
        for var, e in lq.items():
            have = exps.get(var, 0)
            if have < e:
                raise ValueError("not divisible")
            factor.append((var, have - e))
        for var, e in exps.items():
            if var not in lq:
                factor.append((var, e))
        fac_mono = tuple(sorted((v, e) for v, e in factor if e))
        c = Fraction(coeff) / lq_coeff
        quot[fac_mono] = quot.get(fac_mono, Fraction(0)) + c
        for mq, cq in qterms:
            target = pairs_mul(fac_mono, mq)
            acc = rem.get(target, 0) - c * cq
            if not acc:
                rem.pop(target, None)
                continue
            if target not in rem:
                heapq.heappush(heap, (mono_sort_key(target), target))
            rem[target] = acc
    return from_pairs(quot.items())


def weighted_degrees(p: MultiPoly) -> set[int]:
    """The weighted degrees of the terms of p: one for a nonzero homogeneous p."""
    return {pairs_weight(mono) for mono, _ in pair_terms(p)}


def homogeneous_components(p: MultiPoly) -> list[MultiPoly]:
    """Split into weighted-homogeneous parts, indexed by degree.

    Returns a list comps with comps[i] homogeneous of degree i and
    sum(comps) == p.
    """
    buckets: dict[int, dict] = {}
    for mono, coeff in pair_terms(p):
        buckets.setdefault(pairs_weight(mono), {})[mono] = coeff
    return [from_pairs(buckets.get(d, {}).items()) for d in range(max(buckets, default=-1) + 1)]


def ev_homomorphism(p: MultiPoly, semigroup: NumericalSemigroup) -> MultiPoly:
    """Evaluation at the monomial fixed point of a semigroup.

    The substitution lambda_i -> e_i(a_1, ..., a_g) psi^i, a_1..a_g the
    gaps, is a ring homomorphism onto Q[psi].
    """
    for v in p.variables():
        if v.family not in ("lambda", "psi"):
            raise ValueError("ev expects a polynomial in lambda and psi")
    psi = MultiPoly.variable(PSI)
    e_values = elementary_of_values(semigroup.gaps, semigroup.genus)
    return p.substitute({lam(i): (psi**i).scale(e_values[i]) for i in range(1, len(e_values))})


def fixed_point_value(p: MultiPoly, gaps) -> int | Fraction:
    """p at lambda_i -> e_i(gaps) and psi -> 1.

    For a homogeneous class this is the coefficient of the one power of
    psi that ev_homomorphism leaves, so it is zero exactly when that is.
    The values are ints, so the sum is taken in ints: `evaluate`, in
    Fractions, takes about four times as long.
    """
    e_values = elementary_of_values(gaps, len(gaps))
    point = {lam(i): e_values[i] for i in range(1, len(e_values))}
    point[PSI] = 1
    unpack = p.layout.unpack
    return sum(coeff * math.prod(point[v] ** e for v, e in unpack(mono)) for mono, coeff in p.items())


def hook_product(mu: Partition) -> int:
    """prod over the cells (i, j) of mu of the hook length mu_i - j + mu'_j - i + 1."""
    conj = mu.conjugate()
    return math.prod(
        mu[i] - j + conj[j] - i - 1 for i in range(mu.length) for j in range(mu[i])
    )


def evaluate(p: MultiPoly, point) -> Fraction:
    """p at point, a map from each variable of p to a number."""
    unpack = p.layout.unpack
    total = Fraction(0)
    for mono, coeff in p.items():
        term = Fraction(coeff)
        for var, e in unpack(mono):
            term *= Fraction(point[var]) ** e
        total += term
    return total


def partition_contains(outer: Partition, inner: Partition) -> bool:
    """Young diagram containment: inner fits inside outer."""
    return all(inner.part(i) <= outer.part(i) for i in range(1, inner.length + 1))


# -- index sequences: semigroups as Maya diagrams --------------------------


class IndexSequence(namedtuple("IndexSequence", "d head")):
    """Strictly decreasing integer sequence with eventual tail s_i = d - i.

    Only the exceptional head is stored; d is the virtual cardinality of
    the realized set.  The head is kept minimal: a trailing entry equal
    to the tail value at its position is absorbed into the tail.
    """

    __slots__ = ()

    def __new__(cls, d: int, head=()) -> "IndexSequence":
        head = tuple(int(s) for s in head)
        # normalize: drop trailing entries that already obey the tail rule
        while head and head[-1] == d - len(head):
            head = head[:-1]
        if any(head[i] <= head[i + 1] for i in range(len(head) - 1)):
            raise DataError("index sequence must be strictly decreasing")
        if head and head[-1] <= d - (len(head) + 1):
            raise DataError("head does not decrease into the tail")
        return super().__new__(cls, d, head)

    @property
    def head_length(self) -> int:
        return len(self.head)

    def s(self, i: int) -> int:
        """1-based entry, tail rule beyond the head."""
        if i < 1:
            raise IndexError("entries are 1-based")
        if i <= len(self.head):
            return self.head[i - 1]
        return self.d - i

    def contains(self, n: int) -> bool:
        return n in self.head or n <= self.d - (len(self.head) + 1)

    def entries(self, count: int) -> tuple[int, ...]:
        return tuple(self.s(i) for i in range(1, count + 1))

    def __repr__(self) -> str:
        return f"IndexSequence(d={self.d}, head={list(self.head)})"


def weierstrass_sequence(semigroup: NumericalSemigroup) -> IndexSequence:
    """Index sequence of a semigroup: s_i = a_{g-i+1} - 1, tail g - 1 - i."""
    g = semigroup.genus
    head = tuple(semigroup.gaps[g - i] - 1 for i in range(1, g + 1))
    return IndexSequence(d=g - 1, head=head)


def semigroup_from_sequence(seq: IndexSequence):
    """Invert weierstrass_sequence: the set of n with n - 1 not in the sequence.

    Returns None when that set is not a numerical semigroup (not contained
    in the non-negative integers, missing 0, or not additively closed).
    """
    # every integer <= -2 must lie in the sequence, else a negative number
    # would be a member of the candidate set; -1 must not, else 0 is a gap
    low = seq.d - (seq.head_length + 1)
    if seq.contains(-1) or not all(seq.contains(n) for n in range(low, -1)):
        return None
    gaps = [n for n in range(1, max(seq.head, default=0) + 2) if seq.contains(n - 1)]
    try:
        return NumericalSemigroup.from_gaps(gaps)
    except DataError:  # not additively closed
        return None


def partition_from_sequence(seq: IndexSequence) -> Partition:
    """mu_i = s_i + i - d with trailing zeros dropped.

    A strictly decreasing sequence with tail d - i has s_i >= d - i, so
    every mu_i is non-negative, and the mu_i weakly decrease.
    """
    return Partition.of(s + i - seq.d for i, s in enumerate(seq.head, start=1))


def hprime_partition(seq: IndexSequence, genus: int) -> Partition:
    """Partition of a genus-g sequence under the index-g component convention.

    Requires the tail rule s_i = g - 1 - i and -1 not in the sequence.
    Raising every negative entry by one closes the gap at -1 and gives a
    sequence of virtual cardinality g, whose partition_from_sequence this
    is.  The result has length at most g.
    """
    if seq.d != genus - 1:
        raise DataError("sequence is not in the genus-g component")
    if seq.contains(-1):
        raise DataError("sequence not in H'")
    raised = [s + (s < 0) for s in seq.entries(max(seq.head_length, genus))]
    part = partition_from_sequence(IndexSequence(genus, raised))
    if part.length > genus:
        raise DataError("partition length exceeds the genus")
    return part


def is_realizable(seq: IndexSequence, genus: int) -> bool:
    """Whether some semigroup sequence dominates seq entrywise.

    Equivalent bound test: s_i <= 2g - 2i for i <= g and
    s_i <= g - i - 1 beyond.
    """
    horizon = max(seq.head_length, genus)
    for i in range(1, horizon + 1):
        bound = 2 * genus - 2 * i if i <= genus else genus - i - 1
        if seq.s(i) > bound:
            return False
    # beyond the head the tail rule gives s_i = d - i <= g - i - 1
    # exactly when d <= g - 1
    return seq.d <= genus - 1


def dual_index_set(seq: IndexSequence) -> IndexSequence:
    """The index set {m : -1 - m not in seq}, as an IndexSequence.

    For the sequence of a semigroup H this is -H; the operation is an
    involution.
    """
    # m > hi implies -1 - m lies in the tail of seq, so m is excluded;
    # m < lo implies -1 - m exceeds every entry of seq, so m belongs.
    # Reflection m -> -1 - m negates the charge (the virtual cardinality).
    hi = seq.head_length - seq.d
    lo = min(-2 - max(seq.head, default=seq.d - seq.head_length - 1), -1)
    return IndexSequence(-seq.d, [m for m in range(hi, lo - 1, -1) if not seq.contains(-1 - m)])


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


def listed_closure_witness(gaps: set[int]):
    """semigroups._closure_witness by listing every non-gap up to the
    largest gap and testing the pairs in lexicographic order."""
    if not gaps:
        return None
    top = max(gaps)
    nongaps = [n for n in range(1, top + 1) if n not in gaps]
    for x, y in combinations_with_replacement(nongaps, 2):
        if x + y <= top and (x + y) in gaps:
            return (x, y)
    return None


def sequence_from_hprime_partition(mu: Partition, genus: int) -> IndexSequence:
    """Inverse of hprime_partition for partitions of length at most g."""
    if mu.length > genus:
        raise DataError("partition longer than the genus")
    head = tuple(mu.part(i) + genus - i for i in range(1, genus + 1))
    return IndexSequence(d=genus - 1, head=head)


def piecewise_hprime_partition(seq: IndexSequence, genus: int) -> Partition:
    """hprime_partition by mu_i = s_i + i - g up to the last non-negative
    entry and mu_i = s_i + i - g + 1 afterwards."""
    if seq.d != genus - 1:
        raise DataError("sequence is not in the genus-g component")
    if seq.contains(-1):
        raise DataError("sequence not in H'")
    horizon = max(seq.head_length, genus) + 1
    entries = seq.entries(horizon)
    i_zero = 0
    for i, s_i in enumerate(entries, start=1):
        if s_i >= 0:
            i_zero = i
    parts = []
    for i, s_i in enumerate(entries, start=1):
        mu_i = s_i + i - genus if i <= i_zero else s_i + i - genus + 1
        if mu_i < 0:
            raise DataError("sequence entry below the tail rule; no partition")
        parts.append(mu_i)
    while parts and parts[-1] == 0:
        parts.pop()
    part = Partition(tuple(parts))
    if part.length > genus:
        raise DataError("partition length exceeds the genus")
    return part


def counted_dual_index_set(seq: IndexSequence) -> IndexSequence:
    """dual_index_set with the virtual cardinality counted: the members
    m >= 0 less the integers m < 0 that are not members."""
    hi = seq.head_length - seq.d
    lo = min(-2 - max(seq.head, default=seq.d - seq.head_length - 1), -1)
    members = [m for m in range(hi, lo - 1, -1) if not seq.contains(-1 - m)]
    positives = sum(1 for m in members if m >= 0)
    member_set = set(members)
    missing_negatives = max(0, -1 - hi)  # negatives above the window
    missing_negatives += sum(1 for m in range(lo, min(hi, -1) + 1) if m not in member_set)
    d = positives - missing_negatives
    return IndexSequence(d=d, head=tuple(members))


# -- Bernoulli numbers ---------------------------------------------------------


def recurrence_bernoulli(n: int) -> list[Fraction]:
    """B_0..B_n (B_1 = -1/2 convention) by the binomial recurrence

        sum_{j<=m} C(m+1, j) B_j = 0   (m >= 1),

    in Fractions, the even numbers built bottom-up; B_j = 0 for odd j >= 3.
    """
    evens = [Fraction(1)]  # B_0, B_2, B_4, ...
    for m in range(2, n + 1, 2):
        acc = Fraction(1 - m, 2)  # the j = 0 and j = 1 terms, 1 + (m + 1) B_1
        for i in range(1, m // 2):
            acc += math.comb(m + 1, 2 * i) * evens[i]
        evens.append(-acc / (m + 1))
    return [evens[j // 2] if j % 2 == 0 else Fraction(-1 if j == 1 else 0, 2) for j in range(n + 1)]
