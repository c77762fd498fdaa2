"""Hilbert-function bounds: the staircase count against its oracle and limits."""

from math import comb

import pytest

from oracles import coefficient_rows, lambda_psi_monomials
from wtaut.exactalg import rank_over_q
from wtaut.tautring import (
    hilbert_quotient_lower,
    hilbert_quotient_upper,
    relation_generators,
)


def _upper_by_rank(g: int, cutoff: int) -> list[int]:
    """dim A_d minus the rank of the degree-d slice of the relation ideal,
    spanned by every product of a monomial with a generator."""
    generators = relation_generators(g, cutoff) if g >= 1 else []
    dims = []
    for d in range(cutoff + 1):
        basis = lambda_psi_monomials(g, d)
        products = [
            m * gen
            for mu, gen in generators
            if mu.weight <= d
            for m in lambda_psi_monomials(g, d - mu.weight)
        ]
        rank = rank_over_q(coefficient_rows(products, basis)) if products else 0
        dims.append(len(basis) - rank)
    return dims


@pytest.mark.parametrize("g, cutoff", [(0, 12), (1, 12), (2, 12), (3, 12), (4, 12), (5, 10)])
def test_staircase_count_matches_product_rank_oracle(g, cutoff):
    assert hilbert_quotient_upper(g, cutoff) == _upper_by_rank(g, cutoff)


@pytest.mark.parametrize("g", range(7))
def test_upper_bound_levels_off_at_catalan(g):
    catalan = comb(2 * g + 2, g + 1) // (g + 2)
    top = g * (g + 1) // 2
    for cutoff in (top, top + 2):
        assert hilbert_quotient_upper(g, cutoff)[-1] == catalan


@pytest.mark.parametrize("g", range(7))
def test_lower_bound_never_exceeds_upper(g):
    lower = hilbert_quotient_lower(g, 10)
    upper = hilbert_quotient_upper(g, 10)
    assert len(lower) == len(upper) == 11
    assert all(lo <= up for lo, up in zip(lower, upper))
