"""Hilbert-function bounds: the staircase count against its oracle and limits."""

from math import comb

import pytest

from oracles import (
    coefficient_rows, fixed_point_value, integer_rows, lambda_psi_monomials, lower_bound_by_degree,
)
from wtaut.exactalg import Echelon
from wtaut.semigroups import enumerate_semigroups
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
        rank = len(Echelon(integer_rows(coefficient_rows(products, basis))))
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


@pytest.mark.parametrize("g", range(8))
def test_incremental_lower_bound_matches_per_degree_ranks(g):
    assert hilbert_quotient_lower(g, 14) == lower_bound_by_degree(g, 14)


def test_lower_bound_levels_off_at_the_semigroup_count():
    lower = hilbert_quotient_lower(8, 16)
    assert lower == [1, 2, 4, 7, 12, 19, 30, 45, 58, 66] + [67] * 7
    assert len(enumerate_semigroups(8)) == 67


def test_lower_bound_at_genus_ten():
    # Values of the bound before it skipped the multiples of dependent
    # monomials, when every lambda-monomial was added as a row.
    lower = hilbert_quotient_lower(10, 16)
    assert lower == [1, 2, 4, 7, 12, 19, 30, 45, 67, 97, 128, 161, 192, 201, 203, 204, 204]


@pytest.mark.parametrize("g", range(1, 5))
def test_relation_generators_vanish_at_every_fixed_point(g):
    """I lies in I_ev, which is why the lower bound never exceeds the upper."""
    semis = enumerate_semigroups(g)
    for mu, relation in relation_generators(g, g * (g + 1) // 2 + 2):
        for h in semis:
            assert fixed_point_value(relation, h.gaps) == 0, (mu, h.gaps)
