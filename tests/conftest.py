"""Counterexamples pinned by test_findings.py, shared with the acceptance suite.

Each fixture builds one hand-checked square from split extensions of order
2 and 4 groups.  The acceptance tests of the refuted laws check that their
default family contains the order-2 ones and that each fails there.
"""

import pytest

from topab.extensions import Section, cocycle_extension, section_census
from topab.groups import FinAbGroup, identity_hom, zero_hom
from topab.search import (
    FiveLemmaInstance,
    P3Instance,
    RowData,
)
from topab.topology import discrete

from builders import factor_set, indiscrete

Z2 = FinAbGroup([2])
K4 = FinAbGroup([2, 2])


def _split_row(a_top, b_top) -> RowData:
    """The split extension of b_top by a_top with its first topologizing
    section."""
    h = factor_set(a_top.group, b_top.group, {})
    census = section_census(cocycle_extension(a_top, b_top, h))
    return RowData(a_top, b_top, h, next(census.sections()))


def _mixed_row():
    """The row (discrete Z2) x (indiscrete Z2) and the lift sending the
    generator b of its quotient to iota(1) + s(b)."""
    r = _split_row(discrete(Z2), indiscrete(Z2))
    alg = r.alg
    return r, Section(Z2, alg.G, (((0,), alg.G.zero), ((1,), alg.G.add(alg.iota((1,)), r.s((1,))))))


@pytest.fixture
def shear_square() -> P3Instance:
    """gamma(a, b) = (a + b, b) over identity alpha and beta on the mixed
    row: refutes five_lemma_nagao."""
    r, lift = _mixed_row()
    return P3Instance(r, r, identity_hom(Z2), identity_hom(Z2), lift)


@pytest.fixture
def shear_five_term() -> FiveLemmaInstance:
    """The same shear, zero-padded to five terms: refutes
    five_lemma_topological."""
    r, lift = _mixed_row()
    return FiveLemmaInstance("zero_pad", r, r, None, identity_hom(Z2), identity_hom(Z2), lift)


@pytest.fixture
def forward_open_fibers_square() -> P3Instance:
    """Discrete Z2 rows into indiscrete K4 by discrete Z2, zero alpha and
    beta, gamma(a, b) = iota2(sigma(b)) with sigma(1) = (0, 1): refutes the
    strict clauses of open_fibers and p3_discrete."""
    r1 = _split_row(discrete(Z2), discrete(Z2))
    r2 = _split_row(indiscrete(K4), discrete(Z2))
    alg2 = cocycle_extension(r2.A, r2.B, r2.h)
    lift = Section(Z2, alg2.G, (((0,), alg2.G.zero), ((1,), alg2.iota((0, 1)))))
    return P3Instance(r1, r2, zero_hom(Z2, K4), zero_hom(Z2, Z2), lift)


@pytest.fixture
def converse_open_fibers_square() -> P3Instance:
    """Discrete Z2 rows into the mixed row, zero alpha, beta = id from
    discrete to indiscrete Z2, gamma(a, b) = (b, b): refutes the strict
    clauses of open_fibers and p3_discrete."""
    r1 = _split_row(discrete(Z2), discrete(Z2))
    r2, lift = _mixed_row()
    return P3Instance(r1, r2, zero_hom(Z2, Z2), identity_hom(Z2), lift)
