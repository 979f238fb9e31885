"""Finite topological abelian groups and a continuity-theorem test bench.

A finite abelian group carries a group topology exactly when its open sets
are the unions of cosets of a subgroup, the open core.  On top of that model
this package builds group extensions from factor sets, section-induced
topologies, Pontryagin duals, and exhaustive verifiers (with hypothesis-
dropping counterexample search) for a family of continuity-transfer laws.
"""

__version__ = "0.1.0"
