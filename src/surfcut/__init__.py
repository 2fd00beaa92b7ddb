"""Exact f-sparsest cuts of multigraphs cellularly embedded on orientable surfaces.

The pipeline: parse a rotation system, build the geometric dual, attach a
balance weight and a homology coordinate to every dual dart, collect shortest
closed walks in the dual per (weight, homology) tag, combine at most genus+1
of them into a null-homologous chain of minimum quotient, and peel the chain
back into an actual vertex cut by a threshold argument.  All arithmetic on
cut values is exact rational.
"""

from surfcut.embedding import EmbeddedGraph, EmbeddingError, parse_embedding
from surfcut.balance import BalanceFunction, make_balance
from surfcut.solver import CutResult, SolveContext, solve
from surfcut.oracle import brute_force_cut

__all__ = [
    "BalanceFunction",
    "CutResult",
    "EmbeddedGraph",
    "EmbeddingError",
    "SolveContext",
    "brute_force_cut",
    "make_balance",
    "parse_embedding",
    "solve",
]
