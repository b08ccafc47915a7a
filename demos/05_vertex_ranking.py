#!/usr/bin/env python3
"""Rank vertices by their impact factor (entries of the best weighting) and
show how the spectral parameter changes the meaning of the ranking: small p
singles out the strongest group, large p scores vertices individually.

The instance: two disjoint triples where one edge carries weight 1.5.
"""

from hyperspec import Hypergraph, SolverConfig, rank_vertices

g = Hypergraph.from_edges(
    n=6, r=3, edges=[(1, 2, 3), (4, 5, 6)], weights=[1.0, 1.5]
)

for p in (4.0 / 3.0, 5.0, 16.0):
    rep = rank_vertices(g, SolverConfig(p=p, runs=10, seed=0))
    print(f"p = {p:g}   lambda = {rep.lam:.9f}")
    print(f"{'rank':>5} {'vertex':>7} {'impact factor':>16}")
    for i, (v, val) in enumerate(rep.entries, start=1):
        print(f"{i:>5} {v:>7} {val:>16.10f}")
    print()

print("at p = 4/3 the heavy edge's vertices dominate by many orders of")
print("magnitude (a group ranking); at p = 16 all six factors are within a")
print("few percent of each other (an individual ranking).")
