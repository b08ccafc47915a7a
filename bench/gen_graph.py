"""Seeded random 3-uniform weighted edge-list file for the ``rank-large`` workload.

The graph has skewed, Zipf-like vertex degrees, a few percent edges with a
repeated vertex (multiset edges) and a few percent duplicate edges, which
the parser merges by summing weights.  Weights are uniform in [0.5, 2].
Only the edge-list file is written; the program under test receives nothing
else.

    python3 bench/gen_graph.py --seed 1 --out graph.txt
"""

from __future__ import annotations

import argparse

import numpy as np

R = 3
N = 10_000
M = 20_000
ZIPF_EXPONENT = 0.8
REPEAT_FRAC = 0.03      # edges whose r slots hold a repeated vertex
DUPLICATE_FRAC = 0.03   # extra lines that repeat an earlier edge's vertex set


def make_edges(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (slots, weights): (M, R) 1-based vertex ids and (M,) weights."""
    rng = np.random.default_rng(seed)
    popularity = 1.0 / np.arange(1, N + 1) ** ZIPF_EXPONENT
    popularity /= popularity.sum()
    # random labels, so vertex id carries no information about degree
    labels = rng.permutation(N) + 1

    n_dup = int(DUPLICATE_FRAC * M)
    n_base = M - n_dup
    slots = labels[rng.choice(N, size=(n_base, R), p=popularity)]
    # distinct slots unless chosen to repeat; redraw collisions from uniform
    for _ in range(8):
        clash = (slots[:, 0] == slots[:, 1]) | (slots[:, 1] == slots[:, 2]) | (
            slots[:, 0] == slots[:, 2]
        )
        if not clash.any():
            break
        slots[clash, 2] = rng.integers(1, N + 1, size=int(clash.sum()))
    repeat = rng.random(n_base) < REPEAT_FRAC
    slots[repeat, 1] = slots[repeat, 0]

    dup_src = rng.integers(0, n_base, size=n_dup)
    dup = rng.permuted(slots[dup_src], axis=1)
    slots = np.concatenate([slots, dup])
    weights = rng.uniform(0.5, 2.0, size=M)
    order = rng.permutation(M)
    return slots[order], weights[order]


def write_edge_list(path: str, seed: int) -> None:
    slots, weights = make_edges(seed)
    with open(path, "w") as fh:
        fh.write(f"# rank-large benchmark graph, seed {seed}\n{R} {N}\n")
        for row, w in zip(slots.tolist(), weights.tolist()):
            fh.write(f"{row[0]} {row[1]} {row[2]} {w!r}\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    write_edge_list(args.out, args.seed)


if __name__ == "__main__":
    main()
