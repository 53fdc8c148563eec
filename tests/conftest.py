"""Shared brute-force oracles, independent of the package internals.

These work on plain lists of 0/1 ints so they can cross-check the
bit-packed implementations.
"""

from itertools import combinations

import pytest


def gauss_rank(rows):
    """Row rank over GF(2) by textbook elimination on lists."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def all_span_vectors(rows):
    """Every GF(2) combination of the given rows (lists)."""
    if not rows:
        return [[]]
    ncols = len(rows[0])
    out = [[0] * ncols]
    for r in rows:
        out += [[(a + b) % 2 for a, b in zip(v, r)] for v in out]
    # dedupe
    seen = set()
    uniq = []
    for v in out:
        t = tuple(v)
        if t not in seen:
            seen.add(t)
            uniq.append(v)
    return uniq


def matvec(rows, vec):
    return [sum(a * b for a, b in zip(r, vec)) % 2 for r in rows]


def min_logical_weight(h_other_rows, h_same_rows, n, wmax):
    """Smallest weight of a vector killed by h_other but outside span(h_same)."""
    span = {tuple(v) for v in all_span_vectors(h_same_rows)}
    for w in range(1, wmax + 1):
        for combo in combinations(range(n), w):
            vec = [0] * n
            for q in combo:
                vec[q] = 1
            if any(matvec(h_other_rows, vec)):
                continue
            if tuple(vec) not in span:
                return w
    return None


def code_distances(code_json, wmax):
    """(d_x, d_z) for a code serialized to JSON, by exhaustive search."""
    hx = [[int(ch) for ch in row] for row in code_json["hx"]["data"]]
    hz = [[int(ch) for ch in row] for row in code_json["hz"]["data"]]
    n = code_json["n"]
    dx = min_logical_weight(hz, hx, n, wmax)
    dz = min_logical_weight(hx, hz, n, wmax)
    return dx, dz


def min_codeword_weight_bruteforce(g_rows):
    best = None
    for v in all_span_vectors(g_rows):
        w = sum(v)
        if w and (best is None or w < best):
            best = w
    return best


@pytest.fixture(scope="session")
def flagship_code():
    from f2qec import build_25_4_3

    return build_25_4_3()


def reference_osd(h, priors, posteriors, syndrome, depth):
    """OSD combination sweep from its definition: (estimate, soft weight).

    Columns are ranked by (posterior, index); a ranked column joins the
    basis when it raises the rank.  Each candidate pattern on the free
    columns is completed by solving the basis columns for what is left of
    the syndrome.  Candidates are the zero pattern, every single free
    column, and every pair among the first `depth` free columns, scored by
    clipped prior LLRs summed in ascending column order; a candidate wins
    when it is lower by more than 1e-12, or tied with a smaller support.
    Raises ValueError when the syndrome is not in the column space.
    """
    import math

    from f2qec.decoder import LLR_CLIP
    from f2qec.f2linalg import BitMatrix

    llr = [max(-LLR_CLIP, min(LLR_CLIP, math.log((1 - p) / p))) for p in priors]
    column = [h.transpose().row(j) for j in range(h.cols)]
    order = sorted(range(h.cols), key=lambda j: (posteriors[j], j))
    basis = []
    for j in order:
        if BitMatrix.from_ints([column[k] for k in basis + [j]], h.rows).rank() > len(basis):
            basis.append(j)
    free = [j for j in order if j not in basis]
    on_basis = BitMatrix.from_ints([column[k] for k in basis], h.rows).transpose()

    def solve(pattern):
        rhs = syndrome
        for j in pattern:
            rhs ^= column[j]
        x = on_basis.solve(rhs)
        if x is None:
            raise ValueError("syndrome is not in the column space")
        support = sorted(list(pattern) + [basis[i] for i in range(len(basis)) if (x >> i) & 1])
        return support, sum(llr[j] for j in support)

    best, best_w = solve(())
    patterns = [(j,) for j in free] + list(combinations(free[:depth], 2))
    for pattern in patterns:
        support, w = solve(pattern)
        if w < best_w - 1e-12 or (abs(w - best_w) <= 1e-12 and support < best):
            best, best_w = support, w
    return sum(1 << j for j in best), best_w
