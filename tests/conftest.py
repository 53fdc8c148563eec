"""Shared brute-force oracles, independent of the package internals.

These work on plain lists of 0/1 ints so they can cross-check the
bit-packed implementations.
"""

from itertools import combinations

import pytest


def gauss_jordan(rows):
    """Textbook Gauss-Jordan elimination on lists, lowest-index pivot row first.

    Returns (reduced rows, tags, pivot columns); tag i lists, as 0/1 per
    original row, the rows summed into reduced row i.
    """
    rows = [list(r) for r in rows]
    tags = [[int(i == k) for k in range(len(rows))] for i in range(len(rows))]
    pivots = []
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        tags[rank], tags[piv] = tags[piv], tags[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[rank])]
                tags[i] = [(a + b) % 2 for a, b in zip(tags[i], tags[rank])]
        pivots.append(c)
    return rows, tags, pivots


def gauss_rank(rows):
    """Row rank over GF(2) by textbook elimination on lists."""
    return len(gauss_jordan(rows)[2])


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
        weight = 0.0
        for j in support:  # left to right: sum() compensates rounding from Python 3.12 on
            weight += llr[j]
        return support, weight

    best, best_w = solve(())
    patterns = [(j,) for j in free] + list(combinations(free[:depth], 2))
    for pattern in patterns:
        support, w = solve(pattern)
        if w < best_w - 1e-12 or (abs(w - best_w) <= 1e-12 and support < best):
            best, best_w = support, w
    return sum(1 << j for j in best), best_w


def reference_min_sum(h, priors, syndrome, iters):
    """Plain min-sum BP from its definition, with explicit loops.

    Returns (estimate, converged, "BP", soft weight, posteriors).  Flooding
    schedule: check r sends each neighbour its syndrome sign times the
    signs and the smallest magnitude of the other incoming messages; each
    variable adds its clipped prior LLR to the incoming messages summed
    left to right in ascending check order, and sends each check that
    total minus the check's own message.  Totals and variable messages are
    clipped to [-LLR_CLIP, LLR_CLIP].  The estimate is the negative totals
    and stops the iterations once it reproduces the syndrome; the soft
    weight sums its prior LLRs in ascending column order.  A zero
    syndrome returns at once.
    """
    import math

    from f2qec.decoder import LLR_CLIP

    def clip(v):
        return max(-LLR_CLIP, min(LLR_CLIP, v))

    def soft_weight(e):
        w = 0.0
        for j in range(h.cols):
            if (e >> j) & 1:
                w += prior[j]
        return w

    prior = [clip(math.log((1.0 - p) / p)) for p in priors]
    if syndrome == 0:
        return 0, True, "BP", 0.0, tuple(prior)
    checks = [[j for j in range(h.cols) if (h.row(r) >> j) & 1] for r in range(h.rows)]
    v2c = {(r, j): prior[j] for r in range(h.rows) for j in checks[r]}
    c2v = {}
    posteriors = list(prior)
    hard = 0
    for _ in range(iters):
        for r, nbrs in enumerate(checks):
            for j in nbrs:
                sign = -1.0 if (syndrome >> r) & 1 else 1.0
                smallest = math.inf
                for k in nbrs:
                    if k != j:
                        v = v2c[(r, k)]
                        if v < 0:
                            sign = -sign
                        if abs(v) < smallest:
                            smallest = abs(v)
                c2v[(r, j)] = sign * smallest
        hard = 0
        for j in range(h.cols):
            incoming = 0
            for r in range(h.rows):
                if j in checks[r]:
                    incoming += c2v[(r, j)]
            total = clip(prior[j] + incoming)
            posteriors[j] = total
            for r in range(h.rows):
                if j in checks[r]:
                    v2c[(r, j)] = clip(total - c2v[(r, j)])
            if total < 0:
                hard |= 1 << j
        if all(bin(h.row(r) & hard).count("1") % 2 == (syndrome >> r) & 1 for r in range(h.rows)):
            return hard, True, "BP", soft_weight(hard), tuple(posteriors)
    return hard, False, "BP", soft_weight(hard), tuple(posteriors)


def _initial_z_flips_a_record(circuit, q):
    """Whether a Z on qubit q before the first instruction flips some outcome,
    followed through the circuit as sets of the qubits its X and Z parts are on."""
    x, z = set(), {q}
    for ins in circuit.instructions:
        op, qs = ins.op, ins.qubits
        if op == "CNOT":
            x ^= {qs[1]} if qs[0] in x else set()
            z ^= {qs[0]} if qs[1] in z else set()
        elif op == "H":
            a = {qs[0]}
            x, z = (x - a) | (z & a), (z - a) | (x & a)
        elif op in ("PREPZ", "PREPX"):
            x -= set(qs)
            z -= set(qs)
        elif (op == "MEASZ" and qs[0] in x) or (op == "MEASX" and qs[0] in z):
            return True
        elif op == "RELABEL":
            x, z = {ins.perm[p] for p in x}, {ins.perm[p] for p in z}
    return False


def reference_noise_flips(circuit, nm, rng, shots):
    """One seeded block's noise and random frames as one dense flip array.

    Returns a bool array (instructions x 4 x shots) of flip slots (x first,
    z first, x second, z second) per instruction and shot, and the Z frame
    (qubits x shots) that every shot starts with, for the frame kernel to
    propagate.  The fault kinds are drawn in the order gate1 (H),
    gate2 (CNOT), prep, meas, each only when it has a location and a
    nonzero rate: a binomial number of failing (location, shot) cells,
    chosen without replacement, then one fault per cell, uniform over its
    location's faults.  These are X, Y, Z after H; the 15 non-identity
    Pauli pairs after a CNOT, coded 4 * first + second with 0=I, 1=X, 2=Y,
    3=Z; X after PREPZ and Z after PREPX; the Pauli that anticommutes with
    a measurement, which flips its outcome.  Then every PREPZ and MEASZ
    gets a uniform bit in its Z slot and every PREPX and MEASX one in its
    X slot, one row of bits per op, and in the same draw, after those rows,
    each qubit whose initial Z frame flips some outcome gets one as its
    starting Z frame, in qubit order.
    """
    import numpy as np

    flips = np.array([[p in (1, 2), p in (2, 3), q in (1, 2), q in (2, 3)]
                      for p in range(4) for q in range(4)], dtype=bool)
    faults = {"H": ("gate1", (4, 8, 12)), "CNOT": ("gate2", tuple(range(1, 16))),
              "PREPZ": ("prep", (4,)), "PREPX": ("prep", (12,)),
              "MEASZ": ("meas", (4,)), "MEASX": ("meas", (12,))}
    rates = {"gate1": nm.p1, "gate2": nm.p2, "prep": nm.p_spam, "meas": nm.p_spam}
    out = np.zeros((len(circuit.instructions), 4, shots), dtype=bool)
    for kind, p in rates.items():
        sites = [(k, faults[ins.op][1]) for k, ins in enumerate(circuit.instructions)
                 if ins.op in faults and faults[ins.op][0] == kind]
        if not sites or p <= 0.0:
            continue
        pos = np.array([k for k, _ in sites])
        codes = np.array([c for _, c in sites])
        cells = len(sites) * shots
        site, shot = np.divmod(rng.choice(cells, rng.binomial(cells, p), replace=False), shots)
        pick = codes[site, rng.integers(codes.shape[1], size=len(site))]
        out[pos[site], :, shot] = flips[pick]
    collapse = [(k, int(ins.op in ("PREPZ", "MEASZ"))) for k, ins in enumerate(circuit.instructions)
                if ins.op in ("PREPZ", "MEASZ", "PREPX", "MEASX")]
    initial = [q for q in range(circuit.n_qubits) if _initial_z_flips_a_record(circuit, q)]
    bits = rng.integers(0, 2, (len(collapse) + len(initial), shots), dtype=bool)
    for (k, slot), row in zip(collapse, bits):
        out[k, slot] ^= row
    start_z = np.zeros((circuit.n_qubits, shots), dtype=bool)
    start_z[initial] = bits[len(collapse):]
    return out, start_z
