"""Shared brute-force oracles, independent of the package internals.

These work on plain lists of 0/1 ints so they can cross-check the
bit-packed implementations.
"""

from itertools import combinations

import pytest


def to_lists(m):
    """A BitMatrix as one list of 0/1 ints per row, bit j of a row in column j."""
    return [[(r >> j) & 1 for j in range(m.cols)] for r in m.data]


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


def reference_min_weight(code, w_max):
    """(d_x, d_z) by enumerating every support of each weight up to w_max,
    as css_code.distance did before it looked up the last column by
    syndrome; None means no logical of weight <= w_max."""
    def search(h_other, h_same):
        cols = h_other.transpose().data
        for w in range(1, w_max + 1):
            for combo in combinations(range(len(cols)), w):
                syn = 0
                for q in combo:
                    syn ^= cols[q]
                if syn == 0 and not h_same.in_row_space(sum(1 << q for q in combo)):
                    return w
        return None

    return search(code.hz, code.hx), search(code.hx, code.hz)


def min_codeword_weight_bruteforce(g_rows):
    best = None
    for v in all_span_vectors(g_rows):
        w = sum(v)
        if w and (best is None or w < best):
            best = w
    return best


def single_check_flip_witness(code):
    """Per check row, a qubit whose single opposite-type error flips only it.

    Returns {"x": {row: qubit or None}, "z": {row: qubit or None}}; a Z
    error at the reported qubit flips exactly that hx row (and dually).
    """
    out = {"x": {}, "z": {}}
    for key, h in (("x", code.hx), ("z", code.hz)):
        cols = h.transpose().data
        for r in range(h.rows):
            out[key][r] = next((q for q, col in enumerate(cols) if col == 1 << r), None)
    return out


@pytest.fixture(scope="session")
def flagship_code():
    from f2qec import build_25_4_3

    return build_25_4_3()


def mwe_oracle(problem, w_max):
    """Exhaustive minimum-weight decoding, lexicographic tie-break.

    The soft weight sums the unclipped prior LLRs of the estimate left to
    right in ascending column order, as the decoder's own soft weight does.
    """
    import math

    from f2qec.decoder import DecodeResult

    h = problem.h
    if problem.syndrome == 0:
        return DecodeResult(0, True, "MWE", 0.0)
    cols = h.transpose().data
    for w in range(1, w_max + 1):
        for combo in combinations(range(h.cols), w):
            syn = 0
            for j in combo:
                syn ^= cols[j]
            if syn == problem.syndrome:
                llrs = [math.log((1 - p) / p) for p in problem.priors]
                weight = 0.0
                for j in combo:  # left to right: sum() compensates rounding from Python 3.12 on
                    weight += llrs[j]
                return DecodeResult(sum(1 << j for j in combo), True, "MWE", weight)
    raise ValueError(f"no solution of weight <= {w_max}")


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
        x = on_basis.transpose().solution_with_coefficients(rhs)
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


# A fault is a Pauli on an op's (first, second) qubit coded 4 * first +
# second, with 0=I, 1=X, 2=Y, 3=Z; _FLIPS[code] holds its (x first,
# z first, x second, z second) frame flips.  _FAULT_CODES gives each op's
# fault kind and its faults in order: X, Y, Z after H; the 15 non-identity
# pairs after a CNOT; X after PREPZ and Z after PREPX; the Pauli that
# anticommutes with a measurement, which flips its outcome.
_FLIPS = [[p in (1, 2), p in (2, 3), q in (1, 2), q in (2, 3)] for p in range(4) for q in range(4)]
_FAULT_CODES = {"H": ("gate1", (4, 8, 12)), "CNOT": ("gate2", tuple(range(1, 16))),
                "PREPZ": ("prep", (4,)), "PREPX": ("prep", (12,)),
                "MEASZ": ("meas", (4,)), "MEASX": ("meas", (12,))}


def reference_propagate(circuit, flips):
    """Propagate Pauli frames through circuit, one bool column per flip pattern.

    Each qubit's X and Z frame is a dense bool row over the columns, and
    both start at 0.  flips[k] (4 x columns) flips the frames after
    instruction k in the slots of _FLIPS; at a measurement, the measured
    frame's slot flips the outcome and the other slot flips the other
    frame.  A CNOT XORs the control's X row into the target's and the
    target's Z row into the control's, H swaps a qubit's rows, a
    preparation overwrites them, RELABEL moves qubit q's rows to perm[q]
    and INJECT changes no frame.  Returns the measurement flips (one row
    per record tag) and the residual X and Z frames (one row per qubit).
    """
    import numpy as np

    x = np.zeros((circuit.n_qubits, flips.shape[-1]), dtype=bool)
    z = np.zeros_like(x)
    meas = []
    for ins, f in zip(circuit.instructions, flips):
        op, qs = ins.op, ins.qubits
        if op == "CNOT":
            a, b = qs
            x[b] ^= x[a]
            z[a] ^= z[b]
            x[a] ^= f[0]
            z[a] ^= f[1]
            x[b] ^= f[2]
            z[b] ^= f[3]
        elif op == "MEASZ":
            meas.append(x[qs[0]] ^ f[0])
            z[qs[0]] ^= f[1]
        elif op == "MEASX":
            meas.append(z[qs[0]] ^ f[1])
            x[qs[0]] ^= f[0]
        elif op in ("PREPZ", "PREPX"):
            x[qs[0]] = f[0]
            z[qs[0]] = f[1]
        elif op == "H":
            a = qs[0]
            x[a], z[a] = z[a] ^ f[0], x[a] ^ f[1]
        elif op == "RELABEL":
            inv = np.argsort(ins.perm)
            x = x[inv]
            z = z[inv]
    return np.array(meas, dtype=bool).reshape(len(meas), flips.shape[-1]), x, z


def reference_fault_rows(circuit):
    """The single faults from their definition: one bool row per fault.

    The faults are those of _FAULT_CODES at each instruction, in
    instruction order.  Each is one column of a dense flip array
    (instructions x 4 x faults) with its _FLIPS at its instruction, and
    reference_propagate gives its row: its record flips (one per tag),
    then its residual X and residual Z frames (one per qubit).
    """
    import numpy as np

    columns = [(k, code) for k, ins in enumerate(circuit.instructions)
               if ins.op in _FAULT_CODES for code in _FAULT_CODES[ins.op][1]]
    flips = np.zeros((len(circuit.instructions), 4, len(columns)), dtype=bool)
    for c, (k, code) in enumerate(columns):
        flips[k, :, c] = _FLIPS[code]
    return np.hstack([rows.T for rows in reference_propagate(circuit, flips)])


def reference_sample_outcomes(circuit, nm, seed, shots):
    """The frame sampler with float32 counts: outcome bits (record tags x shots).

    Each block of SHOT_BLOCK shots draws from a generator seeded (seed, 0,
    block).  For each fault kind with a location and a nonzero rate, in the
    order gate1, gate2, prep, meas: a binomial number of failing (location,
    shot) cells, chosen without replacement, then one fault per cell,
    uniform over its location's faults in _FAULT_CODES; each fault's record
    row of reference_fault_rows is added to its shot's float32 counts.  Then
    one draw gives the circuit's k random outcomes per shot, the record
    map's draw coefficients of the set bits are added by one float32
    product, on top of its constant bits, and a shot's outcomes are its
    counts mod 2.  A partial last block draws the whole block.
    """
    import numpy as np

    from f2qec.stab_sim import SHOT_BLOCK

    tags = circuit.tags
    records = reference_fault_rows(circuit)[:, :len(tags)].astype(np.float32)
    kinds, first = {}, 0  # each kind's record rows, sites x faults per site x tags
    for ins in circuit.instructions:
        if ins.op in _FAULT_CODES:
            kind, codes = _FAULT_CODES[ins.op]
            kinds.setdefault(kind, []).append(records[first:first + len(codes)])
            first += len(codes)
    k, forms = circuit._record_map
    const = np.array([forms[t] & 1 for t in tags], dtype=np.float32)
    draws = np.array([[(forms[t] >> (j + 1)) & 1 for t in tags] for j in range(k)],
                     dtype=np.float32).reshape(k, len(tags))
    rates = {"gate1": nm.p1, "gate2": nm.p2, "prep": nm.p_spam, "meas": nm.p_spam}
    noise = [(p, np.array(kinds[kind])) for kind, p in rates.items() if kind in kinds and p > 0.0]
    meas = np.empty((len(tags), max(shots, 0)), dtype=bool)
    for block in range(-(-shots // SHOT_BLOCK)):
        rng = np.random.default_rng([seed, 0, block])
        counts = np.full((SHOT_BLOCK, len(tags)), const, dtype=np.float32)  # one row per shot
        for p, columns in noise:
            cells = columns.shape[0] * SHOT_BLOCK
            site, shot = np.divmod(rng.choice(cells, rng.binomial(cells, p), replace=False),
                                   SHOT_BLOCK)
            rows = columns[site, rng.integers(columns.shape[1], size=len(site))]
            cell = shot[:, None] * len(tags) + np.arange(len(tags))
            np.add.at(counts.reshape(-1), cell.reshape(-1), rows.reshape(-1))
        bits = rng.integers(0, 2, (k, SHOT_BLOCK), dtype=bool)
        counts += bits.T.astype(np.float32) @ draws
        base = block * SHOT_BLOCK
        meas[:, base:base + SHOT_BLOCK] = (counts[:shots - base].astype(np.int32) & 1).T
    return meas


def reference_schedule_violations(code, schedule):
    """validate_schedule's violations from its definition, one residual at a time.

    Each single fault of the extraction circuit leaves a data error v per
    Pauli type.  If v is in the row space of the same-type checks, the
    fault is harmless.  Otherwise, if the opposite-type syndrome s of v is
    0, the fault is a logical operator.  Otherwise, for d >= 3 (3 when the
    code does not know d), among the qubits q whose column of the opposite
    checks is s, if there is one and no v ^ e_q is in the row space, the
    first such q is reported.  Violations are in case order, X before Z.
    """
    from f2qec import protocol as pr
    from f2qec import stab_sim as ss

    cases = ss.enumerate_single_faults(pr.syndrome_extraction_circuit(code, schedule, which="both"))
    d = code.d if code.d is not None else 3

    def decide(v, h_same, h_other):
        if h_same.in_row_space(v):
            return None
        s = h_other.mul_vec(v)
        if s == 0:
            return "single fault is a logical operator"
        if d >= 3:
            qs = [q for q in range(code.n) if h_other.mul_vec(1 << q) == s]
            if qs and not any(h_same.in_row_space(v ^ (1 << q)) for q in qs):
                return f"one more fault at qubit {qs[0]} completes a logical"
        return None

    data = (1 << code.n) - 1
    violations = []
    for c in cases:
        for v, h_same, h_other in ((c.final_x & data, code.hx, code.hz),
                                   (c.final_z & data, code.hz, code.hx)):
            message = decide(v, h_same, h_other)
            if message is not None:
                violations.append((c.instruction_index, c.kind, c.pauli, message))
    return violations


def reference_noise_flips(circuit, nm, rng, shots):
    """One seeded block's noise as one dense flip array, and its random outcomes.

    Returns a bool array (instructions x 4 x shots) of flip slots (x first,
    z first, x second, z second) per instruction and shot, for
    reference_propagate to propagate from zero frames, and a bool array (k x shots) of
    the circuit's k random outcomes per shot.  The fault kinds are drawn
    in the order gate1 (H), gate2 (CNOT), prep, meas, each only when it
    has a location and a nonzero rate: a binomial number of failing (location, shot) cells,
    chosen without replacement, then one fault per cell, uniform over its
    location's faults in _FAULT_CODES.  Then one draw gives k uniform
    bits per shot, k being the number of random outcomes in the circuit's
    record map.
    """
    import numpy as np

    flips = np.array(_FLIPS, dtype=bool)
    rates = {"gate1": nm.p1, "gate2": nm.p2, "prep": nm.p_spam, "meas": nm.p_spam}
    out = np.zeros((len(circuit.instructions), 4, shots), dtype=bool)
    for kind, p in rates.items():
        sites = [(k, _FAULT_CODES[ins.op][1]) for k, ins in enumerate(circuit.instructions)
                 if ins.op in _FAULT_CODES and _FAULT_CODES[ins.op][0] == kind]
        if not sites or p <= 0.0:
            continue
        pos = np.array([k for k, _ in sites])
        codes = np.array([c for _, c in sites])
        cells = len(sites) * shots
        site, shot = np.divmod(rng.choice(cells, rng.binomial(cells, p), replace=False), shots)
        pick = codes[site, rng.integers(codes.shape[1], size=len(site))]
        out[pos[site], :, shot] = flips[pick]
    return out, rng.integers(0, 2, (circuit._record_map[0], shots), dtype=bool)


def reference_statevector(circuit, draws):
    """A dense statevector run from |0...0> of a circuit on at most 5 qubits:
    ({tag: (probability of outcome 1, outcome)}, the number of random outcomes).

    Bit q of a basis-state index is qubit q.  A measurement whose outcome
    has probability 1/2 is random and takes the next of draws; PREPZ and
    PREPX measure (a random outcome taking a draw, as in the tableau) and
    then flip the qubit to |0> or |+>.  MEASX and PREPX measure between two
    Hadamards, and RELABEL moves qubit q to perm[q]."""
    import numpy as np

    n = circuit.n_qubits
    assert n <= 5
    index = np.arange(1 << n)
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    used = 0
    records = {}

    def bit(q):
        return (index >> q) & 1

    def hadamard(q):
        lo, hi = psi[bit(q) == 0], psi[bit(q) == 1]
        psi[bit(q) == 0], psi[bit(q) == 1] = (lo + hi) / np.sqrt(2), (lo - hi) / np.sqrt(2)

    def measure_z(q):
        nonlocal psi, used
        p1 = float(np.sum(np.abs(psi[bit(q) == 1]) ** 2))
        if abs(p1 - 0.5) < 1e-9:
            outcome = draws[used]
            used += 1
        else:
            assert min(p1, 1.0 - p1) < 1e-9, p1
            outcome = round(p1)
        psi = np.where(bit(q) == outcome, psi, 0.0)
        psi /= np.linalg.norm(psi)
        return p1, outcome

    for ins in circuit.instructions:
        op, qs = ins.op, ins.qubits
        if op in ("H", "MEASX", "PREPX"):
            hadamard(qs[0])
        if op in ("MEASZ", "MEASX"):
            records[ins.tag] = measure_z(qs[0])
        elif op in ("PREPZ", "PREPX") and measure_z(qs[0])[1]:
            psi = psi[index ^ (1 << qs[0])]
        elif op == "CNOT":
            psi = psi[index ^ (bit(qs[0]) << qs[1])]
        elif op == "INJECT":
            if ins.pauli in "XY":
                psi = psi[index ^ (1 << qs[0])]
            if ins.pauli in "YZ":
                psi = psi * (1 - 2 * bit(qs[0]))
        elif op == "RELABEL":
            moved = np.zeros_like(psi)
            moved[sum(bit(q) << p for q, p in enumerate(ins.perm))] = psi
            psi = moved
        if op in ("MEASX", "PREPX"):
            hadamard(qs[0])
    return records, used
