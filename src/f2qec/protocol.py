"""GHZ preparation circuits and their frame bookkeeping.

Builds syndrome-extraction gadgets with distance-preserving CNOT
schedules, the triple logical-X measurement gadget, and the full
physical and logical GHZ pipelines (transversal init, extraction,
logical measurement with postselection, two relabeling layers, and
transversal readout).  A FrameRecipe turns raw shot records into
syndromes and logical bits, per shot or as one GF(2) key matrix.
"""

from __future__ import annotations

from typing import NamedTuple

from . import stab_sim as ss
from .code_factory import build_25_4_3
from .css_code import CssCode
from .f2linalg import (BitMatrix, apply_permutation, inverse_permutation, mask_to_support,
                       parity, vector_from_bits)

ANCILLA_COUNT = 6


class Schedule(NamedTuple):
    """Per-check CNOT orders; each entry is a permutation of the check support."""

    x_orders: tuple[tuple[int, ...], ...]
    z_orders: tuple[tuple[int, ...], ...]


def _coord_map(code: CssCode) -> dict[int, tuple[int, int]]:
    if not code.coords or any(c[0] != "P" for c in code.coords):
        raise ValueError("schedule construction needs primary lattice coordinates")
    return {q: (c[1], c[2]) for q, c in enumerate(code.coords)}


def zigzag_schedule(code: CssCode) -> Schedule:
    """Serpentine CNOT orders running against each logical grain.

    X gadgets traverse one column fully before folding back up the next,
    so every hook suffix reduces to a vertical strip; Z gadgets do the
    transpose.  Requires every check support to be a rectangle at most
    two sites wide along its own grain.
    """
    coords = _coord_map(code)
    # In (site, line) coordinates an X check's lines are its columns; a Z
    # check's are its rows.
    points = {"X": coords, "Z": {q: (col, row) for q, (row, col) in coords.items()}}

    def serpentine(kind, h, r):
        # The points are distinct, so they fill the rectangle exactly when
        # their count is #sites x #lines.
        place = points[kind]
        pts = {place[q]: q for q in mask_to_support(h.row(r))}
        sites = sorted({s for s, _ in pts})
        lines = sorted({ln for _, ln in pts})
        if len(pts) != len(sites) * len(lines) or len(lines) > 2:
            raise ValueError(f"{kind} check support is not a rectangle of width <= 2 "
                             + ("columns" if kind == "X" else "rows"))
        return tuple(pts[s, ln] for k, ln in enumerate(lines)
                     for s in (reversed(sites) if k % 2 else sites))

    return Schedule(*(tuple(serpentine(kind, h, r) for r in range(h.rows))
                      for kind, h in (("X", code.hx), ("Z", code.hz))))


def row_major_schedule(code: CssCode) -> Schedule:
    """Ascending-index CNOT orders; deliberately ignores the grain."""
    xo = tuple(mask_to_support(code.hx.row(r)) for r in range(code.hx.rows))
    zo = tuple(mask_to_support(code.hz.row(r)) for r in range(code.hz.rows))
    return Schedule(xo, zo)


# --- gadget and circuit builders -------------------------------------------


def _logical_x_gadget(anc, order, tag):
    # |0>-ancilla convention: Hadamards sandwich the fan-out CNOTs.
    out = [ss.prepz(anc), ss.h(anc)]
    out += [ss.cnot(anc, q) for q in order]
    out += [ss.h(anc), ss.measz(anc, tag)]
    return out


def syndrome_extraction_circuit(code: CssCode, schedule: Schedule, which: str = "X") -> ss.Circuit:
    """One ancilla gadget per selected check, in schedule order.

    Every order must be a permutation of its check support, whichever
    checks are selected.  An X gadget fans out from a |+> ancilla; a Z
    gadget collects into a |0> ancilla.
    """
    if len(schedule.x_orders) != code.hx.rows or len(schedule.z_orders) != code.hz.rows:
        raise ValueError("schedule does not cover every check")
    ins = []
    g = 0
    for kind, h, orders in (("X", code.hx, schedule.x_orders), ("Z", code.hz, schedule.z_orders)):
        for r, order in enumerate(orders):
            # a permutation: as many int entries as the support, and the same set
            # (1.0 == 1, so the set alone lets a float through)
            row = h.row(r)
            if (len(order) != row.bit_count() or set(order) != set(mask_to_support(row))
                    or any(type(q) is not int for q in order)):
                raise ValueError(f"{kind} order {r} is not a permutation of the check support")
            if which not in (kind, "both"):
                continue
            anc, tag = code.n + (g % ANCILLA_COUNT), f"{kind.lower()}{r}"
            if kind == "X":
                ins += [ss.prepx(anc), *(ss.cnot(anc, q) for q in order), ss.measx(anc, tag)]
            else:
                ins += [ss.prepz(anc), *(ss.cnot(q, anc) for q in order), ss.measz(anc, tag)]
            g += 1
    if which not in ("X", "Z", "both"):
        raise ValueError("which must be X, Z, or both")
    return ss.Circuit(code.n + ANCILLA_COUNT, tuple(ins))


def physical_ghz_circuit(basis: str) -> ss.Circuit:
    """Four-qubit GHZ preparation: |+000> then a CNOT fan, then readout."""
    if basis not in ("z", "x"):
        raise ValueError("basis must be 'z' or 'x'")
    ins = [ss.prepx(0), ss.prepz(1), ss.prepz(2), ss.prepz(3)]
    ins += [ss.cnot(0, t) for t in (1, 2, 3)]
    meas = ss.measz if basis == "z" else ss.measx
    ins += [meas(q, f"d{q}") for q in range(4)]
    return ss.Circuit(4, tuple(ins))


class FrameRecipe(NamedTuple):
    """Shot-independent bookkeeping for a logical GHZ pipeline.

    key maps the record bits (circuit tag order: extraction outcomes m,
    xbar_0..2, data b) to a key word whose rows are the acceptance bits
    xbar_0^xbar_1 and xbar_0^xbar_2, the readout syndrome (hz*b in Z,
    hx*b ^ frame_map*m in X) and the raw logical bits (the logical-Z
    parities of b in Z; X-product*b ^ parity_check_coeffs*m ^ xbar_0 in X).
    """

    code: CssCode
    x_check_tags: tuple[str, ...]
    xbar_tags: tuple[str, ...]
    data_tags: tuple[str, ...]
    permutation: tuple[int, ...]      # composed data-qubit relabeling
    frame_map: BitMatrix              # recorded check outcomes -> final frame
    parity_check_coeffs: int          # stabilizer part of the pulled-back X product
    meas_parity_coeffs: int           # same coefficients over final check slots
    key: BitMatrix                    # record bits -> key word


class FrameState(NamedTuple):
    """Per-shot frame: postselection verdict, mapped check frame, parity flip."""

    accepted: bool
    x_frame: int
    xbar_sign: int
    parity_frame: int = 0


def _compose(p1, p2):
    return tuple(p2[p1[q]] for q in range(len(p1)))


def _frame_map(code: CssCode, inverse) -> BitMatrix:
    # the X checks relabeled by the permutation whose inverse is given
    basis = code.hx.permute_columns(inverse)
    rows = []
    for r in range(code.hx.rows):
        coeff = basis.solution_with_coefficients(code.hx.row(r))
        if coeff is None:
            raise ValueError("relabeling does not preserve the X check space")
        rows.append(coeff)
    return BitMatrix.from_ints(rows, code.hx.rows)


def _extend_perm(data_perm, total):
    return tuple(data_perm) + tuple(range(len(data_perm), total))


def _ghz_pipeline(code: CssCode, basis: str, data_perms, measured_logical: int,
                  schedule: Schedule) -> tuple[ss.Circuit, FrameRecipe]:
    if basis not in ("z", "x"):
        raise ValueError("basis must be 'z' or 'x'")
    n = code.n
    total = n + ANCILLA_COUNT
    ins = [ss.prepz(q) for q in range(n)]
    ins += syndrome_extraction_circuit(code, schedule, which="X").instructions
    g = code.hx.rows
    support = mask_to_support(code.logicals_x[measured_logical])
    xbar_tags = []
    for rep in range(3):
        tag = f"xbar_{rep}"
        ins += _logical_x_gadget(n + (g % ANCILLA_COUNT), support, tag)
        xbar_tags.append(tag)
        g += 1
    composed = tuple(range(n))
    for p in data_perms:
        ins.append(ss.relabel(_extend_perm(p, total)))
        composed = _compose(composed, p)
    meas = ss.measz if basis == "z" else ss.measx
    ins += [meas(q, f"d{q}") for q in range(n)]

    # The X-product readout operator pulls back through the relabelings to
    # the measured logical times an X-stabilizer element; the recorded
    # extraction outcomes over that element join the parity frame.
    inverse = inverse_permutation(composed)
    pulled = apply_permutation(code.logical_x_product, inverse)
    basis_m = BitMatrix.from_ints(list(code.hx.data) + list(code.logicals_x), n)
    coeff = basis_m.solution_with_coefficients(pulled)
    if coeff is None or (coeff >> code.hx.rows) != (1 << measured_logical):
        raise ValueError("relabelings do not route the X product onto the measured logical")
    lam = coeff & ((1 << code.hx.rows) - 1)
    frame_map = _frame_map(code, inverse)
    # A flagged final check slot implies a wrong recorded outcome; the same
    # stabilizer coefficients expressed over final slots let the decoder's
    # measurement-error estimate repair the parity frame.
    mu = frame_map.solution_with_coefficients(lam)
    if mu is None:
        raise ValueError("frame map is not invertible")
    r = code.hx.rows
    xbar = 1 << r
    key = [xbar | xbar << 1, xbar | xbar << 2]
    if basis == "z":
        key += [c << (r + 3) for c in code.hz.data + code.logicals_z]
    else:
        key += [c << (r + 3) | f for c, f in zip(code.hx.data, frame_map.data)]
        key.append(code.logical_x_product << (r + 3) | lam | xbar)
    recipe = FrameRecipe(
        code=code,
        x_check_tags=tuple(f"x{r}" for r in range(code.hx.rows)),
        xbar_tags=tuple(xbar_tags),
        data_tags=tuple(f"d{q}" for q in range(n)),
        permutation=composed,
        frame_map=frame_map,
        parity_check_coeffs=lam,
        meas_parity_coeffs=mu,
        key=BitMatrix.from_ints(key, r + 3 + n),
    )
    return ss.Circuit(total, tuple(ins)), recipe


def vertical_fold_swap() -> tuple[int, ...]:
    """Mirror the columns of the 5x5 lattice; on the flagship code this is
    the column swap {1,2} <-> {5,4}."""
    return tuple((q // 5) * 5 + 4 - q % 5 for q in range(25))


def horizontal_fold_swap() -> tuple[int, ...]:
    """Mirror the rows of the 5x5 lattice."""
    return tuple((4 - q // 5) * 5 + q % 5 for q in range(25))


def logical_ghz_circuit(code: CssCode, basis: str) -> tuple[ss.Circuit, FrameRecipe]:
    """Full logical GHZ pipeline on the 25-qubit code.

    Transversal |0> init, X-check extraction in zigzag order, triple
    measurement of the third logical X (postselect on agreement, sign
    tracked offline), the vertical then horizontal fold-swap relabelings,
    and transversal readout in the requested basis.
    """
    ref = build_25_4_3()
    if code.hx != ref.hx or code.hz != ref.hz:
        raise ValueError("logical pipeline is defined for the 25-qubit code")
    perms = (vertical_fold_swap(), horizontal_fold_swap())
    return _ghz_pipeline(code, basis, perms, measured_logical=2,
                         schedule=zigzag_schedule(code))


def generalized_ghz_circuit(code: CssCode, basis: str) -> tuple[ss.Circuit, FrameRecipe]:
    """GHZ pipeline on a generalized-family code (2(l-1) logical qubits).

    Measures the logical X of the last-row, first-column logical qubit
    three times, then applies the column patch-swap (pairwise CNOTs
    within rows) and the last-two-row patch-swap (fanout CNOTs from the
    last logical row) as relabelings, and reads out transversally.
    """
    l = code.meta_get("l")
    c = code.meta_get("c")
    nv = code.meta_get("nv")
    nh = code.meta_get("nh")
    if None in (l, c, nv, nh):
        raise ValueError("code does not carry generalized-family metadata")
    cols = _swap_blocks(nh, c, 1, 2)
    rows = _swap_blocks(nv, c, l - 2, l - 1)
    col_swap = tuple(i * nh + cols[j] for i in range(nv) for j in range(nh))
    row_swap = tuple(rows[i] * nh + j for i in range(nv) for j in range(nh))
    return _ghz_pipeline(code, basis, (col_swap, row_swap),
                         measured_logical=(l - 2) * 2, schedule=zigzag_schedule(code))


def _swap_blocks(n: int, c: int, a: int, b: int) -> list[int]:
    """The permutation of range(n) that exchanges width-c blocks a and b."""
    p = list(range(n))
    p[a * c:(a + 1) * c], p[b * c:(b + 1) * c] = p[b * c:(b + 1) * c], p[a * c:(a + 1) * c]
    return p


def circuit_report(circuit: ss.Circuit) -> dict:
    """Data/ancilla/entangling-gate counts for a pipeline circuit."""
    data = set()
    used = set()
    for ins in circuit.instructions:
        used.update(ins.qubits)
        if ins.op in ("MEASZ", "MEASX") and ins.tag.startswith("d"):
            data.add(ins.qubits[0])
    return {
        "data_qubits": len(data),
        "ancilla_qubits": len(used - data),
        "two_qubit_gates": sum(1 for i in circuit.instructions if i.op == "CNOT"),
    }


# --- per-shot frame handling: the oracle for FrameRecipe.key ---------------


def frame_from_shot(recipe: FrameRecipe, record: dict) -> FrameState:
    m = vector_from_bits(record[tag] for tag in recipe.x_check_tags)
    outs = [record[tag] for tag in recipe.xbar_tags]
    accepted = len(set(outs)) == 1
    sign = outs[0] if accepted else 0
    return FrameState(
        accepted=accepted,
        x_frame=recipe.frame_map.mul_vec(m),
        xbar_sign=sign,
        parity_frame=sign ^ parity(recipe.parity_check_coeffs, m),
    )


def readout_reduce(code: CssCode, basis: str, data_bits, frame: FrameState | None):
    """Reconstruct the final syndrome and raw logical bits from a readout.

    Z basis: syndrome hz*b flags X errors and the raw logicals are the
    individual logical-Z parities.  X basis: syndrome hx*b is XORed with
    the mapped extraction frame and the raw logical is the all-logical
    X-product parity with the tracked sign folded in.
    """
    if len(data_bits) != code.n:
        raise ValueError(f"expected {code.n} data bits, got {len(data_bits)}")
    b = vector_from_bits(data_bits)
    if basis == "z":
        syndrome = code.hz.mul_vec(b)
        raw = tuple(parity(b, lz) for lz in code.logicals_z)
        return syndrome, raw
    if basis == "x":
        syndrome = code.hx.mul_vec(b)
        sign = 0
        if frame is not None:
            syndrome ^= frame.x_frame
            sign = frame.parity_frame
        return syndrome, (parity(b, code.logical_x_product) ^ sign,)
    raise ValueError("basis must be 'z' or 'x'")


# --- schedule validation ------------------------------------------------------


class ScheduleReport(NamedTuple):
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_schedule(code: CssCode, schedule: Schedule) -> ScheduleReport:
    """Flag gadget faults that would shortcut the code distance.

    Enumerates every single fault in the extraction circuit and asks three
    questions of each propagated data error v, per Pauli type.  If v is a
    same-type stabilizer, the fault is harmless.  Otherwise, if v commutes
    with the opposite-type checks, the single fault is a logical operator.
    Otherwise, for d >= 3, if no single-qubit error turns v into a
    stabilizer but one at qubit q turns it into a logical operator, the
    first such q is reported.  Each question is a row-space membership or
    a syndrome test, so any stabilizer rank is fine.

    The questions are asked of all faults at once, on the circuit's
    bit-sliced data-qubit frames (Circuit.fault_words: bit c of a word is
    fault c), taken as the rows of one matrix: the opposite checks times it
    give the syndrome words, the same-type kernel basis times it the
    kernel-parity words.  v is a stabilizer when its parity against
    every row of the same-type kernel basis is 0, as the row space is that
    kernel's orthogonal complement.  The errors that one more fault at q
    turns into a stabilizer are those whose syndrome and kernel-parity
    words spell column q of the opposite checks and of the kernel basis.
    Only the flagged faults are labelled (stab_sim.fault_labels) and become
    messages, in fault order, X before Z; a schedule with no violation
    labels none.
    """
    circuit = syndrome_extraction_circuit(code, schedule, which="both")
    _, x_words, z_words = circuit.fault_words
    d = code.d if code.d is not None else 3
    # a fault that leaves no trace on any qubit is harmless, so the faults
    # beyond the highest set bit of any frame word need not be named
    width = max(w.bit_length() for w in x_words + z_words)
    faults = (1 << width) - 1
    messages = []
    for frames, h_same, h_other in ((x_words, code.hx, code.hz), (z_words, code.hz, code.hx)):
        kernel = h_same.kernel_basis()
        words = BitMatrix(code.n, width, tuple(frames[:code.n]))
        syndrome, parity = (h_other @ words).data, (kernel @ words).data
        syndrome_weight, parity_weight = _weight_words(syndrome), _weight_words(parity)
        harmful = faults ^ _spelling(parity, parity_weight, 0, faults)
        logical = _spelling(syndrome, syndrome_weight, 0, harmful)
        flagged = dict.fromkeys(mask_to_support(logical), "single fault is a logical operator")
        if d >= 3:
            # the faults with a nonzero syndrome that one more fault at q
            # brings back to zero, in ascending q, and those it makes a stabilizer
            pending = harmful ^ logical
            hooks, fixed = [], 0
            for q, (column, kernel_column) in enumerate(zip(h_other.transpose().data,
                                                            kernel.transpose().data)):
                hit = _spelling(syndrome, syndrome_weight, column, pending)
                if hit:
                    hooks.append((q, hit))
                    fixed |= _spelling(parity, parity_weight, kernel_column, hit)
            for q, hit in hooks:
                for c in mask_to_support(hit & ~fixed):
                    flagged.setdefault(c, f"one more fault at qubit {q} completes a logical")
        messages.append(flagged)
    columns = sorted(messages[0].keys() | messages[1].keys())
    return ScheduleReport([(*label, flagged[c])
                           for c, label in zip(columns, ss.fault_labels(circuit, columns))
                           for flagged in messages if c in flagged])


def _weight_words(words: list[int]) -> list[int]:
    """Bit-sliced weights: bit j of fault c's weight over words is bit c of word j."""
    weight = []
    for carry in words:
        for j, w in enumerate(weight):
            weight[j], carry = w ^ carry, w & carry
            if not carry:
                break
        else:
            if carry:
                weight.append(carry)
    return weight


def _spelling(words: list[int], weight: list[int], pattern: int, among: int) -> int:
    """The faults among `among` whose bits over words equal pattern: set in
    every word of its support, with the pattern's weight."""
    count = pattern.bit_count()
    if count >> len(weight):
        return 0
    while pattern:
        low = pattern & -pattern
        among &= words[low.bit_length() - 1]
        pattern ^= low
    for j, w in enumerate(weight):
        among &= w if (count >> j) & 1 else ~w
    return among
