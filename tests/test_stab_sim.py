import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2qec import stab_sim as ss
from f2qec import protocol as pr
from f2qec.protocol import physical_ghz_circuit, syndrome_extraction_circuit, zigzag_schedule
from f2qec.code_factory import build_25_4_3, build_generalized


def test_physical_ghz_z_outcomes_all_equal():
    circ = physical_ghz_circuit("z")
    for seed in range(25):
        rec = ss.simulate_tableau(circ, seed)
        vals = {rec[f"d{q}"] for q in range(4)}
        assert len(vals) == 1


def test_physical_ghz_x_outcomes_even_parity():
    circ = physical_ghz_circuit("x")
    for seed in range(25):
        rec = ss.simulate_tableau(circ, seed)
        assert sum(rec[f"d{q}"] for q in range(4)) % 2 == 0


def test_prepz_then_measz_is_zero():
    circ = ss.Circuit(1, (ss.prepz(0), ss.measz(0, "m")))
    assert ss.simulate_tableau(circ, 0)["m"] == 0


def test_tableau_seed_determinism():
    circ = physical_ghz_circuit("z")
    a = ss.simulate_tableau(circ, 42)
    b = ss.simulate_tableau(circ, 42)
    assert a == b


def test_text_ir_round_trip():
    circ = ss.Circuit(4, (
        ss.prepx(0), ss.prepz(1), ss.h(2), ss.cnot(0, 1),
        ss.inject("Y", 3), ss.relabel((1, 0, 3, 2)),
        ss.measz(1, "a"), ss.measx(0, "b"),
    ))
    text = circ.to_text()
    again = ss.Circuit.from_text(text)
    assert again == circ
    assert again.to_text() == text


def test_text_ir_rejects_garbage():
    with pytest.raises(ValueError):
        ss.Circuit.from_text("CNOT 0 1\n")  # missing header
    for op in ("WIBBLE 0", "BARRIER"):
        with pytest.raises(ValueError, match="unknown instruction"):
            ss.Circuit.from_text(f"QUBITS 2\n{op}\n")
    with pytest.raises(ValueError):
        ss.Circuit.from_text("QUBITS 3\nRELABEL (0 9)\n")
    for header in ("QUBITS\n", "QUBITS x\n", "QUBITS 3 4\n", "QUBITS -1\n", "QUBITSX 3\n"):
        with pytest.raises(ValueError):
            ss.Circuit.from_text(header)
    with pytest.raises(ValueError):
        ss.Circuit.from_text("QUBITS 3\nINJECT Q 0\n")  # not a single-qubit Pauli
    with pytest.raises(ValueError):
        ss.Circuit(3, (ss.inject("Q", 0),))
    # missing or extra operands, and digits other than ASCII ones, name the line
    for line in ("H", "H 0 1", "CNOT 0", "CNOT 0 1 2", "MEASZ 0",
                 "MEASX 0 m extra", "INJECT X", "PREPZ x", "H ١", "CNOT 0 ١",
                 "MEASZ ١ m", "INJECT Z ١", "RELABEL (0 ١)", "H -1"):
        with pytest.raises(ValueError, match="^line "):
            ss.Circuit.from_text(f"QUBITS 3\n{line}\n")
    with pytest.raises(ValueError):
        ss.Circuit.from_text("QUBITS ٣\n")
    # the constructor rejects unknown ops, wrong qubit counts, tags that cannot
    # round-trip and operands that the op does not take (to_text would drop them)
    for ins in (ss.Instruction("FOO", (0,)), ss.Instruction("CNOT", (0,)),
                ss.Instruction("H", ()), ss.Instruction("RELABEL", (0,), perm=(0, 1)),
                ss.Instruction("MEASZ", (0,), tag="a b"), ss.Instruction("MEASZ", (0,), tag=""),
                ss.Instruction("H", (0,), tag="x"), ss.Instruction("CNOT", (0, 1), pauli="X"),
                ss.Instruction("PREPZ", (0,), perm=(1, 0)),
                ss.Instruction("MEASZ", (0,), tag="m", pauli="Z"),
                ss.Instruction("RELABEL", perm=(1, 0), tag="t")):
        with pytest.raises(ValueError):
            ss.Circuit(2, (ins,))


@pytest.mark.parametrize("text", [
    "(0 5)",        # qubit out of range
    "(-1 2)",
    "(0 1)(1 2)",   # qubit repeated across cycles
    "(0 1 0)",      # qubit repeated within a cycle
    "(0 x)",        # non-integer token
    "(0 1.5)",
    "(0 1",         # unbalanced parentheses
    "0 1)",
    "((0 1)",
    "(0 1))",
    "(0 1) 2",      # stray text
])
def test_cycle_parser_rejects_bad_input(text):
    with pytest.raises(ValueError):
        ss.cycles_from_text(text, 4)


def test_cycle_parser_identity_forms():
    assert ss.cycles_from_text("()", 3) == (0, 1, 2)
    assert ss.cycles_from_text("", 3) == (0, 1, 2)
    assert ss.cycles_from_text(" (0 2) (1) ", 3) == (2, 1, 0)


@given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(n))))
def test_cycle_text_round_trip(perm):
    perm = tuple(perm)
    assert ss.cycles_from_text(ss.cycles_to_text(perm), len(perm)) == perm


def _instruction(n):
    q = st.integers(0, n - 1)
    single = st.builds(lambda op, a: ss.Instruction(op, (a,)),
                       st.sampled_from(["PREPZ", "PREPX", "H"]), q)
    two = st.tuples(q, q).filter(lambda ab: ab[0] != ab[1]).map(lambda ab: ss.cnot(*ab))
    inject = st.builds(ss.inject, st.sampled_from("XYZ"), q)
    relabel = st.permutations(range(n)).map(ss.relabel)
    meas = st.builds(lambda op, a: (op, a), st.sampled_from(["MEASZ", "MEASX"]), q)
    return st.one_of(single, two, inject, relabel, meas)


@st.composite
def _circuits(draw):
    n = draw(st.integers(2, 6))
    ins = []
    for k, item in enumerate(draw(st.lists(_instruction(n), max_size=25))):
        if isinstance(item, tuple):
            item = ss.Instruction(item[0], (item[1],), tag=f"m{k}")
        ins.append(item)
    return ss.Circuit(n, tuple(ins))


@settings(deadline=None)
@given(_circuits())
def test_text_ir_round_trip_property(circ):
    text = circ.to_text()
    again = ss.Circuit.from_text(text)
    assert again == circ
    assert again.to_text() == text


def test_circuit_validation():
    with pytest.raises(ValueError):
        ss.Circuit(2, (ss.measz(0, "m"), ss.measz(1, "m")))  # duplicate tag
    with pytest.raises(ValueError):
        ss.Circuit(2, (ss.cnot(1, 1),))
    with pytest.raises(ValueError):
        ss.Circuit(1, (ss.h(3),))


def _outcome_freqs(records, tags):
    counts = {}
    for rec in records:
        key = tuple(rec[t] for t in tags)
        counts[key] = counts.get(key, 0) + 1
    return {key: k / len(records) for key, k in counts.items()}


@pytest.mark.parametrize("name", ["ghz-z", "ghz-x", "prepz-measx-measz"])
def test_zero_noise_random_outcomes_match_tableau(name):
    # outcomes that are random in the exact engine (a GHZ readout, an X
    # measurement of |0>, a Z measurement after it) are random in the
    # sampler with the same law: the same support and each cell within
    # 4 sigma of the tableau's frequency over as many seeds
    import math

    circ = {
        "ghz-z": physical_ghz_circuit("z"),
        "ghz-x": physical_ghz_circuit("x"),
        "prepz-measx-measz": ss.Circuit(1, (ss.prepz(0), ss.measx(0, "a"), ss.measz(0, "b"))),
    }[name]
    shots = 2000
    tags = circ.tags()
    frame = _outcome_freqs(ss.sample_pauli_frame(circ, ss.NoiseModel.zero(), 9, shots), tags)
    tab = _outcome_freqs([ss.simulate_tableau(circ, seed) for seed in range(shots)], tags)
    assert set(frame) == set(tab)
    for key in tab:
        pooled = (frame[key] + tab[key]) / 2
        sigma = math.sqrt(pooled * (1 - pooled) * 2 / shots)
        assert abs(frame[key] - tab[key]) <= 4 * sigma, (key, frame[key], tab[key])


# one circuit per op whose zero-noise outcome support changes if the frame
# kernel skips the op (INJECT has no frame effect: the reference applies it)
_OP_SUPPORT_CASES = {
    "PREPZ": "PREPX 0\nPREPZ 0\nMEASZ 0 a",
    "PREPX": "PREPZ 0\nPREPX 0\nMEASX 0 a",
    "H": "PREPZ 0\nH 0\nMEASX 0 a",
    "CNOT": "PREPX 0\nPREPZ 1\nCNOT 0 1\nMEASZ 0 a\nMEASZ 1 b",
    "MEASZ": "PREPX 0\nMEASZ 0 a\nMEASX 0 b",
    "MEASX": "PREPZ 0\nMEASX 0 a\nMEASZ 0 b",
    "INJECT": "PREPX 0\nPREPZ 1\nINJECT X 1\nINJECT Z 0\nMEASX 0 a\nMEASZ 1 b",
    "RELABEL": "PREPX 0\nPREPZ 1\nRELABEL (0 1)\nMEASZ 0 a\nMEASZ 1 b",
}


@pytest.mark.parametrize("op", sorted(ss._ARITY))
def test_zero_noise_support_matches_tableau_per_op(op):
    circ = ss.Circuit.from_text("QUBITS 2\n" + _OP_SUPPORT_CASES[op])
    assert op in {ins.op for ins in circ.instructions}
    tags = circ.tags()
    shots = 200
    frame = {tuple(rec[t] for t in tags)
             for rec in ss.sample_pauli_frame(circ, ss.NoiseModel.zero(), 3, shots)}
    tab = {tuple(ss.simulate_tableau(circ, seed)[t] for t in tags) for seed in range(shots)}
    assert frame == tab


def test_reference_record_applies_inject_and_residuals_exclude_it():
    # the INJECT is a Pauli gate of the circuit as written: the reference
    # record holds its effect and the residual frames of faults do not
    circ = ss.Circuit.from_text("QUBITS 2\nPREPZ 0\nPREPZ 1\nINJECT X 0\nCNOT 0 1\nMEASZ 1 b\n")
    assert ss.reference_record(circ, 0) == {"b": 1}
    assert ss.sample_pauli_frame(circ, ss.NoiseModel.zero(), 0, 4) == [{"b": 1}] * 4
    table = ss.single_fault_table(circ)
    assert table.cases[:2] == [(0, "prep", "X"), (1, "prep", "X")]
    assert table.final_x[:2] == [3, 2]
    assert table.records[0, :2].tolist() == [False, False]


def test_inject_pauli_flip_base_case():
    circ = ss.Circuit(2, (ss.prepz(0), ss.prepz(1), ss.inject("X", 0),
                          ss.measz(0, "a"), ss.measz(1, "b")))
    rec = ss.simulate_tableau(circ, 0)
    assert rec["a"] == 1 and rec["b"] == 0
    frame = ss.sample_pauli_frame(circ, ss.NoiseModel.zero(), 0, 1)[0]
    assert frame["a"] == 1 and frame["b"] == 0


def test_cnot_propagation_rules():
    # X on control spreads to target
    circ = ss.Circuit(2, (ss.prepz(0), ss.prepz(1), ss.inject("X", 0),
                          ss.cnot(0, 1), ss.measz(0, "a"), ss.measz(1, "b")))
    rec = ss.simulate_tableau(circ, 0)
    assert (rec["a"], rec["b"]) == (1, 1)
    # Z on target spreads to control
    circ = ss.Circuit(2, (ss.prepx(0), ss.prepx(1), ss.inject("Z", 1),
                          ss.cnot(0, 1), ss.measx(0, "a"), ss.measx(1, "b")))
    rec = ss.simulate_tableau(circ, 0)
    assert (rec["a"], rec["b"]) == (1, 1)


def test_relabel_and_inverse_is_identity():
    perm = (2, 0, 1, 3)
    inv = (1, 2, 0, 3)
    base = [ss.prepz(0), ss.prepz(1), ss.prepz(2), ss.prepz(3), ss.inject("X", 2)]
    plain = ss.Circuit(4, tuple(base + [ss.measz(q, f"d{q}") for q in range(4)]))
    round_trip = ss.Circuit(4, tuple(base + [ss.relabel(perm), ss.relabel(inv)]
                                     + [ss.measz(q, f"d{q}") for q in range(4)]))
    assert ss.simulate_tableau(plain, 0) == ss.simulate_tableau(round_trip, 0)


def test_relabel_moves_errors():
    circ = ss.Circuit(2, (ss.prepz(0), ss.prepz(1), ss.inject("X", 0),
                          ss.relabel((1, 0)), ss.measz(0, "a"), ss.measz(1, "b")))
    rec = ss.simulate_tableau(circ, 3)
    assert (rec["a"], rec["b"]) == (0, 1)


def test_fault_enumeration_count_formula():
    code = build_25_4_3()
    circ = syndrome_extraction_circuit(code, zigzag_schedule(code), "X")
    expected = 38 * 15 + 10 + 10  # CNOTs, ancilla preps, ancilla measurements
    assert len(ss.single_fault_table(circ).cases) == expected
    cases = ss.enumerate_single_faults(circ)
    assert len(cases) == expected
    # deterministic ordering
    assert [c.pauli for c in cases[:4]] == ["Z", "IX", "IY", "IZ"]


def _fault_digest(circuit):
    h = hashlib.sha256()
    cases = ss.enumerate_single_faults(circuit)
    for c in cases:
        h.update(json.dumps([c.instruction_index, c.kind, c.pauli,
                             sorted(c.record.items()), c.final_x, c.final_z]).encode())
    return len(cases), h.hexdigest()[:16]


def test_fault_enumeration_is_pinned_byte_for_byte():
    # digests of every FaultCase (location, Pauli, record, residual frames);
    # any change to a propagation rule or to the enumeration order shows here
    code = build_25_4_3()
    gen = build_generalized(4, 1)
    circuits = {
        "logical-z": pr.logical_ghz_circuit(code, "z")[0],
        "logical-x": pr.logical_ghz_circuit(code, "x")[0],
        "zigzag": syndrome_extraction_circuit(code, zigzag_schedule(code), "both"),
        "row-major": syndrome_extraction_circuit(code, pr.row_major_schedule(code), "both"),
        "generalized-4-z": pr.generalized_ghz_circuit(gen, "z")[0],
        "generalized-4-x": pr.generalized_ghz_circuit(gen, "x")[0],
    }
    pinned = {
        "logical-z": (799, "8a5ca6c75cbdb9a9"),
        "logical-x": (799, "8b2d672a0a390b63"),
        "zigzag": (1197, "bb253fba2cc29486"),
        "row-major": (1197, "7467fa5286fa93de"),
        "generalized-4-z": (469, "dd35cc42929531b1"),
        "generalized-4-x": (469, "41871db466029770"),
    }
    assert {name: _fault_digest(c) for name, c in circuits.items()} == pinned


@pytest.mark.parametrize("ops, shape, cases", [
    ((), (0, 0), []),
    ((ss.relabel((1, 0)),), (0, 0), []),
    ((ss.prepz(0),), (0, 1), [ss.FaultCase(0, "prep", "X", {}, final_x=1, final_z=0)]),
])
def test_single_fault_table_edge_shapes(ops, shape, cases):
    # no fault site at all, and a fault site with no measurement to record it
    circ = ss.Circuit(2, ops)
    table = ss.single_fault_table(circ)
    assert table.records.shape == shape and table.records.dtype == bool
    assert len(table.cases) == len(table.final_x) == len(table.final_z) == shape[1]
    got = ss.enumerate_single_faults(circ)
    assert got == cases and [c.record for c in got] == [c.record for c in cases]


def test_single_fault_table_frames_wider_than_a_word():
    # 130 qubits: each residual frame spans three 64-bit words
    n = 130
    circ = ss.Circuit(n, tuple(ss.prepz(q) for q in range(n)) + (ss.cnot(0, n - 1),))
    table = ss.single_fault_table(circ)
    assert table.cases == [(q, "prep", "X") for q in range(n)] + [
        (n, "gate2", a + b) for a in "IXYZ" for b in "IXYZ" if a + b != "II"]
    want_x = [1 | 1 << (n - 1)] + [1 << q for q in range(1, n)]
    want_z = [0] * n
    for _, _, (a, b) in table.cases[n:]:
        want_x.append((a in "XY") | (b in "XY") << (n - 1))
        want_z.append((a in "YZ") | (b in "YZ") << (n - 1))
    assert (table.final_x, table.final_z) == (want_x, want_z)


def test_ancilla_x_before_first_cnot_is_stabilizer():
    code = build_25_4_3()
    sched = zigzag_schedule(code)
    anc = code.n
    order = sched.x_orders[8]  # a weight-6 check
    ins = [ss.prepx(anc)]
    ins += [ss.cnot(anc, q) for q in order]
    ins += [ss.measx(anc, "m")]
    circ = ss.Circuit(code.n + 1, tuple(ins))
    # X on the control before the first CNOT is XX after it
    [case] = [c for c in ss.enumerate_single_faults(circ)
              if c.instruction_index == 1 and c.pauli == "XX"]
    data_error = case.final_x & ((1 << code.n) - 1)
    assert data_error == code.hx.row(8)
    assert code.hx.in_row_space(data_error)


def test_ancilla_z_mid_gadget_flips_only_that_outcome():
    code = build_25_4_3()
    sched = zigzag_schedule(code)
    circ = syndrome_extraction_circuit(code, sched, "X")
    ref = ss.reference_record(circ, 0)
    flip_cases = [c for c in ss.enumerate_single_faults(circ)
                  if c.kind == "gate2" and c.pauli == "ZI"]
    case = flip_cases[0]
    diff = {t for t in circ.tags() if case.record[t] != ref[t]}
    assert len(diff) == 1


def test_noisy_expansion_matches_frame_sampler_statistically():
    # identical channels driven two ways must agree on a simple rate; the
    # tableau oracle draws each shot's outcomes from the test's generator,
    # so random outcomes (the GHZ readout) are compared too
    import numpy as np

    chain = ss.Circuit(3, (
        ss.prepz(0), ss.prepz(1), ss.prepz(2),
        ss.cnot(0, 1), ss.cnot(1, 2),
        ss.measz(0, "a"), ss.measz(1, "b"), ss.measz(2, "c"),
    ))
    nm = ss.NoiseModel(0.05, 0.05, 0.05)
    shots = 4000
    for circ in (chain, physical_ghz_circuit("z")):
        tags = circ.tags()
        frame_rate = sum(
            any(rec[t] for t in tags)
            for rec in ss.sample_pauli_frame(circ, nm, 1, shots)) / shots
        rng = np.random.default_rng(99)
        hits = 0
        for _ in range(shots):
            rec = ss.simulate_tableau(ss.noisy_expansion(circ, nm, rng), rng)
            hits += any(rec[t] for t in tags)
        tableau_rate = hits / shots
        sigma = (frame_rate * (1 - frame_rate) / shots) ** 0.5 * 2 ** 0.5
        assert abs(frame_rate - tableau_rate) < 5 * max(sigma, 1e-3), circ.tags()


def test_frame_sampler_matches_tableau_with_h_relabel_and_inject():
    # the outcome distribution of the frame sampler against the exact engine
    # driven by sampled injections, per outcome cell, on a circuit whose
    # faults pass through H, a RELABEL and an explicit INJECT, and on the
    # GHZ readout, whose outcomes are random
    import math

    import numpy as np

    mixed = ss.Circuit(4, (
        ss.prepz(0), ss.prepz(1), ss.prepx(2), ss.prepz(3),
        ss.h(0), ss.inject("X", 1), ss.cnot(1, 3),
        ss.relabel((1, 2, 3, 0)),
        ss.cnot(2, 0), ss.h(1), ss.cnot(1, 3), ss.cnot(2, 3),
        ss.measz(0, "a"), ss.measz(1, "b"), ss.measz(2, "c"), ss.measx(3, "d"),
    ))
    nm = ss.NoiseModel(0.05, 0.05, 0.05)
    shots = 20000
    for circ, noiseless in ((mixed, {(0, 0, 1, 0)}),
                            (physical_ghz_circuit("z"), {(0, 0, 0, 0), (1, 1, 1, 1)})):
        tags = circ.tags()
        frame, tab = {}, {}
        for rec in ss.sample_pauli_frame(circ, nm, 17, shots):
            key = tuple(rec[t] for t in tags)
            frame[key] = frame.get(key, 0) + 1
        rng = np.random.default_rng(31)
        for _ in range(shots):
            rec = ss.simulate_tableau(ss.noisy_expansion(circ, nm, rng), rng)
            key = tuple(rec[t] for t in tags)
            tab[key] = tab.get(key, 0) + 1
        assert max(frame, key=frame.get) in noiseless
        for key in set(frame) | set(tab):
            f, t = frame.get(key, 0) / shots, tab.get(key, 0) / shots
            pooled = (f + t) / 2
            sigma = math.sqrt(max(pooled * (1 - pooled), 1e-9) * 2 / shots)
            assert abs(f - t) <= 4 * sigma + 1e-9, (key, f, t, sigma)


def test_shot_rng_partitionable():
    # shot outcomes depend only on the shot index: any split of a range, and
    # ranges that start or end inside a seeded block, give the same shots
    circ = physical_ghz_circuit("z")
    nm = ss.NoiseModel(0.1, 0.2, 0.3)
    b = ss.SHOT_BLOCK
    whole = ss.sample_pauli_frame(circ, nm, 5, 2 * b + 100)
    assert len({tuple(o.values()) for o in whole}) > 8
    for cuts in ((0, 300, 700), (0, 300, b + 50, 2 * b + 100), (0, b, 2 * b + 100)):
        parts = []
        for lo, hi in zip(cuts, cuts[1:]):
            parts += ss.sample_pauli_frame(circ, nm, 5, hi - lo, start=lo)
        assert parts == whole[:cuts[-1]]
    mid = ss.sample_pauli_frame(circ, nm, 5, 20, start=b - 10)
    assert mid == whole[b - 10:b + 10]
    assert ss.sample_pauli_frame(circ, nm, 5, 0, start=7) == []
    assert whole != ss.sample_pauli_frame(circ, nm, 6, 2 * b + 100)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        ss.NoiseModel(p1=-0.1)
    with pytest.raises(ValueError):
        ss.NoiseModel(p2=1.5)
