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
    # record holds its effect and the residual frames of faults do not;
    # the table holds each fault's flips, a FaultCase the absolute record
    circ = ss.Circuit.from_text("QUBITS 2\nPREPZ 0\nPREPZ 1\nINJECT X 0\nCNOT 0 1\nMEASZ 1 b\n")
    assert ss.reference_record(circ, 0) == {"b": 1}
    assert ss.sample_pauli_frame(circ, ss.NoiseModel.zero(), 0, 4) == [{"b": 1}] * 4
    table = ss.single_fault_table(circ)
    assert table.cases[:2] == [(0, "prep", "X"), (1, "prep", "X")]
    assert table.final_x[:2] == [3, 2]
    assert table.records[0, :2].tolist() == [True, True]
    assert [c.record for c in ss.enumerate_single_faults(circ)[:2]] == [{"b": 0}] * 2


# the INJECT circuits of this module's tests, plus one whose injections act
# on random outcomes
_INJECT_CIRCUITS = (
    _OP_SUPPORT_CASES["INJECT"],
    "PREPZ 0\nPREPZ 1\nINJECT X 0\nCNOT 0 1\nMEASZ 1 b",
    "PREPZ 0\nPREPZ 1\nINJECT X 0\nMEASZ 0 a\nMEASZ 1 b",
    "PREPZ 0\nPREPZ 1\nINJECT X 0\nCNOT 0 1\nMEASZ 0 a\nMEASZ 1 b",
    "PREPX 0\nPREPX 1\nINJECT Z 1\nCNOT 0 1\nMEASX 0 a\nMEASX 1 b",
    "PREPZ 0\nPREPZ 1\nPREPZ 2\nPREPZ 3\nINJECT X 2\nMEASZ 0 d0\nMEASZ 1 d1\nMEASZ 2 d2\nMEASZ 3 d3",
    "PREPZ 0\nPREPZ 1\nPREPZ 2\nPREPZ 3\nINJECT X 2\nRELABEL (0 2 1)\nRELABEL (0 1 2)\n"
    "MEASZ 0 d0\nMEASZ 1 d1\nMEASZ 2 d2\nMEASZ 3 d3",
    "PREPZ 0\nPREPZ 1\nINJECT X 0\nRELABEL (0 1)\nMEASZ 0 a\nMEASZ 1 b",
    "PREPZ 0\nPREPZ 1\nPREPX 2\nPREPZ 3\nH 0\nINJECT X 1\nCNOT 1 3\nRELABEL (0 1 2 3)\n"
    "CNOT 2 0\nH 1\nCNOT 1 3\nCNOT 2 3\nMEASZ 0 a\nMEASZ 1 b\nMEASZ 2 c\nMEASX 3 d",
    "PREPX 0\nPREPZ 1\nPREPZ 2\nCNOT 0 1\nINJECT Y 0\nH 2\nCNOT 2 1\nMEASX 0 a\nMEASZ 1 b\n"
    "INJECT Z 2\nMEASX 2 c\nMEASZ 0 d\nPREPZ 0\nINJECT Y 0\nMEASZ 0 e",
)


_TABLEAU_PINS = {
    'logical-z': ('d264bd05c00ce059', 'a0312de40c73deb1', 'bcb5221b48005d93', 2712206038956343624),
    'logical-x': ('5008192cab86a4c8', '0c65a61d377aa5ba', '887aacdc27a750be', 3134778821347614261),
    'physical-z': ('1e413f486a8f3e74', 'a91a459d509c09e2', '5d9ab6e7b489c0db', 2201417940421080015),
    'physical-x': ('0e1c4c1450e65bf3', '67e479f3d516153f', 'ce9e9ab07ab2e168', 1271849698618325204),
    'inject-0': ('d1e5d6c2cf3cd887', 'ea441b49c1dc98c5', '649daf45c6f190f6', 76908341883967297),
    'inject-1': ('e54b218bdd5cf06a', '88e843241ec5e9c6', '8268846c1a1312b6', 2568173283686080823),
    'inject-2': ('1a595e78138c207c', 'd63f200b3db5d2e8', 'e52f01f68b417194', 92799195681513881),
    'inject-3': ('d1e5d6c2cf3cd887', 'ea441b49c1dc98c5', '867401fd4df0d42c', 6272472867482),
    'inject-4': ('d1e5d6c2cf3cd887', 'ea441b49c1dc98c5', 'd9cf63c3316591c6', 616144638779475399),
    'inject-5': ('e0d85c92b683d3b6', 'b89b703411d8cbee', '6f62e6ceec907ac5', 944240704095886564),
    'inject-6': ('e0d85c92b683d3b6', 'b89b703411d8cbee', '6f62e6ceec907ac5', 944240704095886564),
    'inject-7': ('4846e486fa39ab6c', '33220b7a3a50d91f', 'f1b4dc04bf7eab62', 92799195681513881),
    'inject-8': ('c6fa2bb82204cfa8', '2d3b34f2563c6885', '0f07a4854331065d', 2815752526528671715),
    'inject-9': ('ae5bf3e6b91708c6', '892153d894420a72', '4ccc7e6a13003823', 1581421331462447524),
}


def _pinned_tableau_circuits():
    code = build_25_4_3()
    circuits = {f"logical-{b}": pr.logical_ghz_circuit(code, b)[0] for b in "zx"}
    circuits.update({f"physical-{b}": physical_ghz_circuit(b) for b in "zx"})
    circuits.update({f"inject-{i}": ss.Circuit.from_text(f"QUBITS 4\n{text}")
                     for i, text in enumerate(_INJECT_CIRCUITS)})
    return circuits


def _records_digest(records):
    text = json.dumps([sorted(rec.items()) for rec in records])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_tableau_records_are_pinned_byte_for_byte():
    # simulate_tableau at seeds 0..199, reference_record at (seed, basis)
    # tuples and a stream of runs that share one Generator with
    # noisy_expansion; the values were taken from the tableau that drew each
    # random outcome while it ran, before it became a per-circuit map
    import numpy as np

    circuits = _pinned_tableau_circuits()
    got = {}
    for name, circ in circuits.items():
        rng = np.random.default_rng(5)
        stream = [ss.simulate_tableau(ss.noisy_expansion(circ, ss.NoiseModel(0.05, 0.05, 0.05),
                                                         rng), rng) for _ in range(40)]
        got[name] = (_records_digest(ss.simulate_tableau(circ, seed) for seed in range(200)),
                     _records_digest(ss.reference_record(circ, (seed, index))
                                     for seed in (0, 1, 7, 2 ** 31 - 1, 2 ** 48 - 1)
                                     for index in (0, 1)),
                     _records_digest(stream), int(rng.integers(0, 2 ** 62)))
    assert got == _TABLEAU_PINS


@settings(deadline=None)
@given(_circuits(), st.integers(0, 2 ** 32 - 1))
def test_cached_record_map_matches_a_freshly_built_circuit(circ, seed):
    # the record map that simulate_tableau caches on a circuit serves every
    # later seed as an equal circuit built afresh does, and a shared
    # Generator gives up the same draws either way
    import numpy as np

    for s in range(seed, seed + 20):
        fresh = ss.Circuit(circ.n_qubits, circ.instructions)
        assert ss.simulate_tableau(circ, s) == ss.simulate_tableau(fresh, s)
    reused, rebuilt = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(10):
        assert (ss.simulate_tableau(circ, reused)
                == ss.simulate_tableau(ss.Circuit.from_text(circ.to_text()), rebuilt))
    assert reused.integers(0, 2 ** 62) == rebuilt.integers(0, 2 ** 62)


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


# circuits with no record tag, with no fault site and with no collapsing op
_EDGE_CIRCUITS = ("PREPZ 0\nH 0\nCNOT 0 1", "", "INJECT X 0\nRELABEL (0 1)",
                  "H 0\nCNOT 0 1\nINJECT Y 1")


def _dense_flip_outcomes(circ, nm, seed, shots, start):
    # the reference sampler: each block's flips drawn as one dense array,
    # propagated by the frame kernel and XORed onto the reference record
    import numpy as np
    from conftest import reference_noise_flips

    b = ss.SHOT_BLOCK
    first, last = start // b, (start + shots - 1) // b
    meas = np.hstack([ss._propagate(circ, *reference_noise_flips(
        circ, nm, np.random.default_rng([seed, 0, block]), b))[0] for block in range(first, last + 1)])
    ref = ss.reference_record(circ, seed)
    meas = meas[:, start - first * b:start - first * b + shots]
    return meas ^ np.array([ref[t] for t in circ.tags()], dtype=bool)[:, None]


def _check_sampler_against_dense_flips(circ, rates, seed, start, shots):
    nm = ss.NoiseModel(*rates)
    got = ss.sample_outcomes(circ, nm, seed, shots, start)
    assert got.shape == (len(circ.tags()), shots) and got.dtype == bool
    assert (got == _dense_flip_outcomes(circ, nm, seed, shots, start)).all()


@settings(deadline=None)
@given(_circuits(), st.tuples(*[st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.5)] * 3),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 3 * ss.SHOT_BLOCK), st.integers(1, 2 * ss.SHOT_BLOCK))
def test_sampler_matches_the_dense_flip_kernel(circ, rates, seed, start, shots):
    # the fault map read by the sampler gives the shots that propagating
    # each block's dense flips gives, bit for bit and draw for draw
    _check_sampler_against_dense_flips(circ, rates, seed, start, shots)


@pytest.mark.parametrize("text", _EDGE_CIRCUITS)
def test_sampler_matches_the_dense_flip_kernel_on_edge_shapes(text):
    circ = ss.Circuit.from_text(f"QUBITS 2\n{text}\n")
    for start, shots in ((0, 5), (ss.SHOT_BLOCK - 3, ss.SHOT_BLOCK + 6)):
        _check_sampler_against_dense_flips(circ, (0.3, 0.4, 0.5), 7, start, shots)


def _faulted(circ, case):
    # the circuit with one single fault of its table written as INJECTs
    index, kind, pauli = case
    ins = circ.instructions[index]
    if kind == "meas":
        # the anticommuting Pauli before and after the measurement flips its outcome only
        flip = (ss.inject("X" if ins.op == "MEASZ" else "Z", ins.qubits[0]),)
        around = flip + (ins,) + flip
    else:
        around = (ins,) + tuple(ss.inject(p, q) for q, p in zip(ins.qubits, pauli) if p != "I")
    return ss.Circuit(circ.n_qubits,
                      circ.instructions[:index] + around + circ.instructions[index + 1:])


def _draw_coefficients(circ):
    # row j: which record tags the circuit's j-th random outcome enters, in the record map
    k, forms = circ._record_map
    return [[(forms[t] >> (j + 1)) & 1 for t in circ.tags()] for j in range(k)]


@settings(deadline=None)
@given(_circuits(), st.integers(0, 2 ** 32 - 1))
def test_single_fault_table_matches_the_tableau(circ, seed):
    # a case's record flips equal what the tableau shows for the faulted
    # circuit at the same seed, up to the random outcomes: their difference
    # lies in the span of the draws' coefficients in the record map, and the
    # sampler's random frame rows span exactly that space
    from conftest import gauss_rank

    tags = circ.tags()
    draws = _draw_coefficients(circ)
    rank = gauss_rank(draws)
    clean = ss.simulate_tableau(circ, seed)
    table = ss.single_fault_table(circ)
    for c, case in enumerate(table.cases):
        faulted = ss.simulate_tableau(_faulted(circ, case), seed)
        diff = [int(table.records[r, c]) ^ faulted[t] ^ clean[t] for r, t in enumerate(tags)]
        assert gauss_rank(draws + [diff]) == rank, case
    collapse = circ._noise_map[1].astype(int).tolist()
    assert gauss_rank(collapse) == rank == gauss_rank(draws + collapse)


def test_x_measurement_of_an_unprepared_qubit_is_random():
    # the tableau starts every qubit in |0>, so an X measurement before any
    # preparation is random there; the sampler's random initial Z frame
    # makes it random too
    circ = ss.Circuit.from_text("QUBITS 1\nMEASX 0 a\n")
    assert {ss.simulate_tableau(circ, seed)["a"] for seed in range(20)} == {0, 1}
    assert set(ss.sample_outcomes(circ, ss.NoiseModel.zero(), 3, 200)[0].tolist()) == {False, True}


def test_frame_kernel_runs_once_per_circuit(monkeypatch):
    calls = []
    kernel = ss._propagate
    monkeypatch.setattr(ss, "_propagate", lambda *args: calls.append(args) or kernel(*args))
    text = "QUBITS 3\nPREPZ 0\nPREPX 1\nH 2\nCNOT 1 0\nCNOT 0 2\nMEASZ 0 a\nMEASX 1 b\nMEASZ 2 c\n"
    circ = ss.Circuit.from_text(text)
    nm = ss.NoiseModel(0.01, 0.02, 0.03)
    assert ss.sample_outcomes(circ, nm, 1, 2 * ss.SHOT_BLOCK, start=ss.SHOT_BLOCK // 2).shape == (
        3, 2 * ss.SHOT_BLOCK)  # three blocks
    ss.sample_outcomes(circ, nm, 2, 10)
    ss.single_fault_table(circ)
    ss.enumerate_single_faults(circ)
    assert len(calls) == 1
    again = ss.Circuit.from_text(text)
    assert again == circ
    ss.single_fault_table(again)
    assert len(calls) == 2
    kinds, collapse = circ._noise_map
    for array in (circ._fault_map, collapse, *kinds.values()):
        assert array.size
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1


def test_fault_map_rows_are_the_mechanisms_in_order():
    # one row per mechanism: the single faults in _sites order, the collapse
    # bits in instruction order, then each qubit's initial Z frame; the
    # columns are the records a and b, the residual X frame, the residual Z frame
    import numpy as np

    circ = ss.Circuit.from_text("QUBITS 2\nPREPX 0\nCNOT 0 1\nMEASZ 1 a\nMEASX 0 b\n")
    # a Pauli pair after the CNOT is the residual frame, and a and b read x1 and z0
    cnot = [[q in (1, 2), p in (2, 3), p in (1, 2), q in (1, 2), p in (2, 3), q in (2, 3)]
            for p, q in (divmod(code, 4) for code in range(1, 16))]
    rows = ([[0, 1, 0, 0, 1, 0]]  # Z after PREPX 0
            + cnot
            + [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]  # the outcome flips of a and b
            + [[1, 0, 1, 1, 0, 0], [0, 0, 0, 0, 0, 1], [0, 0, 1, 0, 0, 0]]  # PREPX 0, MEASZ 1, MEASX 0
            + [[0] * 6, [0, 1, 0, 0, 1, 1]])  # PREPX resets qubit 0; qubit 1's Z reaches b
    assert circ._fault_map.astype(int).tolist() == [list(map(int, row)) for row in rows]
    kinds, collapse = circ._noise_map
    assert kinds["prep"].tolist() == [[[0, 1]]]
    assert kinds["gate2"].tolist() == [[row[:2] for row in cnot]]
    assert kinds["meas"].tolist() == [[[1, 0]], [[0, 1]]]
    assert collapse.tolist() == [[1, 0], [0, 0], [0, 0], [0, 1]]  # qubit 0's initial frame is not drawn
    table = ss.single_fault_table(circ)
    assert table.cases[:2] == [(0, "prep", "Z"), (1, "gate2", "IX")] and len(table.cases) == 18
    assert table.records.T.astype(int).tolist() == [row[:2] for row in rows[:18]]
    assert table.final_x[0] == 0 and table.final_z[0] == 1
    assert np.shares_memory(table.records, circ._fault_map)
    with pytest.raises(ValueError):
        table.records[0, 0] = True


def test_a_site_at_rate_one_adds_one_of_its_rows_to_each_shot():
    # the one H fails in every shot and no other site can fail; the random
    # frames reach no outcome, so each shot is the reference record XOR one
    # of the H's fault rows (X leaves both outcomes; Y and Z flip a)
    import numpy as np

    circ = ss.Circuit.from_text("QUBITS 2\nPREPZ 0\nPREPZ 1\nCNOT 0 1\nH 0\nMEASX 0 a\nMEASZ 1 b\n")
    ref = ss.reference_record(circ, 4)
    flips = ss.sample_outcomes(circ, ss.NoiseModel(1.0, 0.0, 0.0), 4, 300) ^ np.array(
        [[ref["a"]], [ref["b"]]], dtype=bool)
    rows = {tuple(row) for row in circ._noise_map[0]["gate1"][0].astype(bool).tolist()}
    assert rows == {(False, False), (True, False)}
    assert {tuple(shot) for shot in flips.T.tolist()} == rows


def test_unprepared_data_qubits_make_x_check_outcomes_random(flagship_code):
    # syndrome_extraction_circuit never prepares its data qubits, so its
    # X-check outcomes are random in the tableau; the zero-noise shots span
    # the space of the draws' coefficients in the record map
    import numpy as np
    from conftest import gauss_rank

    circ = syndrome_extraction_circuit(flagship_code, zigzag_schedule(flagship_code), "both")
    ref = ss.reference_record(circ, 9)
    flips = ss.sample_outcomes(circ, ss.NoiseModel.zero(), 9, 200) ^ np.array(
        [[ref[t]] for t in circ.tags()], dtype=bool)
    draws, shots = _draw_coefficients(circ), flips.T.astype(int).tolist()
    assert gauss_rank(draws) > 0
    assert gauss_rank(shots) == gauss_rank(draws) == gauss_rank(draws + shots)
