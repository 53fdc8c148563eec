import hashlib
import json
import re

import pytest
from hypothesis import example, given, settings
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


I = ss.Instruction


@pytest.mark.parametrize("ins, message", [
    (I("FOO", (0,)), "unknown op 'FOO'"),
    (I("CNOT", (0,)), "CNOT acts on 2 qubit(s), got 1"),
    (I("H", ()), "H acts on 1 qubit(s), got 0"),
    (I("RELABEL", (0,), perm=(0, 1)), "RELABEL acts on 0 qubit(s), got 1"),
    # the qubit count is checked before the operands, the operands before the qubits
    (I("H", (0, 1), tag="x"), "H acts on 1 qubit(s), got 2"),
    (I("H", (0,), tag="x"), "H takes no tag, got 'x'"),
    (I("H", (7,), tag="x"), "H takes no tag, got 'x'"),
    (I("CNOT", (0, 1), pauli="X"), "CNOT takes no pauli, got 'X'"),
    (I("PREPZ", (0,), perm=(1, 0)), "PREPZ takes no perm, got (1, 0)"),
    (I("MEASZ", (0,), tag="m", pauli="Z"), "MEASZ takes no pauli, got 'Z'"),
    (I("RELABEL", perm=(1, 0), tag="t"), "RELABEL takes no tag, got 't'"),
    (I("INJECT", (0,), tag="t", perm=(1, 0)), "INJECT takes no tag, got 't'"),
    (ss.h(2), "qubit 2 out of range"),
    (ss.cnot(0, -1), "qubit -1 out of range"),
    (ss.measz(5, "a b"), "qubit 5 out of range"),
    (ss.measz(0, "a b"), "measurement tag must be one word, got 'a b'"),
    (ss.measx(0, ""), "measurement tag must be one word, got ''"),
    (ss.relabel((0, 0)), "relabel is not a permutation of all qubits"),
    (ss.relabel((0,)), "relabel is not a permutation of all qubits"),
    (ss.cnot(1, 1), "CNOT needs distinct qubits"),
    (ss.inject("W", 0), "INJECT Pauli must be X, Y or Z, got 'W'"),
    (I("INJECT", (0,)), "INJECT Pauli must be X, Y or Z, got ''"),
    # an index must be an int: Circuit.from_text refuses "CNOT 0 1.0" and
    # "MEASZ True m"; the type is checked before the range
    (ss.cnot(0, 1.0), "qubit 1.0 is not an int"),
    (ss.measz(True, "m"), "qubit True is not an int"),
    (ss.h(2.0), "qubit 2.0 is not an int"),
    (ss.relabel((1.0, 0)), "relabel is not a permutation of all qubits"),
    (ss.relabel((True, 0)), "relabel is not a permutation of all qubits"),
])
def test_circuit_rejections_name_the_failed_check(ins, message):
    # the first failing check of the instruction names the rejection
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ss.Circuit(2, (ss.prepz(0), ins))


@pytest.mark.parametrize("n_qubits, instructions", [(2.0, (ss.prepz(0),)), (True, (ss.prepz(0),)),
                                                     (-1, ()), ("3", (ss.prepz(0),))],
                         ids=["float", "bool", "negative", "text"])
def test_circuit_rejects_a_qubit_count_that_is_not_a_non_negative_int(n_qubits, instructions):
    # a float, bool or negative count would write a QUBITS header that
    # Circuit.from_text refuses; the message is one ValueError for all four
    with pytest.raises(ValueError, match=f"^qubit count {re.escape(repr(n_qubits))} "
                                         "is not a non-negative int$"):
        ss.Circuit(n_qubits, instructions)


def test_circuit_rejects_a_duplicate_measurement_tag():
    with pytest.raises(ValueError, match="^duplicate measurement tag m$"):
        ss.Circuit(2, (ss.measz(0, "m"), ss.measx(1, "m")))


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
    # a measurement's tag is set by _circuits, which knows its place
    meas = st.builds(lambda op, a: ss.Instruction(op, (a,)), st.sampled_from(["MEASZ", "MEASX"]), q)
    return st.one_of(single, two, inject, relabel, meas)


@st.composite
def _circuits(draw, min_faults=0, min_tags=0, max_qubits=6, gate_weight=0):
    # gate_weight more draws of H, CNOT and INJECT beside each of _instruction's
    n = draw(st.integers(2, max_qubits))
    instruction = _instruction(n)
    if gate_weight:
        q = st.integers(0, n - 1)
        gates = st.one_of(st.builds(ss.h, q),
                          st.permutations(range(n)).map(lambda p: ss.cnot(p[0], p[1])),
                          st.builds(ss.inject, st.sampled_from("XYZ"), q))
        instruction = st.one_of(*[gates] * gate_weight, instruction)
    ins = []
    for k, item in enumerate(draw(st.lists(instruction, max_size=25))):
        if item.op in ("MEASZ", "MEASX"):
            item = item._replace(tag=f"m{k}")
        ins.append(item)
    # measurements at drawn places until there are min_tags record tags
    for j in range(min_tags - sum(i.op in ("MEASZ", "MEASX") for i in ins)):
        meas = ss.Instruction(draw(st.sampled_from(["MEASZ", "MEASX"])),
                              (draw(st.integers(0, n - 1)),), tag=f"t{j}")
        ins.insert(draw(st.integers(0, len(ins))), meas)
    # CNOTs (15 faults each) at drawn places until there are min_faults faults
    while sum(15 if i.op == "CNOT" else 3 if i.op == "H" else i.op[:4] in ("PREP", "MEAS")
              for i in ins) < min_faults:
        a, b = draw(st.permutations(range(n)))[:2]
        ins.insert(draw(st.integers(0, len(ins))), ss.cnot(a, b))
    return ss.Circuit(n, tuple(ins))


@settings(deadline=None)
@given(_circuits())
def test_text_ir_round_trip_property(circ):
    text = circ.to_text()
    again = ss.Circuit.from_text(text)
    assert again == circ
    assert again.to_text() == text


@settings(deadline=None)
@given(_circuits())
def test_tags_are_walked_once_per_circuit(circ):
    # every call returns the one tuple of the first, equal to a fresh walk
    tags = circ.tags
    assert circ.tags is tags and type(tags) is tuple
    assert tags == tuple(i.tag for i in circ.instructions if i.op in ("MEASZ", "MEASX"))


@settings(deadline=None)
@given(_circuits())
def test_fault_tables_are_immutable_and_one_build_per_circuit(circ):
    # each table is one object per circuit, which no caller can change:
    # tuples of ints, a read-only record array, and attributes that cannot
    # be assigned
    names = ("tags", "fault_sites", "fault_cases", "fault_words", "fault_record_words")
    first = [getattr(circ, name) for name in names]
    assert all(getattr(circ, name) is table for name, table in zip(names, first))
    sites, cases, words, records = first[1:]
    assert type(sites) is tuple and all(type(site) is tuple for site in sites)
    assert type(cases) is tuple and all(type(case) is tuple for case in cases)
    assert list(cases) == [(c.instruction_index, c.kind, c.pauli)
                           for c in ss.enumerate_single_faults(circ)]
    assert type(words) is tuple and len(words) == 3
    for part in words:
        assert type(part) is tuple and all(type(w) is int for w in part)
    assert not records.flags.writeable
    with pytest.raises(ValueError):
        records[...] = 0
    for name in names:
        with pytest.raises(AttributeError):
            setattr(circ, name, None)
    assert all(getattr(circ, name) is table for name, table in zip(names, first))


@settings(deadline=None)
@given(_circuits(), st.randoms(use_true_random=False))
def test_fault_labels_are_the_cases_at_the_columns(circ, rnd):
    # any columns, in any order and repeated, without the case list
    cases = circ.fault_cases
    columns = [rnd.randrange(len(cases)) for _ in range(len(cases) and 12)]
    columns += sorted(rnd.sample(range(len(cases)), len(cases) // 2))
    assert ss.fault_labels(circ, columns) == [cases[c] for c in columns]
    assert ss.fault_labels(circ, range(len(cases))) == list(cases)
    assert ss.fault_labels(circ, []) == []


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
    tags = circ.tags
    frame = _outcome_freqs(ss.sample_pauli_frame(circ, ss.NoiseModel(), 9, shots), tags)
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
    tags = circ.tags
    shots = 200
    frame = {tuple(rec[t] for t in tags)
             for rec in ss.sample_pauli_frame(circ, ss.NoiseModel(), 3, shots)}
    tab = {tuple(ss.simulate_tableau(circ, seed)[t] for t in tags) for seed in range(shots)}
    assert frame == tab


def test_reference_record_applies_inject_and_residuals_exclude_it():
    # the INJECT is a Pauli gate of the circuit as written: the reference
    # record holds its effect and the residual frames of faults do not;
    # the words hold each fault's flips, a FaultCase the absolute record
    circ = ss.Circuit.from_text("QUBITS 2\nPREPZ 0\nPREPZ 1\nINJECT X 0\nCNOT 0 1\nMEASZ 1 b\n")
    assert ss.reference_record(circ, 0) == {"b": 1}
    assert ss.sample_pauli_frame(circ, ss.NoiseModel(), 0, 4) == [{"b": 1}] * 4
    assert circ.fault_cases[:2] == ((0, "prep", "X"), (1, "prep", "X"))
    [records], x, _ = circ.fault_words
    assert records & 3 == 3 and [x[0] & 3, x[1] & 3] == [1, 3]
    cases = ss.enumerate_single_faults(circ)[:2]
    assert [c.final_x for c in cases] == [3, 2]
    assert [c.record for c in cases] == [{"b": 0}] * 2


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
    frame = ss.sample_pauli_frame(circ, ss.NoiseModel(), 0, 1)[0]
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
    assert len(circ.fault_cases) == expected
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
def test_fault_words_edge_shapes(ops, shape, cases):
    # no fault site at all, and a fault site with no measurement to record it
    circ = ss.Circuit(2, ops)
    tags, faults = shape
    records, x, z = circ.fault_words
    assert len(records) == tags and len(x) == len(z) == 2
    assert all(0 <= w < 1 << faults for w in records + x + z)
    assert circ.fault_record_words.shape == (faults, -(-tags // 64))
    assert len(circ.fault_cases) == faults
    got = ss.enumerate_single_faults(circ)
    assert got == cases and [c.record for c in got] == [c.record for c in cases]


def test_residual_frames_wider_than_a_word():
    # 130 qubits: each residual frame spans three 64-bit words
    n = 130
    circ = ss.Circuit(n, tuple(ss.prepz(q) for q in range(n)) + (ss.cnot(0, n - 1),))
    cases = ss.enumerate_single_faults(circ)
    assert list(circ.fault_cases) == [(q, "prep", "X") for q in range(n)] + [
        (n, "gate2", a + b) for a in "IXYZ" for b in "IXYZ" if a + b != "II"]
    want_x = [1 | 1 << (n - 1)] + [1 << q for q in range(1, n)]
    want_z = [0] * n
    for _, _, (a, b) in circ.fault_cases[n:]:
        want_x.append((a in "XY") | (b in "XY") << (n - 1))
        want_z.append((a in "YZ") | (b in "YZ") << (n - 1))
    assert [c.final_x for c in cases] == want_x and [c.final_z for c in cases] == want_z


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
    diff = {t for t in circ.tags if case.record[t] != ref[t]}
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
        tags = circ.tags
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
        assert abs(frame_rate - tableau_rate) < 5 * max(sigma, 1e-3), circ.tags


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
        tags = circ.tags
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
    # shot outcomes depend only on the shot index: a run that ends inside a
    # seeded block, or on a block boundary, gives the first shots of a longer run
    circ = physical_ghz_circuit("z")
    nm = ss.NoiseModel(0.1, 0.2, 0.3)
    b = ss.SHOT_BLOCK
    whole = ss.sample_pauli_frame(circ, nm, 5, 2 * b + 100)
    assert len({tuple(o.values()) for o in whole}) > 8
    for shots in (1, 300, b - 1, b, b + 1, 2 * b + 99):
        assert ss.sample_pauli_frame(circ, nm, 5, shots) == whole[:shots]
    assert ss.sample_pauli_frame(circ, nm, 5, 0) == []
    assert whole != ss.sample_pauli_frame(circ, nm, 6, 2 * b + 100)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        ss.NoiseModel(p1=-0.1)
    with pytest.raises(ValueError):
        ss.NoiseModel(p2=1.5)


# circuits with no record tag, with no fault site and with no collapsing op,
# then one whose outcomes are a constant 1 and a random bit
_EDGE_CIRCUITS = ("PREPZ 0\nH 0\nCNOT 0 1", "", "INJECT X 0\nRELABEL (0 1)",
                  "H 0\nCNOT 0 1\nINJECT Y 1", "INJECT X 0\nMEASZ 0 a\nH 1\nMEASZ 1 b")


def _dense_flip_outcomes(circ, nm, seed, shots):
    # the reference sampler: each block's flips drawn as one dense array and
    # propagated by the dense reference kernel, each shot's random outcomes
    # put into every tag's affine form of the record map one by one, and
    # the two XORed
    import numpy as np
    from conftest import reference_noise_flips, reference_propagate

    b = ss.SHOT_BLOCK
    flips, draws = zip(*(reference_noise_flips(circ, nm, np.random.default_rng([seed, 0, block]), b)
                         for block in range((shots - 1) // b + 1)))
    meas = np.hstack([reference_propagate(circ, f)[0] for f in flips])[:, :shots]
    forms = circ._record_map[1]
    points = [1 | sum(bit << (j + 1) for j, bit in enumerate(col))
              for col in np.hstack(draws)[:, :shots].T.tolist()]
    noiseless = [[(forms[t] & point).bit_count() & 1 for point in points] for t in circ.tags]
    return meas ^ np.array(noiseless, dtype=bool).reshape(meas.shape)


def _check_sampler_against_dense_flips(circ, rates, seed, shots):
    nm = ss.NoiseModel(*rates)
    got = ss.sample_outcomes(circ, nm, seed, shots)
    assert got.shape == (len(circ.tags), shots) and got.dtype == bool
    assert (got == _dense_flip_outcomes(circ, nm, seed, shots)).all()


@settings(deadline=None)
@given(_circuits(), st.tuples(*[st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.5)] * 3),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 3 * ss.SHOT_BLOCK))
def test_sampler_matches_the_dense_flip_kernel(circ, rates, seed, shots):
    # the fault map and the record map read by the sampler give the shots
    # that propagating each block's dense flips onto the record map's value
    # at the block's random outcomes gives, bit for bit and draw for draw
    _check_sampler_against_dense_flips(circ, rates, seed, shots)


_BLOCK_EDGES = (0, 1, ss.SHOT_BLOCK - 1, ss.SHOT_BLOCK, ss.SHOT_BLOCK + 1, 2 * ss.SHOT_BLOCK + 7)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([0, 65, 130]).flatmap(lambda tags: _circuits(min_tags=tags)),
       st.tuples(*[st.sampled_from([0.0, 1e-3, 1.0])] * 3),
       st.integers(0, 2 ** 32 - 1),
       st.sampled_from(_BLOCK_EDGES) | st.integers(0, 3 * ss.SHOT_BLOCK))
def test_packed_sampler_matches_the_float32_reference(circ, rates, seed, shots):
    # the packed sampler, unpacked, against the float32 count sampler, bit
    # for bit and draw for draw: records of one to three 64-bit words, no
    # noise, paper-sized noise and every site failing, over block edges
    from conftest import reference_sample_outcomes

    nm = ss.NoiseModel(*rates)
    got = ss.sample_outcomes(circ, nm, seed, shots)
    assert got.shape == (len(circ.tags), shots) and got.dtype == bool
    assert (got == reference_sample_outcomes(circ, nm, seed, shots)).all()
    words = ss.sample_words(circ, nm, seed, shots)
    assert words.shape == (shots, -(-len(circ.tags) // 64)) and words.dtype == "<u8"
    assert (ss.pack_words(got.T) == words).all()


@pytest.mark.parametrize("text", _EDGE_CIRCUITS)
def test_sampler_matches_the_dense_flip_kernel_on_edge_shapes(text):
    circ = ss.Circuit.from_text(f"QUBITS 2\n{text}\n")
    for shots in (5, 2 * ss.SHOT_BLOCK + 3):
        _check_sampler_against_dense_flips(circ, (0.3, 0.4, 0.5), 7, shots)


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
    return [[(forms[t] >> (j + 1)) & 1 for t in circ.tags] for j in range(k)]


def _unpacked(words, count):
    # packed record words (any leading shape x words) as bool rows of count bits
    import math

    return ss.unpack_words(words.reshape(math.prod(words.shape[:-1]), words.shape[-1]),
                           count).reshape(*words.shape[:-1], count)


def _draw_rows(circ):
    # the draw coefficients that the sampler reads, unpacked from its byte
    # tables: entry [b, 1 << i] is draw 8b + i's row, entry [b, v] the XOR
    # of the rows that v selects, and the rows past the last draw are zero
    import numpy as np

    tables = circ._noise_map[2]
    units = tables[:, 1 << np.arange(8)]
    for v in range(256):
        chosen = units[:, [i for i in range(8) if v >> i & 1]]
        assert (tables[:, v] == np.bitwise_xor.reduce(chosen, axis=1)).all()
    rows = units.reshape(8 * len(tables), tables.shape[2])
    k = circ._record_map[0]
    assert len(rows) == -(-k // 8) * 8 and not rows[k:].any()
    return _unpacked(rows[:k], len(circ.tags))


@settings(deadline=None)
@given(_circuits(), st.integers(0, 2 ** 32 - 1))
def test_fault_record_words_match_the_tableau(circ, seed):
    # a case's record flips equal what the tableau shows for the faulted
    # circuit at the same seed, up to the random outcomes: their difference
    # lies in the span of the draws' coefficients in the record map, the
    # coefficients that the sampler draws through
    from conftest import gauss_rank

    tags = circ.tags
    draws = _draw_coefficients(circ)
    rank = gauss_rank(draws)
    clean = ss.simulate_tableau(circ, seed)
    flips = _unpacked(circ.fault_record_words, len(tags))
    for c, case in enumerate(circ.fault_cases):
        faulted = ss.simulate_tableau(_faulted(circ, case), seed)
        diff = [int(flips[c, r]) ^ faulted[t] ^ clean[t] for r, t in enumerate(tags)]
        assert gauss_rank(draws + [diff]) == rank, case
    assert _draw_rows(circ).astype(int).tolist() == draws


def _form_value(form: int, draws: int) -> int:
    """A record-map form at an assignment of the draws (draw j at bit j)."""
    return (form & 1) ^ (((form >> 1) & draws).bit_count() & 1)


@settings(deadline=None)
@given(_circuits(max_qubits=5, gate_weight=3),
       st.lists(st.sampled_from(["MEASZ", "MEASX"]), min_size=5, max_size=5))
# a Bell pair made through X0 Z1, which CNOT 0 1 takes to -Y0 Y1: its two Z
# outcomes are equal only if the CNOT flips that row's sign
@example(circ=ss.Circuit.from_text("QUBITS 2\nCNOT 0 1\nH 0\nCNOT 0 1\n"),
         last=["MEASZ", "MEASZ"])
def test_record_map_matches_the_dense_statevector(circ, last):
    # each qubit is measured once more at the end, in the drawn basis; at
    # every assignment of the record map's k draws (of the first 8 when
    # k > 8), the statevector run that takes its random outcomes from those
    # draws measures each random outcome with probability 1/2, k of them,
    # and each determined outcome equal to its form
    from conftest import reference_statevector

    circ = ss.Circuit(circ.n_qubits, circ.instructions + tuple(
        ss.Instruction(op, (q,), tag=f"end{q}") for q, op in enumerate(last[:circ.n_qubits])))
    k, forms = circ._record_map
    for draws in range(1 << min(k, 8)):
        records, used = reference_statevector(circ, [(draws >> j) & 1 for j in range(k)])
        assert used == k
        for tag, (p1, outcome) in records.items():
            assert _form_value(forms[tag], draws) == outcome, (tag, p1)
            # an outcome random here is a function of the draws in the tableau
            assert forms[tag] >> 1 or abs(p1 - 0.5) > 1e-9, tag


def test_x_measurement_of_an_unprepared_qubit_is_random():
    # the tableau starts every qubit in |0>, so an X measurement before any
    # preparation is a random outcome of the record map; the sampler draws
    # the map's random outcomes per shot, so it is random there too
    circ = ss.Circuit.from_text("QUBITS 1\nMEASX 0 a\n")
    assert {ss.simulate_tableau(circ, seed)["a"] for seed in range(20)} == {0, 1}
    assert set(ss.sample_outcomes(circ, ss.NoiseModel(), 3, 200)[0].tolist()) == {False, True}


def test_frame_kernel_runs_once_per_circuit(monkeypatch):
    # the kernel and the walk over the fault locations (_sites, from which
    # the case list is built) each run at most once per circuit
    calls, walks = [], []
    for name, seen in (("_propagate", calls), ("_sites", walks)):
        original = getattr(ss, name)
        monkeypatch.setattr(ss, name, lambda *args, seen=seen, original=original:
                            seen.append(args) or original(*args))
    text = "QUBITS 3\nPREPZ 0\nPREPX 1\nH 2\nCNOT 1 0\nCNOT 0 2\nMEASZ 0 a\nMEASX 1 b\nMEASZ 2 c\n"
    circ = ss.Circuit.from_text(text)
    nm = ss.NoiseModel(0.01, 0.02, 0.03)
    assert ss.sample_outcomes(circ, nm, 1, 3 * ss.SHOT_BLOCK).shape == (3, 3 * ss.SHOT_BLOCK)
    ss.sample_outcomes(circ, nm, 2, 10)
    assert (len(calls), len(walks)) == (1, 1)
    # the sampler counts the faults from the walk and builds no case list
    assert "fault_cases" not in vars(circ)
    for _ in range(2):
        circ.fault_cases
        circ.fault_record_words
        circ.fault_words
        ss.fault_labels(circ, [0, 3])
        ss.enumerate_single_faults(circ)
    assert (len(calls), len(walks)) == (1, 1)
    again = ss.Circuit.from_text(text)
    assert again == circ
    ss.enumerate_single_faults(again)
    assert (len(calls), len(walks)) == (2, 2)
    # validate_schedule runs the kernel once on the extraction circuit it
    # builds; it labels only the faults it flags, so a schedule with no
    # violation never walks the fault locations, and its words and cases
    # on one circuit share that run
    code = build_25_4_3()
    schedule = zigzag_schedule(code)
    assert pr.validate_schedule(code, schedule).ok
    assert (len(calls), len(walks)) == (3, 2)
    assert not pr.validate_schedule(code, pr.row_major_schedule(code)).ok
    assert (len(calls), len(walks)) == (4, 3)
    extraction = syndrome_extraction_circuit(code, schedule, "both")
    extraction.fault_words
    ss.enumerate_single_faults(extraction)
    assert (len(calls), len(walks)) == (5, 4) and calls[-1] == (extraction,)
    kinds, const, draws = circ._noise_map
    for array in (circ.fault_record_words, const, draws, *kinds.values()):
        assert array.size
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1


def test_fault_words_are_the_mechanisms_in_order():
    # bit c of each word is single fault c, in _sites order; the words are
    # the records a and b, the residual X frame, the residual Z frame.  The
    # random outcomes are the record map's: PREPX 0, then a, then b are
    # draws 0, 1, 2
    circ = ss.Circuit.from_text("QUBITS 2\nPREPX 0\nCNOT 0 1\nMEASZ 1 a\nMEASX 0 b\n")
    # a Pauli pair after the CNOT is the residual frame, and a and b read x1 and z0
    cnot = [[q in (1, 2), p in (2, 3), p in (1, 2), q in (1, 2), p in (2, 3), q in (2, 3)]
            for p, q in (divmod(code, 4) for code in range(1, 16))]
    rows = ([[0, 1, 0, 0, 1, 0]]  # Z after PREPX 0
            + cnot
            + [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]])  # the outcome flips of a and b
    words = [w for part in circ.fault_words for w in part]
    assert [[w >> c & 1 for w in words] for c in range(18)] == [list(map(int, row)) for row in rows]
    kinds, const, draws = circ._noise_map
    assert _unpacked(kinds["prep"], 2).tolist() == [[[0, 1]]]
    assert _unpacked(kinds["gate2"], 2).tolist() == [[row[:2] for row in cnot]]
    assert _unpacked(kinds["meas"], 2).tolist() == [[[1, 0]], [[0, 1]]]
    assert _draw_rows(circ).tolist() == [[0, 0], [1, 0], [0, 1]]
    assert _unpacked(const, 2).tolist() == [0, 0]
    assert _unpacked(circ.fault_record_words, 2).tolist() == [row[:2] for row in rows]
    cases = circ.fault_cases
    assert cases[:2] == ((0, "prep", "Z"), (1, "gate2", "IX")) and len(cases) == 18
    first = ss.enumerate_single_faults(circ)[0]
    assert (first.final_x, first.final_z) == (0, 1)


def _check_fault_words_against_the_dense_reference(circ):
    import numpy as np
    from conftest import reference_fault_rows

    want = reference_fault_rows(circ)
    tags = len(circ.tags)
    assert want.dtype == bool and want.shape[1] == tags + 2 * circ.n_qubits
    # the words themselves, bit c = fault c, with no bit past the last fault
    assert circ.fault_words == tuple(
        tuple(int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in part)
        for part in np.split(want.T, [tags, tags + circ.n_qubits]))
    # and the record rows packed from them
    records = circ.fault_record_words
    assert records.shape == (len(want), -(-tags // 64))
    assert (records == ss.pack_words(want[:, :tags])).all()


@settings(deadline=None)
@given(st.sampled_from([0, 65, 129]).flatmap(lambda faults: _circuits(min_faults=faults)))
def test_fault_words_match_the_dense_reference_kernel(circ):
    # the bit-sliced words are the rows that propagating one dense flip
    # column per single fault gives, also past one and two 64-bit words
    _check_fault_words_against_the_dense_reference(circ)


def test_fault_words_match_the_dense_reference_on_pipelines():
    # the empty circuit, the flagship pipelines and extraction circuits, and
    # generalized pipelines up to l = 20 (3,261 faults)
    code = build_25_4_3()
    circuits = [ss.Circuit(2, ()), physical_ghz_circuit("z"), physical_ghz_circuit("x")]
    circuits += [pr.logical_ghz_circuit(code, b)[0] for b in "zx"]
    circuits += [syndrome_extraction_circuit(code, make(code), which)
                 for make in (zigzag_schedule, pr.row_major_schedule) for which in ("X", "Z", "both")]
    for l in (4, 20):
        circuits += [pr.generalized_ghz_circuit(build_generalized(l, 1), b)[0] for b in "zx"]
    assert len(circuits[-1].fault_record_words) == 3261
    for circ in circuits:
        _check_fault_words_against_the_dense_reference(circ)


def test_a_site_at_rate_one_adds_one_of_its_rows_to_each_shot():
    # the one H fails in every shot and no other site can fail; no outcome
    # is random, so each shot is the reference record XOR one of the H's
    # fault rows (X leaves both outcomes; Y and Z flip a)
    import numpy as np

    circ = ss.Circuit.from_text("QUBITS 2\nPREPZ 0\nPREPZ 1\nCNOT 0 1\nH 0\nMEASX 0 a\nMEASZ 1 b\n")
    ref = ss.reference_record(circ, 4)
    flips = ss.sample_outcomes(circ, ss.NoiseModel(1.0, 0.0, 0.0), 4, 300) ^ np.array(
        [[ref["a"]], [ref["b"]]], dtype=bool)
    rows = {tuple(row) for row in _unpacked(circ._noise_map[0]["gate1"][0], 2).tolist()}
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
    flips = ss.sample_outcomes(circ, ss.NoiseModel(), 9, 200) ^ np.array(
        [[ref[t]] for t in circ.tags], dtype=bool)
    draws, shots = _draw_coefficients(circ), flips.T.astype(int).tolist()
    assert gauss_rank(draws) > 0
    assert gauss_rank(shots) == gauss_rank(draws) == gauss_rank(draws + shots)


_WORD_COUNTS = (0, 1, 63, 64, 65, 129)


@st.composite
def _ints_below(draw):
    # (count, ints), each int in [0, 2**count); up to 130 ints, so the
    # transpose is up to three words wide too
    count = draw(st.sampled_from(_WORD_COUNTS))
    return count, draw(st.lists(st.integers(0, (1 << count) - 1), max_size=130))


def _reference_words(rows, width):
    # each row of 0/1 lists as 64-bit words, bit b of word w = entry 64w + b
    return [[sum(bit << b for b, bit in enumerate(row[64 * w:64 * (w + 1)]))
             for w in range(-(-width // 64))] for row in rows]


@settings(deadline=None)
@given(_ints_below())
@example((0, []))
@example((0, [0, 0]))
@example((129, []))
@example((1, [1]))
@example((63, [1 << 62]))
@example((64, [1 << 63, 1]))
@example((65, [1 << 64] * 65))
@example((129, [1 << 128, (1 << 129) - 1]))
def test_int_words_and_transpose_words_against_bits(case):
    # the ints' bit matrix, from Python shifts, packed into words by Python
    # sums: int_words packs its rows, transpose_words its columns
    count, ints = case
    bits = [[(i >> j) & 1 for j in range(count)] for i in ints]
    words = ss.int_words(ints, count)
    assert words.dtype == "<u8" and words.shape == (len(ints), -(-count // 64))
    assert words.tolist() == _reference_words(bits, count)
    transposed = ss.transpose_words(ints, count)
    assert transposed.dtype == "<u8" and transposed.shape == (count, -(-len(ints) // 64))
    assert transposed.tolist() == _reference_words([list(col) for col in zip(*bits)]
                                                   if ints else [[]] * count, len(ints))
    assert ss.word_ints(words) == list(ints)
