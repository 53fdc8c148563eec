import functools
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2qec import protocol as pr
from f2qec import stab_sim as ss
from f2qec.code_factory import build_25_4_3, build_generalized
from f2qec.f2linalg import mask_to_support


def brick(i, j):
    return (i - 1) * 5 + (j - 1)


def test_zigzag_schedule_covers_checks(flagship_code):
    sched = pr.zigzag_schedule(flagship_code)
    assert len(sched.x_orders) == 10 and len(sched.z_orders) == 11
    for r, order in enumerate(sched.x_orders):
        assert tuple(sorted(order)) == mask_to_support(flagship_code.hx.row(r))
    # the weight-6 X gadget walks one column down, the next column up
    heavy = max(range(10), key=lambda r: flagship_code.hx.row(r).bit_count())
    cols = [q % 5 for q in sched.x_orders[heavy]]
    assert cols[:3] == [cols[0]] * 3 and cols[3:] == [cols[3]] * 3
    rows = [q // 5 for q in sched.x_orders[heavy]]
    assert rows[:3] == sorted(rows[:3]) and rows[3:] == sorted(rows[3:], reverse=True)


def test_extraction_circuit_counts(flagship_code):
    sched = pr.zigzag_schedule(flagship_code)
    ext = pr.syndrome_extraction_circuit(flagship_code, sched, "X")
    assert pr.circuit_report(ext)["two_qubit_gates"] == 38
    assert len([i for i in ext.instructions if i.op == "MEASX"]) == 10
    both = pr.syndrome_extraction_circuit(flagship_code, sched, "both")
    assert pr.circuit_report(both)["two_qubit_gates"] == 38 + sum(
        flagship_code.hz.row(r).bit_count() for r in range(11))


def test_extraction_empty_check_set():
    # a partial schedule is rejected outright
    code = build_generalized(3, 1)
    with pytest.raises(ValueError):
        pr.syndrome_extraction_circuit(code, pr.Schedule((), ()), "X")
    # but selecting a type with no checks at all yields an empty circuit
    from f2qec.css_code import CssCode
    from f2qec.f2linalg import BitMatrix

    toy = CssCode(n=2, hx=BitMatrix.from_strings(["11"]), hz=BitMatrix.zeros(0, 2),
                  logicals_x=(0b01,), logicals_z=(0b11,),
                  coords=(("P", 1, 1), ("P", 1, 2)))
    sched = pr.Schedule(((0, 1),), ())
    empty = pr.syndrome_extraction_circuit(toy, sched, "Z")
    assert empty.instructions == ()


def test_schedule_mismatch_rejected(flagship_code):
    sched = pr.zigzag_schedule(flagship_code)
    broken = pr.Schedule((sched.x_orders[0][:-1],) + sched.x_orders[1:], sched.z_orders)
    with pytest.raises(ValueError):
        pr.syndrome_extraction_circuit(flagship_code, broken, "X")


@pytest.mark.parametrize("kind", ["X", "Z"])
@pytest.mark.parametrize("edit", [
    lambda order, qubit: order[:-1] + order[:1],        # a repeated qubit, at the right length
    lambda order, qubit: order[:-1],                    # a missing qubit
    lambda order, qubit: order[:-1] + (qubit,),         # a qubit outside the support
    lambda order, qubit: order[:-1] + (-1,),
    lambda order, qubit: order + order[:1],             # one entry too many
    lambda order, qubit: order[:-1] + (float(order[-1]),),  # equal as a number, not an int
], ids=["repeated", "missing", "foreign", "minus-one", "extra", "float"])
def test_extraction_order_rejections_name_the_check(flagship_code, kind, edit):
    code, sched = flagship_code, pr.zigzag_schedule(flagship_code)
    row = 3
    h = code.hx if kind == "X" else code.hz
    foreign = next(q for q in range(code.n) if not (h.row(row) >> q) & 1)
    orders = sched.x_orders if kind == "X" else sched.z_orders
    orders = orders[:row] + (edit(orders[row], foreign),) + orders[row + 1:]
    broken = pr.Schedule(orders, sched.z_orders) if kind == "X" else pr.Schedule(sched.x_orders, orders)
    # every order is checked, whichever checks are selected
    for which in ("X", "Z", "both"):
        with pytest.raises(ValueError, match=f"^{kind} order 3 is not a permutation of the check support$"):
            pr.syndrome_extraction_circuit(code, broken, which)


def test_pipeline_gate_counts(flagship_code):
    circ, _ = pr.logical_ghz_circuit(flagship_code, "z")
    rep = pr.circuit_report(circ)
    assert rep == {"data_qubits": 25, "ancilla_qubits": 6, "two_qubit_gates": 47}
    phys = pr.circuit_report(pr.physical_ghz_circuit("x"))
    assert phys == {"data_qubits": 4, "ancilla_qubits": 0, "two_qubit_gates": 3}


def test_wrong_code_rejected():
    with pytest.raises(ValueError):
        pr.logical_ghz_circuit(build_generalized(3, 1), "z")
    with pytest.raises(ValueError):
        pr.generalized_ghz_circuit(build_25_4_3(), "z")


def test_noiseless_logical_pipeline_zero_mismatch(flagship_code):
    for basis in ("z", "x"):
        circ, recipe = pr.logical_ghz_circuit(flagship_code, basis)
        signs = set()
        for seed in range(30):
            rec = ss.simulate_tableau(circ, seed)
            frame = pr.frame_from_shot(recipe, rec)
            assert frame.accepted
            signs.add(frame.xbar_sign)
            bits = [rec[t] for t in recipe.data_tags]
            syndrome, raw = pr.readout_reduce(flagship_code, basis, bits, frame)
            assert syndrome == 0
            if basis == "z":
                assert len(set(raw)) == 1
            else:
                assert raw == (0,)
        assert signs == {0, 1}  # both logical measurement signs exercised


def test_noiseless_generalized_pipelines():
    for l, c in ((3, 1), (4, 1)):
        code = build_generalized(l, c)
        for basis in ("z", "x"):
            circ, recipe = pr.generalized_ghz_circuit(code, basis)
            for seed in range(12):
                rec = ss.simulate_tableau(circ, seed)
                frame = pr.frame_from_shot(recipe, rec)
                assert frame.accepted
                bits = [rec[t] for t in recipe.data_tags]
                syndrome, raw = pr.readout_reduce(code, basis, bits, frame)
                assert syndrome == 0
                if basis == "z":
                    assert len(set(raw)) == 1
                else:
                    assert raw == (0,)


def _gadget_start(circ, recipe):
    # the first logical-X gadget follows the last extraction measurement
    return 1 + max(k for k, ins in enumerate(circ.instructions) if ins.tag in recipe.x_check_tags)


def test_injected_z_before_gadgets_spoils_x_parity(flagship_code):
    # A lone Z on the measured logical's support before its gadget triple
    # passes postselection yet leaves the recorded sign inconsistent with
    # the state: the known unprotected channel of the logical measurement.
    circ, recipe = pr.logical_ghz_circuit(flagship_code, "x")
    ins = list(circ.instructions)
    ins.insert(_gadget_start(circ, recipe), ss.inject("Z", brick(4, 1)))
    injected = ss.Circuit(circ.n_qubits, tuple(ins))
    for seed in range(10):
        rec = ss.simulate_tableau(injected, seed)
        frame = pr.frame_from_shot(recipe, rec)
        assert frame.accepted
        bits = [rec[t] for t in recipe.data_tags]
        syndrome, raw = pr.readout_reduce(flagship_code, "x", bits, frame)
        assert raw == (1,)
        # the same injection never touches the Z readout
        circz, recipez = pr.logical_ghz_circuit(flagship_code, "z")
        insz = list(circz.instructions)
        insz.insert(_gadget_start(circz, recipez), ss.inject("Z", brick(4, 1)))
        recz = ss.simulate_tableau(ss.Circuit(circz.n_qubits, tuple(insz)), seed)
        framez = pr.frame_from_shot(recipez, recz)
        _, rawz = pr.readout_reduce(flagship_code, "z", [recz[t] for t in recipez.data_tags], framez)
        assert len(set(rawz)) == 1


def test_readout_reduce_single_x_error_syndrome(flagship_code):
    circ, recipe = pr.logical_ghz_circuit(flagship_code, "z")
    rec = ss.simulate_tableau(circ, 4)
    frame = pr.frame_from_shot(recipe, rec)
    bits = [rec[t] for t in recipe.data_tags]
    q = brick(2, 2)
    bits[q] ^= 1
    syndrome, _ = pr.readout_reduce(flagship_code, "z", bits, frame)
    assert syndrome == flagship_code.hz.mul_vec(1 << q)


def test_readout_reduce_length_check(flagship_code):
    with pytest.raises(ValueError):
        pr.readout_reduce(flagship_code, "z", [0] * 7, None)


def test_validate_schedule_zigzag_passes(flagship_code):
    report = pr.validate_schedule(flagship_code, pr.zigzag_schedule(flagship_code))
    assert report.ok


def test_validate_schedule_flags_row_major(flagship_code):
    report = pr.validate_schedule(flagship_code, pr.row_major_schedule(flagship_code))
    assert not report.ok
    assert any("completes a logical" in v[3] for v in report.violations)


# sha256 of json.dumps(violations) for the zigzag and the row-major schedule
_NO_VIOLATIONS = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
_SCHEDULE_REPORT_DIGESTS = {
    "flagship": (_NO_VIOLATIONS,
                 "15f1cbbf8062e36abd5e1c2e313455c7cdccf1067981ed8de137be5c49f6de7c"),
    3: (_NO_VIOLATIONS, "3afba0bba2895c05951a3663862c987c9398dd88f7a9349b9a87adcc2ec3df06"),
    4: (_NO_VIOLATIONS, "3afba0bba2895c05951a3663862c987c9398dd88f7a9349b9a87adcc2ec3df06"),
    5: (_NO_VIOLATIONS, "3a804e38eefa5d48f0450a5fc69ff860e41b9048b073269237994b25e956ab42"),
    6: (_NO_VIOLATIONS, "3a804e38eefa5d48f0450a5fc69ff860e41b9048b073269237994b25e956ab42"),
    7: (_NO_VIOLATIONS, "d1f07d950043fa0be25c0b4e69f76b94df98442ded16423de8f8a758f9d69210"),
    8: (_NO_VIOLATIONS, "d1f07d950043fa0be25c0b4e69f76b94df98442ded16423de8f8a758f9d69210"),
}


def _report_digests(code):
    return tuple(
        hashlib.sha256(json.dumps(pr.validate_schedule(code, make(code)).violations)
                       .encode()).hexdigest()
        for make in (pr.zigzag_schedule, pr.row_major_schedule))


@pytest.mark.parametrize("name", list(_SCHEDULE_REPORT_DIGESTS))
def test_schedule_reports_are_pinned_byte_for_byte(name):
    # the digests are those of a minimum-weight coset search over all
    # 2^rank stabilizers, which is feasible up to l = 8
    code = build_25_4_3() if name == "flagship" else build_generalized(name, 1)
    assert _report_digests(code) == _SCHEDULE_REPORT_DIGESTS[name]


def test_validate_schedule_has_no_stabilizer_rank_limit():
    code = build_generalized(9, 1)
    assert code.hx.rank() == 17
    assert pr.validate_schedule(code, pr.zigzag_schedule(code)).ok
    violations = pr.validate_schedule(code, pr.row_major_schedule(code)).violations
    assert len(violations) == 128
    assert {v[3] for v in violations} == {"single fault is a logical operator"}


@pytest.mark.parametrize("l", range(3, 13))
def test_validate_schedule_matches_the_per_residual_reference(l):
    # the word-parallel decisions give the violations of deciding each
    # fault's residual on its own, past the l <= 8 that the digests pin
    from conftest import reference_schedule_violations

    code = build_generalized(l, 1)
    for make in (pr.zigzag_schedule, pr.row_major_schedule):
        schedule = make(code)
        assert pr.validate_schedule(code, schedule).violations == \
            reference_schedule_violations(code, schedule)


@functools.cache
def _code(name):
    return build_25_4_3() if name == "flagship" else build_generalized(name, 1)


@st.composite
def _shuffled_schedules(draw):
    # each check's support in a drawn order
    code = _code(draw(st.sampled_from(["flagship", 3, 4, 6])))
    orders = [tuple(draw(st.permutations(mask_to_support(row))))
              for h in (code.hx, code.hz) for row in h.data]
    return code, pr.Schedule(tuple(orders[:code.hx.rows]), tuple(orders[code.hx.rows:]))


@settings(deadline=None, max_examples=40)
@given(_shuffled_schedules())
def test_validate_schedule_matches_the_reference_on_drawn_schedules(code_and_schedule):
    from conftest import reference_schedule_violations

    code, schedule = code_and_schedule
    assert pr.validate_schedule(code, schedule).violations == \
        reference_schedule_violations(code, schedule)


def test_postselection_rejects_disagreement(flagship_code):
    circ, recipe = pr.logical_ghz_circuit(flagship_code, "z")
    # flip one of the three logical-measurement outcomes by an ancilla error
    target = None
    for idx, ins in enumerate(circ.instructions):
        if ins.op == "MEASZ" and ins.tag == recipe.xbar_tags[1]:
            target = (idx, ins.qubits[0])
    ins_list = list(circ.instructions)
    ins_list.insert(target[0] - 1, ss.inject("Z", target[1]))
    bad = ss.Circuit(circ.n_qubits, tuple(ins_list))
    rec = ss.simulate_tableau(bad, 0)
    frame = pr.frame_from_shot(recipe, rec)
    assert not frame.accepted


def test_relabelings_are_noise_free(flagship_code):
    circ, _ = pr.logical_ghz_circuit(flagship_code, "z")
    relabels = [i for i in circ.instructions if i.op == "RELABEL"]
    assert len(relabels) == 2
    # noise sites count only gates, preps, and measurements
    assert len(circ.fault_cases) == 47 * 15 + 6 * 3 + (25 + 13) + (13 + 25)


def test_single_record_flip_maps_to_weight_one_correction(flagship_code):
    # every extraction record flip decodes to at most one data qubit
    from f2qec.decoder import DecodeProblem, bp_osd, uniform_priors

    for r in range(flagship_code.hx.rows):
        est = bp_osd(DecodeProblem(flagship_code.hx, uniform_priors(25), 1 << r))
        assert est.error_estimate.bit_count() <= 1


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_schedule_orders_are_pinned():
    codes = [build_25_4_3()] + [build_generalized(l, 1) for l in range(3, 9)]
    lines = [json.dumps([s.x_orders, s.z_orders])
             for code in codes
             for s in (pr.zigzag_schedule(code), pr.row_major_schedule(code))]
    assert len(lines) == 14
    assert _sha(lines).startswith("fac5836185f261cc")


def test_generalized_relabelings_are_pinned():
    lines = []
    for l in range(3, 9):
        circ, _ = pr.generalized_ghz_circuit(build_generalized(l, 1), "z")
        lines.append(json.dumps([list(i.perm) for i in circ.instructions if i.op == "RELABEL"]))
    assert _sha(lines).startswith("259bd36182fcb739")


def test_zigzag_rejects_wide_supports():
    with pytest.raises(ValueError, match="^X check support is not a rectangle of width <= 2 columns$"):
        pr.zigzag_schedule(build_generalized(3, 2))
    from f2qec.css_code import CssCode
    from f2qec.f2linalg import BitMatrix

    toy = CssCode(n=3, hx=BitMatrix.zeros(0, 3), hz=BitMatrix.from_strings(["111"]),
                  logicals_x=(), logicals_z=(),
                  coords=(("P", 1, 1), ("P", 2, 1), ("P", 3, 1)))
    with pytest.raises(ValueError, match="^Z check support is not a rectangle of width <= 2 rows$"):
        pr.zigzag_schedule(toy)


_PIPELINE_TEXT_DIGESTS = {
    ("physical", "z"): "e823281b383a2cb7ebc708c993b3c5d31a9928372d00a67c478ed5a44efb946a",
    ("physical", "x"): "b1e7a1d5e4c075c414e03661d45f080c59fdf7f66dd45a4a1e567a657047a4e7",
    ("logical", "z"): "e49748ed02c5703e74dc1ef4917e5d9ca8e6483997ff40148960ec78b181a182",
    ("logical", "x"): "53d6e591d0246287097b43fcb407484539bf182df4898b933337638e16c5635b",
    (3, "z"): "47960d9069a70959d00dd35e42172403cb1bc20050db7180b8d16bfee6be9941",
    (3, "x"): "f6e6b9d31d3b73545ef0f7384d2a19dac7741169de4228b24ad06d6c98490d65",
    (4, "z"): "5b055c1871c02ca68f3c6be51e59f54a6fa734b565be139b99fed8d3f8ee6748",
    (4, "x"): "2e3b3487389be54b57de8105a4cbc8f812f3c4897a932c5371eed5706aa196a0",
}


@pytest.mark.parametrize("name, basis", list(_PIPELINE_TEXT_DIGESTS))
def test_pipeline_text_is_pinned_byte_for_byte(name, basis):
    # the emitted text of each pipeline (an int name is the generalized
    # code with that l and c = 1), and its exact round trip
    if name == "physical":
        circ = pr.physical_ghz_circuit(basis)
    elif name == "logical":
        circ, _ = pr.logical_ghz_circuit(build_25_4_3(), basis)
    else:
        circ, _ = pr.generalized_ghz_circuit(build_generalized(name, 1), basis)
    text = circ.to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == _PIPELINE_TEXT_DIGESTS[name, basis]
    assert ss.Circuit.from_text(text) == circ
