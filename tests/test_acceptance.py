"""Acceptance suite: one test per deliverable criterion.

Each test prints a single PASS line when its assertions hold; every
tolerance is pinned here.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import pytest

from f2qec import experiment as ex
from f2qec import protocol as pr
from f2qec import stab_sim as ss
from f2qec.code_factory import (
    build_25_4_3,
    build_34_4_3,
    build_generalized,
    quantum_tanner_transform,
)
from f2qec.css_code import distance, permutation_logical_action, validate
from f2qec.decoder import DecodeProblem, bp_osd, logical_correction, uniform_priors

from conftest import mwe_oracle, single_check_flip_witness

RATES = ss.NoiseModel(p1=3e-5, p2=2e-3, p_spam=2e-3)


def _note(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_code_construction_exactness():
    t0 = time.time()
    code = build_25_4_3()
    assert validate(code).ok
    assert (code.n, code.k) == (25, 4)
    assert distance(code, 3) == (3, 3)
    hgp = build_34_4_3()
    transformed = quantum_tanner_transform(hgp)
    assert transformed.hx.row_space_equal(code.hx)
    assert transformed.hz.row_space_equal(code.hz)
    assert build_25_4_3() == code  # deterministic construction
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _note(1, f"25-qubit code valid, d=(3,3) by enumeration, row spaces equal the "
             f"checkerboard transform output ({elapsed:.2f}s)")


def test_criterion_2_fold_swap_logical_gates():
    t0 = time.time()
    code = build_25_4_3()
    vert = permutation_logical_action(code, pr.vertical_fold_swap())
    assert vert.cnot_pairs() == ((0, 1), (2, 3))
    assert vert.x_matrix.row_strings() == ["1100", "0100", "0011", "0001"]
    horiz = permutation_logical_action(code, pr.horizontal_fold_swap())
    assert horiz.cnot_pairs() == ((2, 0), (3, 1))
    assert horiz.x_matrix.row_strings() == ["1000", "0100", "1010", "0101"]
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _note(2, f"column mirror acts as CNOT(1->2)(3->4), row mirror as CNOT(3->1)(4->2) "
             f"on the logical labels ({elapsed:.2f}s)")


def test_criterion_3_gate_count_reproduction():
    logical, _ = pr.logical_ghz_circuit(build_25_4_3(), "z")
    assert pr.circuit_report(logical) == {
        "data_qubits": 25, "ancilla_qubits": 6, "two_qubit_gates": 47}
    physical = pr.physical_ghz_circuit("z")
    assert pr.circuit_report(physical) == {
        "data_qubits": 4, "ancilla_qubits": 0, "two_qubit_gates": 3}
    _note(3, "logical pipeline reports 25/6/47, physical reports 4/0/3")


def test_criterion_4_noiseless_protocol_correctness():
    t0 = time.time()
    shots = 1000
    pipelines = [("logical", build_25_4_3(), pr.logical_ghz_circuit)]
    for l, c in ((3, 1), (4, 1)):
        pipelines.append((f"generalized({l},{c})", build_generalized(l, c),
                          pr.generalized_ghz_circuit))
    for name, code, builder in pipelines:
        for basis in ("z", "x"):
            circ, recipe = builder(code, basis)
            for seed in range(shots):
                rec = ss.simulate_tableau(circ, seed)
                frame = pr.frame_from_shot(recipe, rec)
                assert frame.accepted, (name, basis, seed)
                bits = [rec[t] for t in recipe.data_tags]
                syndrome, raw = pr.readout_reduce(code, basis, bits, frame)
                assert syndrome == 0, (name, basis, seed)
                if basis == "z":
                    assert len(set(raw)) == 1, (name, basis, seed)
                else:
                    assert raw == (0,), (name, basis, seed)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _note(4, f"zero mismatch over {shots} exact-engine shots per basis for the "
             f"logical and two generalized pipelines ({elapsed:.1f}s)")


def test_criterion_5_fault_tolerance_ledger():
    t0 = time.time()
    code = build_25_4_3()
    totals = {}
    for basis in ("z", "x"):
        ledger = ex.fault_tolerance_ledger(basis)
        extras = [e for e in ledger.entries if e.outcome == "extra"]
        assert extras == [], [
            (e.instruction_index, e.kind, e.pauli) for e in extras]
        totals[basis] = {k: ledger.count(k) for k in
                         ("correct", "rejected", "nonft-set", "extra")}
    # the Z readout survives every single fault outright
    assert totals["z"] == {"correct": 697, "rejected": 102, "nonft-set": 0, "extra": 0}
    assert totals["x"] == {"correct": 665, "rejected": 102, "nonft-set": 32, "extra": 0}
    # every X-check record flip decodes to at most a weight-1 correction
    witnesses = single_check_flip_witness(code)
    assert all(q is not None for q in witnesses["x"].values())
    zig = pr.validate_schedule(code, pr.zigzag_schedule(code))
    assert zig.ok and zig.violations == []
    bad = pr.validate_schedule(code, pr.row_major_schedule(code))
    assert len(bad.violations) == 64
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _note(5, f"single-fault enumeration: z={totals['z']}, x={totals['x']}; "
             f"no corrupting fault outside the unprotected logical-measurement "
             f"channel; zigzag schedule distance-preserving, row-major flagged "
             f"({elapsed:.1f}s)")


def test_criterion_6_decoder_correctness():
    t0 = time.time()
    code = build_25_4_3()
    # 100% weight-1 correction, both error types
    for h, stab, basis in ((code.hz, code.hx, "z"), (code.hx, code.hz, "x")):
        priors = uniform_priors(h.cols)
        for q in range(code.n):
            syn = h.mul_vec(1 << q)
            est = bp_osd(DecodeProblem(h, priors, syn)).error_estimate
            residual = est ^ (1 << q)
            assert residual == 0 or stab.in_row_space(residual), (basis, q)
    # weight <= 2 syndromes: logical mask equals the oracle's up to
    # stabilizer equivalence
    checked = 0
    for h, stab, basis in ((code.hz, code.hx, "z"), (code.hx, code.hz, "x")):
        priors = uniform_priors(h.cols)
        for a in range(code.n):
            for b in range(a, code.n):
                syn = h.mul_vec((1 << a) | (1 << b))
                if syn == 0:
                    continue
                got = bp_osd(DecodeProblem(h, priors, syn))
                want = mwe_oracle(DecodeProblem(h, priors, syn), 2)
                diff = got.error_estimate ^ want.error_estimate
                equivalent = diff == 0 or stab.in_row_space(diff)
                masks_equal = (logical_correction(code, got.error_estimate, basis)
                               == logical_correction(code, want.error_estimate, basis))
                assert equivalent or masks_equal, (basis, a, b)
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _note(6, f"all 50 weight-1 errors corrected exactly; oracle mask agreement on "
             f"{checked} weight<=2 syndromes ({elapsed:.1f}s)")


def test_criterion_7_fidelity_bound_arithmetic():
    phys = ex.fidelity_bounds(0.013, 0.009, 0.0016, 0.0013)
    assert phys.lower == pytest.approx(0.978, abs=5e-4)
    assert phys.upper == pytest.approx(0.987, abs=5e-4)
    assert 0.0019 <= phys.sigma_lower <= 0.0023   # reported as 0.2%
    assert 0.0013 <= phys.sigma_upper <= 0.0019   # reported as 0.2%
    logical = ex.fidelity_bounds(0.003, 0.002, 0.0011, 0.0009)
    assert logical.lower == pytest.approx(0.995, abs=5e-4)
    assert logical.upper == pytest.approx(0.997, abs=5e-4)
    assert 0.0013 <= logical.sigma_lower <= 0.0016  # reported as 0.15%
    assert 0.0009 <= logical.sigma_upper <= 0.0012  # reported as 0.1%
    _note(7, "bounds 97.8/98.7 and 99.5/99.7 with matching standard errors")


def test_criterion_8_break_even_reproduction():
    t0 = time.time()
    shots = 20000
    summaries = {}
    for mode in ("physical", "logical", "logical-noqec"):
        cfg = ex.RunConfig(mode=mode, shots_z=shots, shots_x=shots,
                           noise=RATES, seed=20260809)
        summaries[mode] = ex.run(cfg)
    phys, log, noq = (summaries[m] for m in ("physical", "logical", "logical-noqec"))
    # (a) ordering with >= 3 sigma separation between corrected and physical
    for basis in ("z", "x"):
        p_phys = getattr(phys, basis)
        p_log = getattr(log, basis)
        p_noq = getattr(noq, basis)
        assert p_log.p < p_phys.p < p_noq.p, basis
        sep = (p_phys.p - p_log.p) / math.hypot(p_phys.sigma, p_log.sigma)
        assert sep >= 3.0, (basis, sep)
    # (b) bracketing of the z-basis rates
    assert 0.006 <= phys.z.p <= 0.024, phys.z.p
    assert 0.03 <= noq.z.p <= 0.09, noq.z.p
    assert 0.001 <= log.z.p <= 0.015, log.z.p
    # (c) postselection acceptance
    for stats in (log.z, log.x):
        assert 0.96 <= stats.acceptance <= 0.995, stats.acceptance
    # physical z bracket holds at heavy sampling as well
    big = ex.run(ex.RunConfig(mode="physical", shots_z=100000, shots_x=0,
                              noise=RATES, seed=7))
    assert 0.006 <= big.z.p <= 0.024, big.z.p
    elapsed = time.time() - t0
    assert elapsed < 900.0
    _note(8, "ordering corrected < physical < uncorrected in both bases "
             f"(z: {100 * log.z.p:.2f} < {100 * phys.z.p:.2f} < {100 * noq.z.p:.2f} %, "
             f"x: {100 * log.x.p:.2f} < {100 * phys.x.p:.2f} < {100 * noq.x.p:.2f} %), "
             f">=3 sigma separation, rates in band, acceptance "
             f"{100 * log.z.acceptance:.1f}% ({elapsed:.0f}s)")


def _oracle_circuits():
    a = ss.Circuit(4, tuple(
        [ss.prepz(q) for q in range(4)]
        + [ss.cnot(0, 1), ss.cnot(1, 2), ss.cnot(2, 3)]
        + [ss.measz(q, f"d{q}") for q in range(4)]))
    b = ss.Circuit(3, tuple(
        [ss.prepx(q) for q in range(3)]
        + [ss.cnot(0, 1), ss.cnot(1, 2)]
        + [ss.measx(q, f"d{q}") for q in range(3)]))
    c = ss.Circuit(3, (
        ss.prepz(0), ss.prepx(1), ss.prepz(2), ss.h(2), ss.h(2),
        ss.cnot(0, 1), ss.measz(0, "d0"), ss.measx(1, "d1"), ss.measz(2, "d2")))
    # the GHZ readout's outcomes are random, so it needs a fresh oracle seed per shot
    return {"cnot-chain-z": a, "plus-chain-x": b, "mixed-prep": c,
            "ghz-z": pr.physical_ghz_circuit("z")}


def test_criterion_9_simulator_oracle_equivalence():
    import numpy as np

    t0 = time.time()
    shots = 100000
    nm = ss.NoiseModel(0.05, 0.05, 0.05)
    for name, circ in _oracle_circuits().items():
        tags = circ.tags
        frame_counts = {}
        for rec in ss.sample_pauli_frame(circ, nm, 13, shots):
            key = tuple(rec[t] for t in tags)
            frame_counts[key] = frame_counts.get(key, 0) + 1
        rng = np.random.default_rng(2024)
        tab_counts = {}
        for _ in range(shots):
            rec = ss.simulate_tableau(ss.noisy_expansion(circ, nm, rng), rng)
            key = tuple(rec[t] for t in tags)
            tab_counts[key] = tab_counts.get(key, 0) + 1
        for key in sorted(set(frame_counts) | set(tab_counts)):
            f = frame_counts.get(key, 0) / shots
            t = tab_counts.get(key, 0) / shots
            pooled = (frame_counts.get(key, 0) + tab_counts.get(key, 0)) / (2 * shots)
            sigma = math.sqrt(max(pooled * (1 - pooled), 1e-9) * 2 / shots)
            assert abs(f - t) <= 4 * sigma + 1e-9, (name, key, f, t, sigma)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _note(9, f"frame sampler and exact engine agree within 4 sigma per outcome "
             f"cell at {shots} shots on four circuits ({elapsed:.0f}s)")
