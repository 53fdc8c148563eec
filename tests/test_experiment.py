import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from f2qec import experiment as ex
from f2qec import stab_sim as ss


def summary_from_rates(mode: str, z_p: float, z_n: int, x_p: float, x_n: int) -> ex.RunSummary:
    """Summary object for externally given mismatch rates."""
    cfg = ex.RunConfig(mode=mode, shots_z=z_n, shots_x=x_n)
    z = ex.BasisStats(z_n, z_n, round(z_p * z_n))
    x = ex.BasisStats(x_n, x_n, round(x_p * x_n))
    return ex.RunSummary(cfg, z, x)


def test_standard_error_values():
    assert ex.standard_error(0.5, 100) == pytest.approx(0.05)
    assert ex.standard_error(0.013, 5000) == pytest.approx(0.0016, abs=2e-4)
    assert ex.standard_error(0.0, 1234) == 0.0
    with pytest.raises(ValueError):
        ex.standard_error(0.1, 0)


def test_fidelity_bounds_reference_points():
    fb = ex.fidelity_bounds(0.013, 0.009)
    assert fb.lower == pytest.approx(0.978)
    assert fb.upper == pytest.approx(0.987)
    fb = ex.fidelity_bounds(0.003, 0.002)
    assert fb.lower == pytest.approx(0.995)
    assert fb.upper == pytest.approx(0.997)
    fb = ex.fidelity_bounds(0.0, 0.0)
    assert (fb.lower, fb.upper) == (1.0, 1.0)
    with pytest.raises(ValueError):
        ex.fidelity_bounds(1.2, 0.0)


def test_fidelity_bound_identity_and_quadrature():
    fb = ex.fidelity_bounds(0.031, 0.017, 0.003, 0.004)
    assert fb.upper - fb.lower == pytest.approx(0.017)
    assert fb.sigma_lower == pytest.approx(math.hypot(0.003, 0.004))
    assert fb.sigma_upper == 0.003


def test_noiseless_runs_are_exact():
    cfg = ex.RunConfig(mode="logical", shots_z=25, shots_x=25,
                       noise=ss.NoiseModel.zero(), seed=1)
    s = ex.run(cfg)
    assert s.z.p == 0.0 and s.x.p == 0.0
    assert s.z.acceptance == 1.0 and s.x.acceptance == 1.0
    gen = ex.run(ex.RunConfig(mode="generalized", shots_z=10, shots_x=10,
                              noise=ss.NoiseModel.zero(), seed=1, l=4, c=1))
    assert gen.z.p == 0.0 and gen.x.p == 0.0


def test_noqec_consumes_identical_shot_records(tmp_path):
    # same seed, same shot archive: only decode-time handling differs
    nm = ss.NoiseModel(3e-5, 2e-3, 2e-3)
    shots = ss.SHOT_BLOCK + 60
    qec = ex.RunConfig(mode="logical", shots_z=shots, shots_x=40, noise=nm, seed=9)
    noqec = ex.RunConfig(mode="logical-noqec", shots_z=shots, shots_x=40, noise=nm, seed=9)
    ex.run(qec, out_dir=str(tmp_path / "a"))
    ex.run(noqec, out_dir=str(tmp_path / "b"))
    rows_a = (tmp_path / "a" / "logical" / "shots.jsonl").read_text().splitlines()[1:]
    rows_b = (tmp_path / "b" / "logical-noqec" / "shots.jsonl").read_text().splitlines()[1:]
    assert len(rows_a) == shots + 40
    assert rows_a == rows_b


def test_run_determinism_and_thread_independence():
    nm = ss.NoiseModel(1e-3, 5e-3, 5e-3)
    base = ex.RunConfig(mode="logical", shots_z=80, shots_x=80, noise=nm, seed=21)
    s1 = ex.run(base)
    s2 = ex.run(base)
    assert s1.to_json() == s2.to_json()
    s3 = ex.run(ex.RunConfig.from_dict({**base.to_dict(), "threads": 2}))
    assert s3.z.mismatches == s1.z.mismatches
    assert s3.x.mismatches == s1.x.mismatches


def test_threads_with_archive_match_serial_run(tmp_path):
    # three chunks per basis, two of them starting inside a seeded block and
    # one crossing a block boundary: the files equal the serial run's byte
    # for byte, apart from the recorded thread count
    nm = ss.NoiseModel(1e-3, 5e-3, 5e-3)
    shots = ss.SHOT_BLOCK + 76
    base = ex.RunConfig(mode="logical", shots_z=shots, shots_x=shots - 1, noise=nm, seed=5)
    three = ex.RunConfig.from_dict({**base.to_dict(), "threads": 3})
    assert three.digest() == base.digest()
    files = {}
    for name, cfg in (("one", base), ("three", three)):
        ex.run(cfg, out_dir=str(tmp_path / name))
        mode_dir = tmp_path / name / "logical"
        files[name] = [(mode_dir / f).read_text().replace('"threads": 3', '"threads": 1')
                       for f in ("summary.json", "shots.jsonl")]
    assert files["one"] == files["three"]
    assert len(files["one"][1].splitlines()) == 1 + 2 * shots - 1


def test_archive_header_and_summary(tmp_path):
    cfg = ex.RunConfig(mode="physical", shots_z=20, shots_x=10,
                       noise=ss.NoiseModel.zero(), seed=2)
    s = ex.run(cfg, out_dir=str(tmp_path))
    lines = (tmp_path / "physical" / "shots.jsonl").read_text().splitlines()
    head = json.loads(lines[0])
    assert head["config_hash"] == cfg.digest()
    assert len(lines) == 1 + 30
    summary = json.loads((tmp_path / "physical" / "summary.json").read_text())
    assert ex.RunSummary.from_json(summary).z.shots == 20
    assert s.z.acceptance == 1.0


def _archive_lines(tmp_path, cfg):
    ex.run(cfg, out_dir=str(tmp_path))
    lines = (tmp_path / cfg.mode / "shots.jsonl").read_text().splitlines()
    assert json.loads(lines[0]) == {"config_hash": cfg.digest(), "config": cfg.to_dict()}
    return [json.loads(line) for line in lines[1:]]


def test_archive_of_a_basis_without_shots_has_only_the_other_basis(tmp_path):
    cfg = ex.RunConfig(mode="physical", shots_z=7, shots_x=0,
                       noise=ss.NoiseModel(0.0, 0.0, 0.1), seed=3)
    rows = _archive_lines(tmp_path, cfg)
    assert [(r["basis"], r["shot"]) for r in rows] == [("z", i) for i in range(7)]


def test_archive_of_a_zero_shot_run_is_the_header_alone(tmp_path):
    cfg = ex.RunConfig(mode="logical", shots_z=0, shots_x=0, threads=2)
    assert _archive_lines(tmp_path, cfg) == []


_TAG = st.text(alphabet=["a", "b", "0", "1", "9", "_", '"', "\\", "\u00e9"], min_size=1, max_size=4)


@given(basis=st.sampled_from("zx"), tags=st.lists(_TAG, unique=True, max_size=8),
       shots=st.integers(0, 5), start=st.integers(0, 10 ** 12), seed=st.integers(0, 2 ** 32 - 1))
@example(basis="z", tags=["b9", "b10", "a"], shots=3, start=0, seed=1)
@example(basis="x", tags=['q"', "q\\", "\u00e9", "e"], shots=2, start=4095, seed=2)
@example(basis="z", tags=["b1"], shots=0, start=7, seed=3)
def test_archive_rows_equal_json_dumps_of_each_row(basis, tags, shots, start, seed):
    # the template writer against the definition: one sorted-key
    # json.dumps per shot, with escaping and non-ASCII tags
    bits = np.random.default_rng(seed).integers(0, 2, (len(tags), shots)).astype(bool)
    want = "".join(json.dumps({"basis": basis, "shot": start + i, "outcomes": dict(zip(tags, col))},
                              sort_keys=True) + "\n"
                   for i, col in enumerate(bits.T.astype(np.uint8).tolist()))
    assert ex._archive_rows(basis, tuple(tags), bits, start) == want


def test_zero_shot_run_reports_no_data():
    cfg = ex.RunConfig(mode="physical", shots_z=0, shots_x=0)
    s = ex.run(cfg)
    assert s.z.p is None and s.fidelity is None
    text = ex.report({"physical": s}, "text")
    assert "no data" in text


def test_report_three_row_table_and_fidelity_lines():
    summaries = {
        "physical": summary_from_rates("physical", 0.013, 5000, 0.009, 5000),
        "logical-noqec": summary_from_rates("logical-noqec", 0.057, 2450, 0.029, 2450),
        "logical": summary_from_rates("logical", 0.003, 2450, 0.002, 2450),
    }
    text = ex.report(summaries, "text")
    assert "Physical" in text and "Logical (no QEC)" in text and "Logical (with QEC)" in text
    assert "1.3 +- 0.2" in text
    assert "5.7 +- 0.5" in text and "2.9 +- 0.3" in text
    assert "0.3 +- 0.1" in text and "0.2 +- 0.1" in text
    assert "97.8" in text and "98.7" in text
    assert "99.5" in text and "99.7" in text


def test_report_json_csv_round_trip():
    summaries = {"physical": summary_from_rates("physical", 0.013, 5000, 0.009, 5000)}
    js = json.loads(ex.report(summaries, "json"))
    assert js["physical"]["z"]["p"] == pytest.approx(0.013)
    csv = ex.report(summaries, "csv")
    header, *rows = [r for r in csv.splitlines() if r]
    assert header.startswith("mode,basis")
    zrow = next(r for r in rows if r.startswith("physical,z"))
    p_text = zrow.split(",")[5]
    assert float(p_text) == js["physical"]["z"]["p"]  # every digit preserved
    with pytest.raises(ValueError):
        ex.report(summaries, "yaml")


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\nmode = logical\nshots_z = 11\nshots_x = 7\n"
        "p1 = 3e-5\np2 = 2e-3\np_spam = 2e-3\nseed = 4\nthreads = 1\n")
    cfg = ex.RunConfig.from_file(str(path))
    assert cfg.mode == "logical" and cfg.shots_z == 11 and cfg.shots_x == 7
    assert cfg.noise.p2 == pytest.approx(2e-3)
    again = ex.RunConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ValueError, match="shot_z"):
        ex.RunConfig.from_dict({"mode": "logical", "shot_z": 10})
    path = tmp_path / "typo.cfg"
    path.write_text("mode = physical\nshot_z = 10\n")
    with pytest.raises(ValueError, match="shot_z"):
        ex.RunConfig.from_file(str(path))
    # a repeated key is an error too, not a silent last-one-wins
    path.write_text("shots_z = 10\nmode = physical\nshots_z = 20\n")
    with pytest.raises(ValueError, match="'shots_z' repeated"):
        ex.RunConfig.from_file(str(path))


def test_config_validation():
    with pytest.raises(ValueError):
        ex.RunConfig(mode="bogus")
    with pytest.raises(ValueError):
        ex.RunConfig(shots_z=-2)
    for prior_mode in ("psychic", "uniform"):
        with pytest.raises(ValueError, match="prior_mode"):
            ex.RunConfig(prior_mode=prior_mode)
    # int() and float() take other scripts' digits, '_' groups and bools
    for key, value in [("shots_z", "١٠"), ("shots_x", "1_0"), ("seed", "٣"),
                       ("p2", "0.00_2"), ("p1", "３e-5"), ("threads", True), ("l", False)]:
        with pytest.raises(ValueError, match="ASCII"):
            ex.RunConfig.from_dict({key: value})
    # a value that does not parse as a number names its key
    for key, value in [("shots_z", "abc"), ("p2", "x"), ("shots_z", "١٠"),
                       ("osd_depth", "1.5"), ("p_spam", "")]:
        with pytest.raises(ValueError, match=key):
            ex.RunConfig.from_dict({key: value})
    cfg = ex.RunConfig.from_dict({"shots_z": " 10 ", "shots_x": 7, "seed": "-3", "p2": "2e-3"})
    assert (cfg.shots_z, cfg.shots_x, cfg.seed, cfg.noise.p2) == (10, 7, -3, 2e-3)


@pytest.mark.parametrize("key", ["bp_iters", "osd_depth"])
def test_config_rejects_negative_decoder_settings(key):
    with pytest.raises(ValueError, match=key):
        ex.RunConfig(**{key: -1})
    with pytest.raises(ValueError, match=key):
        ex.RunConfig.from_dict({key: "-3"})
    assert getattr(ex.RunConfig(**{key: 0}), key) == 0


def test_priors_reflect_gate_counts(flagship_code):
    from f2qec import protocol as pr

    circ, _ = pr.logical_ghz_circuit(flagship_code, "z")
    nm = ss.NoiseModel(3e-5, 2e-3, 2e-3)
    priors = ex.data_error_priors(circ, nm, 25, "z")
    assert len(priors) == 25
    assert all(0 < p < 0.05 for p in priors)
    # a qubit touched by more CNOTs carries a larger prior
    counts, _ = ex._gate_counts(circ, 25)
    hi = max(range(25), key=lambda q: counts[q])
    lo = min(range(25), key=lambda q: counts[q])
    assert priors[hi] > priors[lo]
    frame = ex.frame_error_priors(flagship_code, nm)
    assert len(frame) == 10
    heavy = max(range(10), key=lambda r: flagship_code.hx.row(r).bit_count())
    light = min(range(10), key=lambda r: flagship_code.hx.row(r).bit_count())
    assert frame[heavy] > frame[light]


@pytest.mark.parametrize("mode, l, shots, pinned", [
    ("physical", 3, 1500, ("30343cc50dd2ae17", "f61384a776950f62")),
    ("logical", 3, 1500, ("b4f5487becdd7c55", "233fe9777a93f554")),
    ("logical-noqec", 3, 1500, ("3c1b12a8ad12dbb3", "456ce585c7bfb92c")),
    ("generalized", 4, 1500, ("99c683e96b21f5a4", "d9f42d528f0d1155")),
    # l = 20: a 68-bit Z key word, wider than any machine integer
    ("generalized", 20, 300, ("ceb090a1c97de105", "4646602b69a196cf")),
])
def test_seeded_run_files_are_pinned_byte_for_byte(tmp_path, mode, l, shots, pinned):
    cfg = ex.RunConfig(mode=mode, shots_z=shots, shots_x=shots,
                       noise=ss.NoiseModel(1e-3, 5e-3, 5e-3), seed=4, l=l)
    ex.run(cfg, out_dir=str(tmp_path))
    digests = tuple(hashlib.sha256((tmp_path / mode / name).read_bytes()).hexdigest()[:16]
                    for name in ("summary.json", "shots.jsonl"))
    assert digests == pinned


def _per_shot_verdict(cfg, basis, recipe, h, priors, rec):
    """The verdict on one shot record, walked through the per-shot frame
    and readout functions with a fresh BP+OSD call."""
    from f2qec import protocol as pr
    from f2qec.decoder import DecodeProblem, bp_osd
    from f2qec.f2linalg import parity

    if recipe is None:
        bits = [rec[f"d{q}"] for q in range(4)]
        return len(set(bits)) != 1 if basis == "z" else sum(bits) % 2 == 1
    frame = pr.frame_from_shot(recipe, rec)
    if not frame.accepted:
        return None
    code = recipe.code
    syndrome, raw = pr.readout_reduce(code, basis, [rec[t] for t in recipe.data_tags], frame)
    raw = list(raw)
    if cfg.mode != "logical-noqec" and syndrome:
        est = bp_osd(DecodeProblem(h, priors, syndrome), cfg.bp_iters, cfg.osd_depth).error_estimate
        if basis == "z":
            raw = [b ^ parity(est, lz) for b, lz in zip(raw, code.logicals_z)]
        else:
            raw[0] ^= (parity(est & ((1 << code.n) - 1), code.logical_x_product)
                       ^ parity(est >> code.n, recipe.meas_parity_coeffs))
    return len(set(raw)) != 1 if basis == "z" else raw[0] == 1


@pytest.mark.parametrize("mode", ex.MODES)
def test_key_word_verdicts_match_per_shot_reference(mode):
    # the run's path (key words, one verdict per distinct word) gives every
    # seeded shot the verdict of the per-shot record walk
    cfg = ex.RunConfig(mode=mode, noise=ss.NoiseModel(1e-3, 5e-3, 5e-3), l=4)
    seen = set()
    for basis in ("z", "x"):
        circ, recipe = ex.build_pipeline(cfg, basis)
        classifier = ex._Classifier(cfg, basis, circ, recipe)
        records = ss.sample_pauli_frame(circ, cfg.noise, 8, 1200)
        bits = np.array([[rec[t] for t in circ.tags()] for rec in records], dtype=bool).T
        verdicts, inverse, counts = classifier.classify(bits)
        assert counts.sum() == len(records)
        bp = classifier.bp
        h, priors = (None, None) if bp is None else (bp.h, bp.priors)
        for rec, i in zip(records, inverse):
            assert verdicts[i] == _per_shot_verdict(cfg, basis, recipe, h, priors, rec)
            seen.add(verdicts[i])
    assert seen == ({True, False} if mode == "physical" else {None, True, False})


def test_each_distinct_syndrome_is_decoded_once(monkeypatch):
    # words that differ only in their raw bits share a syndrome, and
    # BP+OSD runs once for it; the syndromes come from the per-shot walk
    from f2qec import protocol as pr

    calls, decode = [], ex.bp_then_osd

    def counting(bp, syndrome, depth):
        calls.append((bp.h.cols, syndrome))
        return decode(bp, syndrome, depth)

    monkeypatch.setattr(ex, "bp_then_osd", counting)
    cfg = ex.RunConfig(mode="logical", shots_z=1500, shots_x=1500,
                       noise=ss.NoiseModel(1e-3, 5e-3, 5e-3), seed=4)
    ex.run(cfg)
    want = []
    for basis in ("z", "x"):
        circ, recipe = ex.build_pipeline(cfg, basis)
        bits = ss.sample_outcomes(circ, cfg.noise, ex._basis_seed(cfg, basis), 1500)
        syndromes = set()
        for rec in ss.outcome_dicts(circ.tags(), bits):
            frame = pr.frame_from_shot(recipe, rec)
            if frame.accepted:
                data = [rec[t] for t in recipe.data_tags]
                syndrome, _ = pr.readout_reduce(recipe.code, basis, data, frame)
                if syndrome:
                    syndromes.add(syndrome)
        cols = recipe.code.n + (recipe.code.hx.rows if basis == "x" else 0)
        want += [(cols, s) for s in sorted(syndromes)]
    assert sorted(calls) == sorted(want)


def test_fault_tolerance_ledger_is_pinned_entry_by_entry():
    # every entry of both bases (location, Pauli, outcome) in order; the
    # per-outcome totals of criterion 5 cannot see two entries trading places
    entries = {basis: [[e.instruction_index, e.kind, e.pauli, e.outcome]
                       for e in ex.fault_tolerance_ledger(basis).entries]
               for basis in ("z", "x")}
    digest = hashlib.sha256(json.dumps(entries, sort_keys=True).encode()).hexdigest()
    assert (len(entries["z"]), len(entries["x"])) == (799, 799)
    assert digest == "ae612ce90f93ad0148b7bfdd24c3bd5604f073970fdf1eae3c56ae8d68fcf20a"
