import copy
import hashlib
import json
import math
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from f2qec import experiment as ex
from f2qec import stab_sim as ss


def _forget_configurations():
    """Empty the process-wide pipeline and classifier memos; the circuits go
    with them, and so do the record maps cached on the circuits."""
    ex._pipeline.cache_clear()
    ex._shared_classifier.cache_clear()


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
                       noise=ss.NoiseModel(), seed=1)
    s = ex.run(cfg)
    assert s.z.p == 0.0 and s.x.p == 0.0
    assert s.z.acceptance == 1.0 and s.x.acceptance == 1.0
    gen = ex.run(ex.RunConfig(mode="generalized", shots_z=10, shots_x=10,
                              noise=ss.NoiseModel(), seed=1, l=4, c=1))
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


def test_run_determinism_and_shot_prefixes(tmp_path):
    # a shot depends only on its index: the archived rows of an N-shot run
    # are the first N rows of an M-shot run in each basis, with N inside the
    # first seeded block and M in the third
    nm = ss.NoiseModel(1e-3, 5e-3, 5e-3)
    short = ex.RunConfig(mode="logical", shots_z=80, shots_x=79, noise=nm, seed=21)
    long = short.replace(shots_z=2 * ss.SHOT_BLOCK + 5, shots_x=2 * ss.SHOT_BLOCK + 70)
    assert ex.run(short).to_json() == ex.run(short).to_json()
    rows = {}
    for name, cfg in (("short", short), ("long", long)):
        by_basis = {"z": [], "x": []}
        for row in _archive_lines(tmp_path / name, cfg):
            by_basis[row["basis"]].append(row)
        assert [len(by_basis[b]) for b in "zx"] == [cfg.shots_z, cfg.shots_x]
        rows[name] = by_basis
    for basis in "zx":
        assert rows["short"][basis] == rows["long"][basis][:len(rows["short"][basis])]
    assert len({json.dumps(r["outcomes"]) for r in rows["long"]["z"]}) > 1


def test_archive_header_and_summary(tmp_path):
    cfg = ex.RunConfig(mode="physical", shots_z=20, shots_x=10,
                       noise=ss.NoiseModel(), seed=2)
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
    cfg = ex.RunConfig(mode="logical", shots_z=0, shots_x=0)
    assert _archive_lines(tmp_path, cfg) == []


def _run_files(out_dir, cfg):
    return {name: (out_dir / cfg.mode / name).read_bytes()
            for name in ("summary.json", "shots.jsonl")}


def test_a_rerun_writes_the_files_of_a_run_into_a_fresh_directory(tmp_path):
    # the same request twice, and after a run with more shots whose longer
    # archive and other summary are in the way: each time the files are
    # those of a run into an empty directory
    nm = ss.NoiseModel(1e-3, 5e-3, 5e-3)
    cfg = ex.RunConfig(mode="logical", shots_z=120, shots_x=90, noise=nm, seed=7)
    longer = cfg.replace(shots_z=300, shots_x=250)
    ex.run(cfg, out_dir=str(tmp_path / "fresh"))
    fresh = _run_files(tmp_path / "fresh", cfg)
    again = tmp_path / "again"
    ex.run(cfg, out_dir=str(again))
    ex.run(cfg, out_dir=str(again))
    assert _run_files(again, cfg) == fresh
    ex.run(longer, out_dir=str(again))
    assert len(_run_files(again, cfg)["shots.jsonl"]) > len(fresh["shots.jsonl"])
    ex.run(cfg, out_dir=str(again))
    assert _run_files(again, cfg) == fresh
    assert sorted(p.name for p in (again / cfg.mode).iterdir()) == ["shots.jsonl", "summary.json"]


def test_an_archived_run_hashes_its_config_once(tmp_path, monkeypatch):
    # the archive header and summary.json carry the one config_hash
    cfg = ex.RunConfig(mode="logical", shots_z=30, shots_x=30,
                       noise=ss.NoiseModel(1e-3, 5e-3, 5e-3), seed=7)
    calls = []
    digest = ex.RunConfig.digest
    monkeypatch.setattr(ex.RunConfig, "digest", lambda self: calls.append(self) or digest(self))
    ex.run(cfg, out_dir=str(tmp_path))
    assert calls == [cfg]
    files = _run_files(tmp_path, cfg)
    header = json.loads(files["shots.jsonl"].split(b"\n")[0])
    assert header["config_hash"] == json.loads(files["summary.json"])["config_hash"] == digest(cfg)


def test_a_rerun_replaces_the_files_instead_of_writing_through_them(tmp_path):
    # a hard link to the old archive keeps the old bytes: the rerun wrote a
    # new file at the path, not into the old one
    cfg = ex.RunConfig(mode="physical", shots_z=40, shots_x=40,
                       noise=ss.NoiseModel(0.0, 0.0, 0.1), seed=1)
    ex.run(cfg, out_dir=str(tmp_path))
    old = _run_files(tmp_path, cfg)
    kept = tmp_path / "kept.jsonl"
    os.link(tmp_path / cfg.mode / "shots.jsonl", kept)
    other = cfg.replace(seed=2)
    ex.run(other, out_dir=str(tmp_path))
    new = _run_files(tmp_path, other)
    assert kept.read_bytes() == old["shots.jsonl"] != new["shots.jsonl"]
    assert not os.path.samefile(kept, tmp_path / cfg.mode / "shots.jsonl")


def test_a_rerun_that_fails_while_archiving_leaves_no_summary(tmp_path, monkeypatch):
    # the old summary is removed before the archive is written and the new
    # one is written after it, so no summary.json sits next to an archive
    # that is not its own
    cfg = ex.RunConfig(mode="physical", shots_z=10, shots_x=10, seed=1)
    ex.run(cfg, out_dir=str(tmp_path))
    assert (tmp_path / cfg.mode / "summary.json").exists()

    def fail(*args):
        raise RuntimeError("archive failed")

    monkeypatch.setattr(ex, "_archive_rows", fail)
    with pytest.raises(RuntimeError, match="archive failed"):
        ex.run(cfg.replace(seed=2), out_dir=str(tmp_path))
    assert not (tmp_path / cfg.mode / "summary.json").exists()


_TAG = st.text(alphabet=["a", "b", "0", "1", "9", "_", '"', "\\", "\u00e9"], min_size=1, max_size=4)


@given(basis=st.sampled_from("zx"), tags=st.lists(_TAG, unique=True, max_size=8),
       shots=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1))
@example(basis="z", tags=["b9", "b10", "a"], shots=3, seed=1)
@example(basis="x", tags=['q"', "q\\", "\u00e9", "e"], shots=2, seed=2)
@example(basis="z", tags=["b1"], shots=0, seed=3)
def test_archive_rows_equal_json_dumps_of_each_row(basis, tags, shots, seed):
    # the template writer against the definition: one sorted-key
    # json.dumps per shot, with escaping and non-ASCII tags
    bits = np.random.default_rng(seed).integers(0, 2, (len(tags), shots)).astype(bool)
    want = "".join(json.dumps({"basis": basis, "shot": i, "outcomes": dict(zip(tags, col))},
                              sort_keys=True) + "\n"
                   for i, col in enumerate(bits.T.astype(np.uint8).tolist()))
    assert bytes(ex._archive_rows(basis, tuple(tags), bits.T)) == want.encode()


@pytest.mark.parametrize("shots", [0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 10001])
def test_archive_rows_across_shot_number_digit_counts(shots):
    # rows are built in groups by the digit count of the shot number: each
    # group boundary against one sorted-key json.dumps per shot
    tags = ('q"', "q\\", "\u00e9", "e", "b9", "b10")
    bits = np.random.default_rng(shots).integers(0, 2, (len(tags), shots)).astype(bool)
    want = "".join(json.dumps({"basis": "x", "shot": i, "outcomes": dict(zip(tags, col))},
                              sort_keys=True) + "\n"
                   for i, col in enumerate(bits.T.astype(np.uint8).tolist()))
    assert bytes(ex._archive_rows("x", tags, bits.T)) == want.encode()


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
        "p1 = 3e-5\np2 = 2e-3\np_spam = 2e-3\nseed = 4\n")
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
                       ("p2", "0.00_2"), ("p1", "３e-5"), ("c", True), ("l", False),
                       # int() truncates a float
                       ("seed", 1.5), ("shots_z", 2.7), ("l", 4.0)]:
        with pytest.raises(ValueError, match="ASCII"):
            ex.RunConfig.from_dict({key: value})
    # a value that does not parse as a number names its key
    for key, value in [("shots_z", "abc"), ("p2", "x"), ("shots_z", "١٠"),
                       ("osd_depth", "1.5"), ("p_spam", "")]:
        with pytest.raises(ValueError, match=key):
            ex.RunConfig.from_dict({key: value})
    cfg = ex.RunConfig.from_dict({"shots_z": " 10 ", "shots_x": 7, "seed": "3", "p2": "2e-3"})
    assert (cfg.shots_z, cfg.shots_x, cfg.seed, cfg.noise.p2) == (10, 7, 3, 2e-3)
    # the sampler keeps the low 48 bits of a seed, so a seed outside
    # [0, 2**48) would write the shots of one inside it
    for seed in (-1, "-3", 2 ** 48, str(2 ** 48 + 5)):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*48\)"):
            ex.RunConfig.from_dict({"seed": seed})
    with pytest.raises(ValueError, match="seed"):
        ex.RunConfig(seed=-1)
    assert ex.RunConfig.from_dict({"seed": str(2 ** 48 - 1)}).seed == 2 ** 48 - 1
    cfg = ex.RunConfig.from_dict({"p1": 0, "p2": 2e-3})
    assert (cfg.noise.p1, cfg.noise.p2) == (0.0, 2e-3)


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


_RUN_PINS = [
    ("physical", 3, 1500, ("6b7352b6f65eef60", "22651a796068fba0")),
    ("logical", 3, 1500, ("98fb30f83f72d9a9", "78b9e169b3819724")),
    ("logical-noqec", 3, 1500, ("3865a6875463d225", "ee29f0f772c56fd6")),
    ("generalized", 4, 1500, ("4157fb5689c7e063", "7e0b01c8988c46d3")),
    # l = 20: a 68-bit Z key word, wider than any machine integer
    ("generalized", 20, 300, ("d69f8978ac95821b", "64b7286b12ae5c1e")),
]


def _pinned_run_digests(out_dir, cfg):
    """Digests of the run's summary.json and shots.jsonl."""
    ex.run(cfg, out_dir=str(out_dir))
    return tuple(hashlib.sha256((out_dir / cfg.mode / name).read_bytes()).hexdigest()[:16]
                 for name in ("summary.json", "shots.jsonl"))


@pytest.mark.parametrize("mode, l, shots, pinned", _RUN_PINS)
def test_seeded_run_files_are_pinned_byte_for_byte(tmp_path, mode, l, shots, pinned):
    cfg = ex.RunConfig(mode=mode, shots_z=shots, shots_x=shots,
                       noise=ss.NoiseModel(1e-3, 5e-3, 5e-3), seed=4, l=l)
    assert _pinned_run_digests(tmp_path, cfg) == pinned


@pytest.mark.parametrize("mode, l, shots, pinned", _RUN_PINS)
def test_seeded_run_files_do_not_depend_on_earlier_runs(tmp_path, mode, l, shots, pinned):
    # cold: the process keeps no pipeline, classifier or record map of the
    # config; warm: the config ran before with another seed
    cfg = ex.RunConfig(mode=mode, shots_z=shots, shots_x=shots,
                       noise=ss.NoiseModel(1e-3, 5e-3, 5e-3), seed=4, l=l)
    _forget_configurations()
    assert _pinned_run_digests(tmp_path / "cold", cfg) == pinned
    ex.run(cfg.replace(seed=11))
    assert _pinned_run_digests(tmp_path / "warm", cfg) == pinned


def test_ledger_does_not_depend_on_earlier_runs():
    _forget_configurations()
    cold = [ex.fault_tolerance_ledger(basis).entries for basis in ("z", "x")]
    ex.run(ex.RunConfig(mode="logical", shots_z=1500, shots_x=1500,
                        noise=ss.NoiseModel(3e-5, 2e-3, 2e-3), seed=6))
    assert [ex.fault_tolerance_ledger(basis).entries for basis in ("z", "x")] == cold


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
        bits = np.array([[rec[t] for t in circ.tags] for rec in records], dtype=bool).T
        verdicts = classifier.classify(ss.pack_words(bits.T))
        assert len(verdicts) == len(records)
        bp = classifier.bp
        h, priors = (None, None) if bp is None else (bp.h, bp.priors)
        for rec, verdict in zip(records, verdicts):
            assert verdict == _per_shot_verdict(cfg, basis, recipe, h, priors, rec)
            seen.add(verdict)
    assert seen == ({True, False} if mode == "physical" else {None, True, False})


def test_configs_that_differ_in_seed_or_shots_share_one_classifier():
    # the classifier memo is keyed by the config's field values
    cfg = ex.RunConfig(mode="physical", shots_z=10, noise=ss.NoiseModel(1e-3, 5e-3, 5e-3))
    other = ex.RunConfig("physical", 20, 30, ss.NoiseModel(1e-3, 5e-3, 5e-3), seed=9)
    assert ex._classifier(cfg, "z") is ex._classifier(other, "z")
    assert ex._classifier(cfg, "z") is not ex._classifier(cfg.replace(bp_iters=11), "z")


@settings(deadline=None, max_examples=60)
@given(mode=st.sampled_from(ex.MODES), basis=st.sampled_from("zx"),
       sampled=st.booleans(), shots=st.integers(0, 80), seed=st.integers(0, 2 ** 32 - 1))
@example(mode="logical", basis="x", sampled=True, shots=0, seed=0)
def test_tally_counts_the_verdicts_of_classify(mode, basis, sampled, shots, seed):
    # a run counts verdicts by key word; the ledger reads them shot by shot:
    # the counts agree on random bits (most rejected, many syndromes) and on
    # sampled shots
    cfg = ex.RunConfig(mode=mode, noise=ss.NoiseModel(1e-3, 5e-3, 5e-3), l=4)
    circ, _ = ex.build_pipeline(cfg, basis)
    classifier = ex._classifier(cfg, basis)
    if sampled:
        records = ss.sample_words(circ, cfg.noise, seed, shots)
    else:
        bits = np.random.default_rng(seed).integers(0, 2, (shots, len(circ.tags))).astype(bool)
        records = ss.pack_words(bits)
    assert classifier.tally(records) == Counter(classifier.classify(records))


def _walked_syndromes(cfg):
    """The (decoder columns, syndrome) of every accepted shot of cfg with a
    nonzero syndrome, from the per-shot walk."""
    from f2qec import protocol as pr

    out = set()
    for basis, shots in (("z", cfg.shots_z), ("x", cfg.shots_x)):
        circ, recipe = ex.build_pipeline(cfg, basis)
        bits = ss.sample_outcomes(circ, cfg.noise, ex._basis_seed(cfg, basis), shots)
        cols = recipe.code.n + (recipe.code.hx.rows if basis == "x" else 0)
        for rec in ss.outcome_dicts(circ.tags, bits):
            frame = pr.frame_from_shot(recipe, rec)
            if frame.accepted:
                data = [rec[t] for t in recipe.data_tags]
                syndrome, _ = pr.readout_reduce(recipe.code, basis, data, frame)
                if syndrome:
                    out.add((cols, syndrome))
    return out


def test_each_distinct_syndrome_is_decoded_once(monkeypatch):
    # words that differ only in their raw bits share a syndrome, and
    # BP+OSD runs once for it; a second run with a new seed decodes only
    # the syndromes that the first did not, since the process keeps them
    calls, decode = [], ex.bp_then_osd

    def counting(bp, syndrome, depth):
        calls.append((bp.h.cols, syndrome))
        return decode(bp, syndrome, depth)

    _forget_configurations()
    monkeypatch.setattr(ex, "bp_then_osd", counting)
    cfg = ex.RunConfig(mode="logical", shots_z=1500, shots_x=1500,
                       noise=ss.NoiseModel(1e-3, 5e-3, 5e-3), seed=4)
    ex.run(cfg)
    first = _walked_syndromes(cfg)
    assert sorted(calls) == sorted(first)
    calls.clear()
    again = cfg.replace(seed=5)
    ex.run(again)
    new = _walked_syndromes(again) - first
    assert new and sorted(calls) == sorted(new)


def test_fault_tolerance_ledger_is_pinned_entry_by_entry():
    # every entry of both bases (location, Pauli, outcome) in order; the
    # per-outcome totals of criterion 5 cannot see two entries trading places
    entries = {basis: [[e.instruction_index, e.kind, e.pauli, e.outcome]
                       for e in ex.fault_tolerance_ledger(basis).entries]
               for basis in ("z", "x")}
    digest = hashlib.sha256(json.dumps(entries, sort_keys=True).encode()).hexdigest()
    assert (len(entries["z"]), len(entries["x"])) == (799, 799)
    assert digest == "ae612ce90f93ad0148b7bfdd24c3bd5604f073970fdf1eae3c56ae8d68fcf20a"


@pytest.mark.parametrize("basis", ["z", "x"])
def test_ledger_labels_each_fault_as_a_loop_over_its_cases(basis):
    # the ledger reads the shared classifier's verdicts through one outcome
    # table; here each case is labelled on its own, from a fresh classifier
    cfg = ex.RunConfig(mode="logical", noise=ss.NoiseModel(3e-5, 2e-3, 2e-3))
    circ, recipe = ex.build_pipeline(cfg, basis)
    records, tags = circ.fault_record_words, circ.tags
    verdicts = ex._Classifier(cfg, basis, circ, recipe).classify(records)
    xbar_flips = ss.unpack_words(records, len(tags))[:, tags.index(recipe.xbar_tags[0])]
    want = []
    for (index, kind, pauli), mismatch, xbar_flip in zip(circ.fault_cases, verdicts, xbar_flips):
        if mismatch is None:
            outcome = "rejected"
        elif not mismatch:
            outcome = "correct"
        elif xbar_flip:
            outcome = "nonft-set"
        else:
            outcome = "extra"
        want.append((index, kind, pauli, outcome))
    entries = ex.fault_tolerance_ledger(basis).entries
    assert entries == want and {e.outcome for e in entries} >= {"correct", "rejected"}
    assert all(type(e) is ex.LedgerEntry for e in entries)
    assert ex.LedgerEntry._fields == ("instruction_index", "kind", "pauli", "outcome")


@pytest.mark.parametrize("basis", ["z", "x"])
def test_ledger_reads_extra_for_accepted_mismatches_that_flip_no_gadget(basis, monkeypatch):
    # no single fault of the paper's pipeline reads "extra", so here every
    # accepted word mismatches: the faults that flip xbar_0 read "nonft-set",
    # the others "extra", and the rejected ones still "rejected"
    verdict = ex._Classifier.verdict

    def mismatching(self, word):
        return None if verdict(self, word) is None else True

    monkeypatch.setattr(ex._Classifier, "verdict", mismatching)
    cfg = ex.RunConfig(mode="logical", noise=ss.NoiseModel(3e-5, 2e-3, 2e-3))
    circ, recipe = ex.build_pipeline(cfg, basis)
    records, tags = circ.fault_record_words, circ.tags
    flips = ss.unpack_words(records, len(tags))[:, tags.index(recipe.xbar_tags[0])]
    entries = ex.fault_tolerance_ledger(basis).entries
    accepted = [(e.outcome, flip) for e, flip in zip(entries, flips.tolist())
                if e.outcome != "rejected"]
    assert sum(e.outcome == "rejected" for e in entries) == 102
    assert {outcome for outcome, _ in accepted} == {"extra", "nonft-set"}
    assert all(outcome == ("nonft-set" if flip else "extra") for outcome, flip in accepted)


@pytest.mark.parametrize("basis", ["z", "x"])
@pytest.mark.parametrize("mode", ["logical", "generalized"])
def test_accepted_single_faults_flip_all_gadget_outcomes_or_none(mode, basis):
    # the ledger reads one gadget outcome's flip: postselection accepts
    # only equal outcomes, so an accepted fault flips all three or none
    cfg = ex.RunConfig(mode=mode, noise=ss.NoiseModel(3e-5, 2e-3, 2e-3), l=4)
    circ, recipe = ex.build_pipeline(cfg, basis)
    records, tags = circ.fault_record_words, circ.tags
    verdicts = ex._Classifier(cfg, basis, circ, recipe).classify(records)
    flips = ss.unpack_words(records, len(tags))[:, [tags.index(t) for t in recipe.xbar_tags]]
    accepted = [tuple(f) for f, v in zip(flips.tolist(), verdicts) if v is not None]
    assert 0 < len(accepted) < len(verdicts)
    assert set(accepted) <= {(False,) * 3, (True,) * 3}
    assert (True,) * 3 in accepted


def _key_words(classifier, records):
    """classify's key words: a copy of the classifier whose verdict is the word itself."""
    probe = copy.copy(classifier)
    probe.verdict = lambda word: word
    return probe.classify(records)


@pytest.mark.parametrize("basis", ["z", "x"])
def test_table_key_words_are_exact_on_the_widest_key(basis):
    # generalized l = 20 has the widest key (68 x 159 in Z, 48 x 159 in X):
    # its key words, the all-ones record included, against the GF(2)
    # product in Python ints
    cfg = ex.RunConfig(mode="generalized", noise=ss.NoiseModel(1e-3, 5e-3, 5e-3), l=20)
    key = ex.build_pipeline(cfg, basis)[1].key
    assert (key.rows, key.cols) == ((68 if basis == "z" else 48), 159)
    classifier = ex._classifier(cfg, basis)
    # one table per record byte, its entries key words of two 64-bit words in Z
    assert classifier.key_tables.shape == (20, 256, 2 if basis == "z" else 1)
    rows = key.data
    bits = np.random.default_rng(5).integers(0, 2, (159, 200)).astype(bool)
    bits[:, 0] = True
    want = [sum((row & col).bit_count() % 2 << r for r, row in enumerate(rows))
            for col in ss.word_ints(ss.pack_words(bits.T))]
    assert _key_words(classifier, ss.pack_words(bits.T)) == want
    # a parity over 4097 record tags, past float16's 2048 exact integers, stays exact
    wide = copy.copy(classifier)
    wide.key_tables = ss.byte_tables(ss.pack_words(np.ones((4097, 1), dtype=bool)))
    assert _key_words(wide, ss.pack_words(np.ones((3, 4097), dtype=bool))) == [1, 1, 1]


@settings(deadline=None, max_examples=40)
@given(st.integers(65, 150), st.integers(0, 200), st.integers(0, 40),
       st.integers(0, 2 ** 32 - 1))
def test_table_key_words_equal_the_key_product_on_wide_keys(width, tags, shots, seed):
    # keys wider than one 64-bit word, over any number of record tags: the
    # byte-table key words against key @ bits mod 2, read as Python ints
    rng = np.random.default_rng(seed)
    key = rng.integers(0, 2, (width, tags)).astype(bool)
    bits = rng.integers(0, 2, (tags, shots)).astype(bool)
    probe = copy.copy(ex._classifier(ex.RunConfig(mode="physical"), "z"))
    probe.key_tables = ss.byte_tables(ss.pack_words(key.T))
    product = (key.astype(np.int64) @ bits.astype(np.int64)) % 2
    want = [sum(int(b) << r for r, b in enumerate(col)) for col in product.T.tolist()]
    assert _key_words(probe, ss.pack_words(bits.T)) == want


@pytest.mark.parametrize("basis", ["z", "x"])
@pytest.mark.parametrize("mode", ex.MODES)
def test_noiseless_key_words_change_no_verdict(mode, basis):
    # the key word of a noiseless record is accepted, has no syndrome and
    # raw bits in the target coset, so XORing one into shots keeps every
    # verdict: the classifier may read flips instead of absolute records
    cfg = ex.RunConfig(mode=mode, noise=ss.NoiseModel(1e-3, 5e-3, 5e-3), l=4)
    circ, recipe = ex.build_pipeline(cfg, basis)
    classifier = ex._Classifier(cfg, basis, circ, recipe)
    tags = circ.tags
    noiseless = ss.pack_words(np.array([[ss.simulate_tableau(circ, seed)[t] for t in tags]
                                        for seed in range(16)], dtype=bool))
    low = classifier.n_accept + classifier.n_syndrome
    for word in _key_words(classifier, noiseless):
        assert word & ((1 << low) - 1) == 0 and word >> low in classifier.targets
    assert classifier.classify(noiseless) == [False] * 16
    records = ss.sample_words(circ, cfg.noise, 8, 1200)
    verdicts = classifier.classify(records)
    assert len(set(verdicts)) > 1
    for n in noiseless[:4]:
        assert classifier.classify(records ^ n) == verdicts


@pytest.mark.parametrize("basis", ["z", "x"])
@pytest.mark.parametrize("mode, l", [("physical", 3), ("logical", 3), ("generalized", 4)])
def test_noiseless_samples_pass_the_per_shot_oracle(mode, l, basis):
    # a verdict reads only the fault flips, so no summary sees a wrong
    # noiseless record: judge each zero-noise shot, over a whole block and a
    # partial second one, with the per-shot oracle instead
    from f2qec import protocol as pr

    circ, recipe = ex.build_pipeline(ex.RunConfig(mode=mode, l=l), basis)
    shots = ss.sample_pauli_frame(circ, ss.NoiseModel(), 6, ss.SHOT_BLOCK + 64)
    raws = set()
    for rec in shots:
        if recipe is None:
            bits = [rec[f"d{q}"] for q in range(4)]
            syndrome, raw = 0, tuple(bits) if basis == "z" else (sum(bits) & 1,)
        else:
            frame = pr.frame_from_shot(recipe, rec)
            assert frame.accepted
            syndrome, raw = pr.readout_reduce(recipe.code, basis,
                                              [rec[t] for t in recipe.data_tags], frame)
        assert syndrome == 0
        raws.add(raw)
    width = len(next(iter(raws)))
    assert raws == ({(0,) * width, (1,) * width} if basis == "z" else {(0,)})


@pytest.mark.parametrize("basis", ["z", "x"])
def test_ledger_verdicts_on_flips_equal_those_on_absolute_records(basis):
    cfg = ex.RunConfig(mode="logical", noise=ss.NoiseModel(3e-5, 2e-3, 2e-3))
    circ, recipe = ex.build_pipeline(cfg, basis)
    classifier = ex._Classifier(cfg, basis, circ, recipe)
    ref = ss.reference_record(circ, 0)
    assert any(ref.values())
    absolute = np.array([[case.record[t] for t in circ.tags]
                         for case in ss.enumerate_single_faults(circ)], dtype=bool)
    flips = absolute ^ np.array([ref[t] for t in circ.tags], dtype=bool)
    assert (ss.pack_words(flips) == circ.fault_record_words).all()
    assert classifier.classify(ss.pack_words(absolute)) == classifier.classify(
        circ.fault_record_words)


def test_fault_analysis_runs_no_tableau(monkeypatch):
    # the ledger and validate_schedule read the frame kernel's words and
    # the case list, which no tableau run builds
    from f2qec import protocol as pr
    from f2qec.code_factory import build_25_4_3

    code = build_25_4_3()
    schedules = (pr.zigzag_schedule(code), pr.row_major_schedule(code))

    def analyses():
        return ([ex.fault_tolerance_ledger(basis) for basis in ("z", "x")],
                [pr.validate_schedule(code, schedule) for schedule in schedules])

    want = analyses()

    def no_tableau(circuit, seed):
        raise AssertionError("the tableau engine ran")

    monkeypatch.setattr(ss, "simulate_tableau", no_tableau)
    assert analyses() == want
