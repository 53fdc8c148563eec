import json
from pathlib import Path

import pytest

from f2qec import experiment as ex
from f2qec import protocol as pr
from f2qec.cli import main
from f2qec.css_code import CssCode


def test_build_and_distance(tmp_path, capsys):
    code_path = str(tmp_path / "code.json")
    assert main(["build-code", "--family", "paper2543", "--out", code_path]) == 0
    capsys.readouterr()
    assert main(["distance", code_path, "--wmax", "3"]) == 0
    assert capsys.readouterr().out.strip() == "(3, 3)"


def test_build_generalized_family(tmp_path, capsys):
    code_path = str(tmp_path / "gen.json")
    assert main(["build-code", "--family", "generalized", "--l", "4", "--c", "1",
                 "--out", code_path]) == 0
    obj = json.loads(Path(code_path).read_text())
    assert obj["n"] == 15 and obj["k"] == 6
    capsys.readouterr()
    assert main(["distance", code_path, "--wmax", "2"]) == 0
    assert capsys.readouterr().out.strip() == "(2, 2)"


def test_logical_action_cycles(tmp_path, capsys):
    code_path = str(tmp_path / "code.json")
    main(["build-code", "--family", "paper2543", "--out", code_path])
    capsys.readouterr()
    perm = "(0 4)(1 3)(5 9)(6 8)(10 14)(11 13)(15 19)(16 18)(20 24)(21 23)"
    assert main(["logical-action", code_path, "--perm", perm]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["x_action"] == ["1100", "0100", "0011", "0001"]
    assert out["cnots"] == [[0, 1], [2, 3]]


def test_logical_action_rejects_bad_cycles(tmp_path, capsys):
    code_path = str(tmp_path / "code.json")
    main(["build-code", "--family", "paper2543", "--out", code_path])
    capsys.readouterr()
    for perm in ("(0 99)", "(0 1)(1 2)", "(0 a)", "(0 1"):
        assert main(["logical-action", code_path, "--perm", perm]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "error" in json.loads(err[0])


def test_validate_schedule_default_and_exit_codes(tmp_path, capsys):
    code_path = str(tmp_path / "code.json")
    main(["build-code", "--family", "paper2543", "--out", code_path])
    capsys.readouterr()
    assert main(["validate-schedule", code_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    # a deliberately bad schedule is flagged through exit code 2
    from f2qec.code_factory import build_25_4_3
    from f2qec.protocol import row_major_schedule

    sched = row_major_schedule(build_25_4_3())
    sched_path = tmp_path / "sched.json"
    sched_path.write_text(json.dumps({
        "x": [list(o) for o in sched.x_orders],
        "z": [list(o) for o in sched.z_orders]}))
    assert main(["validate-schedule", code_path, "--schedule", str(sched_path)]) == 2


def test_validate_schedule_on_a_large_generalized_code(tmp_path, capsys):
    # l = 9 has 17 independent X checks
    code_path = str(tmp_path / "gen9.json")
    assert main(["build-code", "--family", "generalized", "--l", "9", "--out", code_path]) == 0
    capsys.readouterr()
    assert main(["validate-schedule", code_path]) == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True, "violations": []}


def test_emit_circuit_round_trip(tmp_path, capsys):
    out = str(tmp_path / "circ.txt")
    assert main(["emit-circuit", "--mode", "logical", "--basis", "x", "--out", out]) == 0
    from f2qec.stab_sim import Circuit

    text = Path(out).read_text()
    assert Circuit.from_text(text).to_text() == text
    assert capsys.readouterr().out == (
        f"wrote logical/x circuit to {out}: 25 data, 6 ancilla, 47 two-qubit gates\n")


def test_run_ghz_and_report(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = physical\nshots_z = 50\nshots_x = 50\n"
                   "p1 = 0\np2 = 0\np_spam = 0\nseed = 3\n")
    out_dir = str(tmp_path / "out")
    assert main(["run-ghz", "--config", str(cfg), "--out", out_dir]) == 0
    capsys.readouterr()
    assert main(["report", out_dir, "--format", "csv"]) == 0
    csv = capsys.readouterr().out
    assert "physical,z,50,50,0" in csv


def test_run_ghz_reports_an_archive_path_that_is_a_directory(tmp_path, capsys):
    # the run cannot remove a directory where shots.jsonl goes: exit status
    # 1, one JSON line on stderr, and no summary.json
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = physical\nshots_z = 5\nshots_x = 5\nseed = 3\n")
    mode_dir = tmp_path / "out" / "physical"
    (mode_dir / "shots.jsonl").mkdir(parents=True)
    assert main(["run-ghz", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "shots.jsonl" in _one_line_error(capsys)
    assert not (mode_dir / "summary.json").exists()


def test_run_ghz_flags_override_the_config(tmp_path, capsys):
    # --mode, --basis-shots and --seed replace the config's values: the run
    # writes what a config stating those values writes, byte for byte
    rates = "p1 = 3e-5\np2 = 2e-3\np_spam = 2e-3\n"
    base, stated = tmp_path / "base.cfg", tmp_path / "stated.cfg"
    base.write_text("mode = logical\nshots_z = 30\nshots_x = 40\nseed = 1\n" + rates)
    stated.write_text("mode = logical-noqec\nshots_z = 120\nshots_x = 80\nseed = 9\n" + rates)
    assert main(["run-ghz", "--config", str(base), "--mode", "logical-noqec",
                 "--basis-shots", "120,80", "--seed", "9", "--out", str(tmp_path / "a")]) == 0
    assert main(["run-ghz", "--config", str(stated), "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for name in ("summary.json", "shots.jsonl"):
        got, want = (tmp_path / d / "logical-noqec" / name for d in "ab")
        assert got.read_bytes() == want.read_bytes()
    assert json.loads((tmp_path / "a" / "logical-noqec" / "summary.json").read_text())[
        "config"]["seed"] == 9


def test_run_ghz_missing_config(capsys):
    assert main(["run-ghz", "--config", "does_not_exist.cfg"]) == 1
    err = capsys.readouterr().err
    assert "does_not_exist.cfg" in err


def test_run_ghz_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("mode = physical\nshot_z = 10\n")
    assert main(["run-ghz", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "shot_z" in json.loads(err[0])["error"]
    # threads is no config key: a run has one serial path
    cfg.write_text("mode = physical\nthreads = 1\n")
    assert main(["run-ghz", "--config", str(cfg)]) == 1
    assert _one_line_error(capsys) == "unknown config key 'threads'"


def test_run_ghz_reports_an_unallocatable_shot_count(tmp_path, capsys, monkeypatch):
    # numpy raises a MemoryError for a shot array past the machine's memory;
    # the stub raises one without allocating anything
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("mode = physical\nshots_z = 3000000000000\n")
    for exc, words in ((MemoryError("Unable to allocate 68.2 TiB for an array"), "68.2 TiB"),
                       (MemoryError(), "MemoryError")):
        def raise_it(*args, **kwargs):
            raise exc
        monkeypatch.setattr(ex, "run", raise_it)
        assert main(["run-ghz", "--config", str(cfg)]) == 1
        assert words in _one_line_error(capsys)


@pytest.mark.parametrize("line", ["bp_iters = -3", "osd_depth = -1"])
def test_run_ghz_rejects_negative_decoder_settings(tmp_path, capsys, line):
    cfg = tmp_path / "neg.cfg"
    cfg.write_text(f"mode = logical\nshots_z = 5\nshots_x = 5\n{line}\n")
    assert main(["run-ghz", "--config", str(cfg)]) == 1
    assert line.split()[0] in _one_line_error(capsys)


@pytest.mark.parametrize("seed", ["-1", "281474976710656"])
def test_run_ghz_rejects_a_config_seed_outside_48_bits(tmp_path, capsys, seed):
    # seeds that agree in their low 48 bits would write the same shots
    cfg = tmp_path / "seed.cfg"
    cfg.write_text(f"mode = physical\nshots_z = 5\nshots_x = 5\nseed = {seed}\n")
    assert main(["run-ghz", "--config", str(cfg)]) == 1
    assert "seed must be in [0, 2**48)" in _one_line_error(capsys)


def test_decode_stream(tmp_path, capsys):
    code_path = str(tmp_path / "code.json")
    main(["build-code", "--family", "paper2543", "--out", code_path])
    from f2qec.code_factory import build_25_4_3
    from f2qec.f2linalg import vector_to_bits

    code = build_25_4_3()
    syn = code.hz.mul_vec(1 << 6)
    stream = tmp_path / "syn.jsonl"
    stream.write_text(json.dumps({"syndrome": vector_to_bits(syn, 11)}) + "\n")
    out = tmp_path / "dec.jsonl"
    assert main(["decode", "--code", code_path, "--basis", "z",
                 "--syndromes", str(stream), "--out", str(out)]) == 0
    row = json.loads(out.read_text().splitlines()[0])
    assert row["converged"] is True
    assert row["estimate"][6] == 1 and sum(row["estimate"]) == 1
    assert len(row["logical_mask"]) == 4


@pytest.mark.parametrize("basis", ["z", "x"])
# weight-1..2 rows do not depend on a uniform prior below 0.5 or on
# iterations past the first, so each flag is set where it moves some row:
# a zero LLR ties every candidate, and zero iterations rank by index
@pytest.mark.parametrize("prior, iters, depth", [(0.5, 4, 2), (0.03, 0, 5)])
def test_decode_rows_equal_bp_osd_at_non_default_settings(tmp_path, capsys, basis,
                                                          prior, iters, depth):
    # one decoder serves the whole stream; each row must be what a fresh
    # bp_osd call gives for its syndrome
    from itertools import combinations

    from f2qec.code_factory import build_25_4_3
    from f2qec.decoder import DecodeProblem, bp_osd, logical_correction
    from f2qec.f2linalg import vector_to_bits

    code_path = str(tmp_path / "code.json")
    main(["build-code", "--family", "paper2543", "--out", code_path])
    code = build_25_4_3()
    h = code.hz if basis == "z" else code.hx
    syndromes = {}
    for w in (1, 2):
        for support in combinations(range(h.cols), w):
            syndromes.setdefault(h.mul_vec(sum(1 << q for q in support)), None)
    syndromes.pop(0, None)
    stream = tmp_path / "syn.jsonl"
    stream.write_text("".join(json.dumps({"syndrome": vector_to_bits(s, h.rows)}) + "\n"
                              for s in syndromes))
    out = tmp_path / "dec.jsonl"
    assert main(["decode", "--code", code_path, "--basis", basis, "--syndromes", str(stream),
                 "--out", str(out), "--prior", str(prior), "--bp-iters", str(iters),
                 "--osd-depth", str(depth)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == len(syndromes) > 50
    for s, row in zip(syndromes, rows):
        want = bp_osd(DecodeProblem(h, (prior,) * h.cols, s), iters=iters, depth=depth)
        assert row == {
            "syndrome": vector_to_bits(s, h.rows),
            "estimate": vector_to_bits(want.error_estimate, h.cols),
            "logical_mask": vector_to_bits(logical_correction(code, want.error_estimate, basis),
                                           code.k),
            "converged": want.converged,
            "method": want.method,
        }


def test_decode_prior_acts_only_through_the_llr_clip(tmp_path, capsys):
    # three weight-3 flagship Z syndromes (0-based positions 803, 975 and
    # 1084 of the weight-3 supports in combinations order) on which a prior
    # of 1e-7 and the default 0.01 give the same rows at 10 BP iterations,
    # but different estimates and logical masks at 1000, where the messages
    # reach the LLR clip
    from itertools import combinations

    from f2qec.code_factory import build_25_4_3
    from f2qec.f2linalg import vector_to_bits

    code_path = str(tmp_path / "code.json")
    main(["build-code", "--family", "paper2543", "--out", code_path])
    hz = build_25_4_3().hz
    supports = list(combinations(range(25), 3))
    stream = tmp_path / "syn.jsonl"
    stream.write_text("".join(json.dumps({"syndrome": vector_to_bits(
        hz.mul_vec(sum(1 << q for q in supports[i])), hz.rows)}) + "\n" for i in (803, 975, 1084)))

    def rows(prior, iters):
        out = tmp_path / "dec.jsonl"
        assert main(["decode", "--code", code_path, "--basis", "z", "--syndromes", str(stream),
                     "--out", str(out), "--prior", prior, "--bp-iters", iters]) == 0
        return [json.loads(line) for line in out.read_text().splitlines()]

    assert rows("1e-7", "10") == rows("0.01", "10")
    for a, b in zip(rows("1e-7", "1000"), rows("0.01", "1000")):
        assert a["estimate"] != b["estimate"] and a["logical_mask"] != b["logical_mask"]


@pytest.mark.parametrize("count", [0, 2])
def test_decode_writes_one_line_per_syndrome(tmp_path, capsys, count):
    # an empty stream decodes to an empty file, not to a lone newline
    code_path = str(tmp_path / "code.json")
    main(["build-code", "--family", "paper2543", "--out", code_path])
    stream = tmp_path / "syn.jsonl"
    stream.write_text("\n" + (json.dumps({"syndrome": [0] * 11}) + "\n") * count)
    out = tmp_path / "dec.jsonl"
    assert main(["decode", "--code", code_path, "--basis", "z",
                 "--syndromes", str(stream), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("\n") == count and text.endswith("\n" if count else "")
    assert [json.loads(line)["syndrome"] for line in text.splitlines()] == [[0] * 11] * count
    assert f"decoded {count} syndromes" in capsys.readouterr().out


def test_identical_invocations_identical_outputs(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = logical\nshots_z = 30\nshots_x = 30\n"
                   "p1 = 3e-5\np2 = 2e-3\np_spam = 2e-3\nseed = 8\n")
    outs = []
    for d in ("a", "b"):
        out_dir = tmp_path / d
        assert main(["run-ghz", "--config", str(cfg), "--out", str(out_dir)]) == 0
        outs.append((out_dir / "logical" / "summary.json").read_text())
    capsys.readouterr()
    assert outs[0] == outs[1]


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return json.loads(err[0])["error"]


def test_validate_schedule_rejects_malformed_schedule(tmp_path, capsys):
    code_path = str(tmp_path / "code.json")
    main(["build-code", "--family", "paper2543", "--out", code_path])
    capsys.readouterr()
    sched_path = tmp_path / "sched.json"
    sched_path.write_text(json.dumps({"x": [1, 2], "z": []}))
    assert main(["validate-schedule", code_path, "--schedule", str(sched_path)]) == 1
    assert "schedule" in _one_line_error(capsys)


@pytest.mark.parametrize("lines", [0, 1])
@pytest.mark.parametrize("prior", ["7", "0", "-1", "nan"])
def test_decode_rejects_a_bad_prior_before_reading_the_stream(tmp_path, capsys, prior, lines):
    code_path = str(tmp_path / "code.json")
    main(["build-code", "--family", "paper2543", "--out", code_path])
    capsys.readouterr()
    stream = tmp_path / "syn.jsonl"
    stream.write_text((json.dumps({"syndrome": [0] * 11}) + "\n") * lines)
    out = tmp_path / "dec.jsonl"
    assert main(["decode", "--code", code_path, "--basis", "z", "--syndromes", str(stream),
                 "--out", str(out), "--prior", prior]) == 1
    assert "prior" in _one_line_error(capsys)
    assert not out.exists()


def test_decode_rejects_malformed_syndrome_rows(tmp_path, capsys):
    code_path = str(tmp_path / "code.json")
    main(["build-code", "--family", "paper2543", "--out", code_path])
    capsys.readouterr()
    good = json.dumps({"syndrome": [0] * 11})
    # each bad row follows two good ones; JSON booleans are not bits, and a
    # key besides "syndrome" is not ignored, whether a per-line prior or a typo
    for row in ({"syndrome": 5}, [1, 2], {"syndrome": [0] * 10}, {"syndrome": [2] * 11},
                {"syndrome": [True] + [False] * 10}, "{syndrome: [0]}",
                {"syndrome": [0] * 11, "prior": 0.2}, {"syndrome": [0] * 11, "sydrome": [1] * 11},
                {"syndromes": [0] * 11}, {}):
        stream = tmp_path / "syn.jsonl"
        text = row if isinstance(row, str) else json.dumps(row)
        stream.write_text(f"{good}\n{good}\n{text}\n")
        assert main(["decode", "--code", code_path, "--basis", "z",
                     "--syndromes", str(stream), "--out", str(tmp_path / "dec.jsonl")]) == 1
        error = _one_line_error(capsys)
        assert "syndrome" in error and f"{stream} line 3" in error


def _twice(text: str, key: str, value) -> str:
    """The text of a JSON object with key given once more, first: plain json keeps the
    last of repeated keys, here the object's own value."""
    return text.replace("{", "{" + json.dumps(key) + ": " + json.dumps(value) + ", ", 1)


@pytest.mark.parametrize("kind", ["code", "schedule", "summary", "decode"])
def test_repeated_json_keys_are_errors(tmp_path, capsys, kind):
    # each input reads with exit status 0 as written, and fails naming the
    # file (and a decode line) once a key is repeated before its own value
    code_path = tmp_path / "code.json"
    main(["build-code", "--family", "paper2543", "--out", str(code_path)])
    capsys.readouterr()
    text = code_path.read_text()
    if kind == "code":
        key, value, path = "n", 99, tmp_path / "copy.json"
        argv = ["distance", str(path), "--wmax", "2"]
    elif kind == "schedule":
        schedule = pr.zigzag_schedule(CssCode.from_json(json.loads(text)))
        text = json.dumps({"x": schedule.x_orders, "z": schedule.z_orders})
        key, value, path = "x", [[0]], tmp_path / "schedule.json"
        argv = ["validate-schedule", str(code_path), "--schedule", str(path)]
    elif kind == "summary":
        summary = ex.RunSummary(ex.RunConfig(), ex.BasisStats(50, 40, 3), ex.BasisStats(50, 40, 3))
        text = json.dumps(summary.to_json())
        key, value, path = "config_hash", "0" * 16, tmp_path / "logical" / "summary.json"
        path.parent.mkdir()
        argv = ["report", str(tmp_path)]
    else:
        text = json.dumps({"syndrome": [0] * 11})
        key, value, path = "syndrome", [1] * 11, tmp_path / "syn.jsonl"
        argv = ["decode", "--code", str(code_path), "--basis", "z", "--syndromes", str(path),
                "--out", str(tmp_path / "dec.jsonl")]
    path.write_text(text)
    assert main(argv) == 0
    capsys.readouterr()
    path.write_text(_twice(text, key, value))
    assert main(argv) == 1
    error = _one_line_error(capsys)
    assert f"repeated key {json.dumps(key)}" in error
    assert f"{path} line 1" in error if kind == "decode" else str(path) in error


@pytest.mark.parametrize("kind, where, old, key, words", [
    ("code", (), "d", "dist", "unknown code key 'dist'"),
    ("code", ("hx",), None, "colz", "hx: unknown matrix key 'colz'"),
    ("code", ("logicals",), None, "y", "unknown logicals key 'y'"),
    ("schedule", (), None, "zz", "unknown schedule key 'zz'"),
    ("summary", (), "fidelity", "fidelty", "unknown summary key 'fidelty'"),
    ("summary", ("z",), "accepted", "acepted", "unknown summary z key 'acepted'"),
], ids=["code-d-misspelt", "matrix-extra", "logicals-extra", "schedule-extra",
        "summary-fidelity-misspelt", "summary-accepted-misspelt"])
def test_unknown_json_keys_are_errors(tmp_path, capsys, kind, where, old, key, words):
    # each input reads with exit status 0 as the program writes it: a built
    # code, a dumped zigzag schedule and a run's own summary.json; with a key
    # misspelt or one more key, it fails naming the file and the key
    code_path = tmp_path / "code.json"
    main(["build-code", "--family", "paper2543", "--out", str(code_path)])
    if kind == "code":
        path, argv = code_path, ["distance", str(code_path), "--wmax", "2"]
    elif kind == "schedule":
        schedule = pr.zigzag_schedule(CssCode.from_json(json.loads(code_path.read_text())))
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps({"x": schedule.x_orders, "z": schedule.z_orders}))
        argv = ["validate-schedule", str(code_path), "--schedule", str(path)]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = logical\nshots_z = 20\nshots_x = 20\nseed = 3\n")
        assert main(["run-ghz", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        path = tmp_path / "out" / "logical" / "summary.json"
        argv = ["report", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(argv) == 0
    capsys.readouterr()
    obj = json.loads(path.read_text())
    target = obj
    for part in where:
        target = target[part]
    target[key] = target.pop(old) if old else 0
    path.write_text(json.dumps(obj))
    assert main(argv) == 1
    error = _one_line_error(capsys)
    assert words in error and str(path) in error


def test_distance_rejects_malformed_code_file(tmp_path, capsys):
    code_path = tmp_path / "code.json"
    code_path.write_text("[]")
    assert main(["distance", str(code_path), "--wmax", "2"]) == 1
    assert "malformed code file" in _one_line_error(capsys)


def _cut_hz(obj):
    obj["hz"]["data"] = [row[:24] for row in obj["hz"]["data"]]
    obj["hz"]["cols"] = 24


@pytest.mark.parametrize("spoil, words", [
    (lambda obj: obj.update(n=26), "n = 26"),                      # n disagrees with the checks
    (_cut_hz, "24 columns"),                                       # hz one column short
    (lambda obj: obj["logicals"]["x"][0].append(30), "outside"),  # logical beyond qubit 24
    (lambda obj: obj.update(d=True), "distance d"),               # a JSON bool is not an int
    (lambda obj: obj.update(d=2.5), "distance d"),
    (lambda obj: obj.update(d="three"), "distance d"),
    (lambda obj: obj.update(d=-3), "distance d"),
    (lambda obj: obj["coords"].__setitem__(0, []), "coords"),    # empty coordinate
    (lambda obj: obj["coords"].__setitem__(0, ["P", 1]), "coords"),  # pair, not triple
    (lambda obj: obj["coords"].pop(), "coords"),                  # one qubit uncovered
    (lambda obj: obj["hx"]["data"].__setitem__(0, obj["hx"]["data"][0].replace("1", "2")),
     "hx: matrix row 0"),                                         # a '2' is not a bit
    (lambda obj: obj["hz"]["data"].__setitem__(3, "\u0661" + obj["hz"]["data"][3][1:]),
     "hz: matrix row 3"),                                         # Arabic-Indic one
    (lambda obj: obj.update(k=99), "k = 99"),                     # k disagrees with the logicals
    (lambda obj: obj.update(k=True), "k = true"),
    (lambda obj: obj["logicals"]["x"].__setitem__(0, [True, 7, 12]), "[true, 7, 12]"),  # bool qubit
    (lambda obj: obj["logicals"]["z"][0].append(obj["logicals"]["z"][0][0]),
     "logicals.z"),                                               # repeated qubit
    (lambda obj: obj["logicals"]["x"][0].append(-1), "logicals.x"),
    (lambda obj: obj["logicals"]["z"].__setitem__(1, "0 1"), "logicals.z"),  # not a list
    # well formed, but not a CSS code: css_code.validate's first failure
    (lambda obj: obj["hx"]["data"].__setitem__(0, "1" + "0" * 24),
     "hx row 0 anticommutes with hz row 0"),
], ids=["n", "hz-width", "logical-range", "d-bool", "d-float", "d-text", "d-negative",
        "coord-empty", "coord-pair", "coords-short", "hx-digit-2", "hz-non-ascii",
        "k-mismatch", "k-bool", "logical-bool", "logical-repeat", "logical-negative",
        "logical-text", "hx-anticommutes"])
def test_distance_rejects_code_file_out_of_shape(tmp_path, capsys, spoil, words):
    code_path = tmp_path / "code.json"
    main(["build-code", "--family", "paper2543", "--out", str(code_path)])
    capsys.readouterr()
    obj = json.loads(code_path.read_text())
    spoil(obj)
    code_path.write_text(json.dumps(obj))
    assert main(["distance", str(code_path), "--wmax", "2"]) == 1
    assert words in _one_line_error(capsys)
    assert main(["validate-schedule", str(code_path)]) == 1
    assert words in _one_line_error(capsys)


@pytest.mark.parametrize("coords", [[], [["S", 1, 1]] * 25], ids=["none", "secondary"])
def test_validate_schedule_needs_primary_coordinates(tmp_path, capsys, coords):
    # the default zigzag schedule is built from the lattice coordinates
    code_path = tmp_path / "code.json"
    main(["build-code", "--family", "paper2543", "--out", str(code_path)])
    capsys.readouterr()
    obj = json.loads(code_path.read_text())
    obj["coords"] = coords
    code_path.write_text(json.dumps(obj))
    assert main(["validate-schedule", str(code_path)]) == 1
    assert "primary lattice coordinates" in _one_line_error(capsys)


@pytest.mark.parametrize("part, counts, words", [
    ("z", None, "malformed summary file"),                           # not an object
    ("z", {"accepted": "5"}, "z.accepted must be an integer"),
    ("z", {"mismatches": True}, "z.mismatches must be an integer"),  # a JSON bool is not an int
    ("z", {"shots": 2.0}, "z.shots must be an integer"),
    ("z", {"accepted": 500}, "accepted <= shots"),
    ("z", {"mismatches": 41}, "mismatches <= accepted"),
    ("z", {"mismatches": -1}, "0 <= mismatches"),
    ("config", {"shots_z": 10.9}, "config key 'shots_z'"),           # int() would truncate it
    ("config", {"seed": -1}, "seed must be in [0, 2**48)"),
    ("config", {"seed": 2 ** 48}, "seed must be in [0, 2**48)"),
    (None, {"config_hash": "0123456789abcdef"}, "config_hash '0123456789abcdef' is not"),
    # a summary written while runs took a thread count
    ("config", {"threads": 1}, "unknown config key 'threads'"),
    # the unmodified fixture: a logical run's summary filed under physical/
    (None, {}, "mode 'logical' under physical/"),
], ids=["not-an-object", "accepted-text", "mismatches-bool", "shots-float", "accepted-over-shots",
        "mismatches-over-accepted", "mismatches-negative", "config-shots-float",
        "config-seed-negative", "config-seed-too-wide", "config-hash-wrong", "config-threads",
        "another-mode"])
def test_report_rejects_malformed_summary(tmp_path, capsys, part, counts, words):
    obj = ex.RunSummary(ex.RunConfig(), ex.BasisStats(50, 40, 3), ex.BasisStats(50, 40, 3)).to_json()
    if counts is not None:
        (obj if part is None else obj[part]).update(counts)
    (tmp_path / "physical").mkdir()
    (tmp_path / "physical" / "summary.json").write_text("[]" if counts is None else json.dumps(obj))
    assert main(["report", str(tmp_path)]) == 1
    error = _one_line_error(capsys)
    assert words in error and "summary.json" in error


def test_build_code_out_directory_is_a_json_error(tmp_path, capsys):
    assert main(["build-code", "--family", "paper2543", "--out", str(tmp_path)]) == 1
    assert str(tmp_path) in _one_line_error(capsys)


def test_usage_errors_are_json(tmp_path, capsys):
    code_path = str(tmp_path / "code.json")
    main(["build-code", "--family", "paper2543", "--out", code_path])
    capsys.readouterr()
    for argv, words in (
        (["distance", code_path, "--wmax", "abc"], "--wmax"),   # mistyped value
        (["distance", code_path], "--wmax"),                    # missing flag
        (["distance", code_path, "--wmax", "2", "--bogus"], "--bogus"),
        (["bogus"], "bogus"),                                   # unknown subcommand
        ([], "command"),
        (["run-ghz", "--config", "x.cfg", "--seed", "1.5"], "--seed"),
        (["report", str(tmp_path), "--format", "yaml"], "--format"),
    ):
        assert main(argv) == 1, argv
        assert words in _one_line_error(capsys), argv


def test_help_still_exits_zero(capsys):
    for argv in (["--help"], ["distance", "--help"]):
        try:
            main(argv)
        except SystemExit as exc:
            assert exc.code == 0
        else:
            raise AssertionError(f"{argv} did not exit")
        assert "usage: f2qec" in capsys.readouterr().out


@pytest.mark.parametrize("argv, flag", [
    (["distance", "CODE", "--wmax", "-1"], "--wmax"),
    (["build-code", "--family", "generalized", "--l", "-1", "--out", "x.json"], "--l"),
    (["emit-circuit", "--mode", "generalized", "--basis", "z", "--c", "-2",
      "--out", "x.txt"], "--c"),
    (["decode", "--code", "CODE", "--basis", "z", "--syndromes", "s.jsonl",
      "--out", "d.jsonl", "--bp-iters", "-1"], "--bp-iters"),
    (["decode", "--code", "CODE", "--basis", "z", "--syndromes", "s.jsonl",
      "--out", "d.jsonl", "--osd-depth", "-3"], "--osd-depth"),
    # run-ghz has no --threads: any value of it is a usage error naming it
    (["run-ghz", "--config", "x.cfg", "--threads", "2"], "--threads"),
    (["run-ghz", "--config", "x.cfg", "--threads", "-4"], "--threads"),
    (["run-ghz", "--config", "x.cfg", "--basis-shots", "10,-1"], "--basis-shots"),
    (["run-ghz", "--config", "x.cfg", "--basis-shots", "10"], "--basis-shots"),
    # numbers that int() and float() take but that are not plain ASCII
    (["distance", "CODE", "--wmax", "٣"], "--wmax"),
    (["build-code", "--family", "generalized", "--l", "4_0", "--out", "x.json"], "--l"),
    (["emit-circuit", "--mode", "generalized", "--basis", "z", "--c", "١",
      "--out", "x.txt"], "--c"),
    (["decode", "--code", "CODE", "--basis", "z", "--syndromes", "s.jsonl",
      "--out", "d.jsonl", "--bp-iters", "1_0"], "--bp-iters"),
    (["decode", "--code", "CODE", "--basis", "z", "--syndromes", "s.jsonl",
      "--out", "d.jsonl", "--osd-depth", "١٤"], "--osd-depth"),
    (["decode", "--code", "CODE", "--basis", "z", "--syndromes", "s.jsonl",
      "--out", "d.jsonl", "--prior", "0.0_1"], "--prior"),
    (["decode", "--code", "CODE", "--basis", "z", "--syndromes", "s.jsonl",
      "--out", "d.jsonl", "--prior", "٠.٠١"], "--prior"),
    (["run-ghz", "--config", "x.cfg", "--seed", "٣"], "--seed"),
    (["run-ghz", "--config", "x.cfg", "--seed", "1_0"], "--seed"),
    (["run-ghz", "--config", "x.cfg", "--threads", "١"], "--threads"),
    (["run-ghz", "--config", "x.cfg", "--basis-shots", "٥,1_0"], "--basis-shots"),
    # seeds outside [0, 2**48) would alias ones inside
    (["run-ghz", "--config", "x.cfg", "--seed", "-1"], "--seed"),
    (["run-ghz", "--config", "x.cfg", "--seed", "281474976710656"], "--seed"),
])
def test_negative_counts_are_rejected(tmp_path, capsys, argv, flag):
    code_path = str(tmp_path / "code.json")
    main(["build-code", "--family", "paper2543", "--out", code_path])
    capsys.readouterr()
    argv = [code_path if a == "CODE" else a for a in argv]
    assert main(argv) == 1
    assert flag in _one_line_error(capsys)
