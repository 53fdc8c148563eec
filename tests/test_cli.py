import json
from pathlib import Path

import pytest

from f2qec import experiment as ex
from f2qec.cli import main


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

    circ = Circuit.from_text(Path(out).read_text())
    assert circ.two_qubit_gate_count() == 47


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


@pytest.mark.parametrize("line", ["bp_iters = -3", "osd_depth = -1"])
def test_run_ghz_rejects_negative_decoder_settings(tmp_path, capsys, line):
    cfg = tmp_path / "neg.cfg"
    cfg.write_text(f"mode = logical\nshots_z = 5\nshots_x = 5\n{line}\n")
    assert main(["run-ghz", "--config", str(cfg)]) == 1
    assert line.split()[0] in _one_line_error(capsys)


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


def test_bad_threads_env_is_ignored_by_other_subcommands(tmp_path, capsys, monkeypatch):
    for value in ("abc", "0", "-2"):
        monkeypatch.setenv("F2QEC_THREADS", value)
        # subcommands other than run-ghz never read the variable
        assert main(["report", str(tmp_path)]) == 1
        assert "no summaries" in _one_line_error(capsys)


def test_run_ghz_rejects_bad_threads_env(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = physical\nshots_z = 5\nshots_x = 5\n")
    for value in ("abc", "0", "-2", "1.5", "١"):
        monkeypatch.setenv("F2QEC_THREADS", value)
        assert main(["run-ghz", "--config", str(cfg)]) == 1
        assert "F2QEC_THREADS" in _one_line_error(capsys)
    # an explicit --threads wins and the variable is not read
    assert main(["run-ghz", "--config", str(cfg), "--threads", "1"]) == 0


def test_validate_schedule_rejects_malformed_schedule(tmp_path, capsys):
    code_path = str(tmp_path / "code.json")
    main(["build-code", "--family", "paper2543", "--out", code_path])
    capsys.readouterr()
    sched_path = tmp_path / "sched.json"
    sched_path.write_text(json.dumps({"x": [1, 2], "z": []}))
    assert main(["validate-schedule", code_path, "--schedule", str(sched_path)]) == 1
    assert "schedule" in _one_line_error(capsys)


def test_decode_rejects_malformed_syndrome_rows(tmp_path, capsys):
    code_path = str(tmp_path / "code.json")
    main(["build-code", "--family", "paper2543", "--out", code_path])
    capsys.readouterr()
    good = json.dumps({"syndrome": [0] * 11})
    # each bad row follows two good ones; JSON booleans are not bits
    for row in ({"syndrome": 5}, [1, 2], {"syndrome": [0] * 10}, {"syndrome": [2] * 11},
                {"syndrome": [True] + [False] * 10}, "{syndrome: [0]}"):
        stream = tmp_path / "syn.jsonl"
        text = row if isinstance(row, str) else json.dumps(row)
        stream.write_text(f"{good}\n{good}\n{text}\n")
        assert main(["decode", "--code", code_path, "--basis", "z",
                     "--syndromes", str(stream), "--out", str(tmp_path / "dec.jsonl")]) == 1
        error = _one_line_error(capsys)
        assert "syndrome" in error and f"{stream} line 3" in error


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
], ids=["n", "hz-width", "logical-range", "d-bool", "d-float", "d-text", "d-negative",
        "coord-empty", "coord-pair", "coords-short", "hx-digit-2", "hz-non-ascii",
        "k-mismatch", "k-bool", "logical-bool", "logical-repeat", "logical-negative",
        "logical-text"])
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


@pytest.mark.parametrize("counts, words", [
    (None, "malformed summary file"),                           # not an object
    ({"accepted": "5"}, "z.accepted must be an integer"),
    ({"mismatches": True}, "z.mismatches must be an integer"),  # a JSON bool is not an int
    ({"shots": 2.0}, "z.shots must be an integer"),
    ({"accepted": 500}, "accepted <= shots"),
    ({"mismatches": 41}, "mismatches <= accepted"),
    ({"mismatches": -1}, "0 <= mismatches"),
], ids=["not-an-object", "accepted-text", "mismatches-bool", "shots-float", "accepted-over-shots",
        "mismatches-over-accepted", "mismatches-negative"])
def test_report_rejects_malformed_summary(tmp_path, capsys, counts, words):
    obj = ex.RunSummary(ex.RunConfig(), ex.BasisStats(50, 40, 3), ex.BasisStats(50, 40, 3)).to_json()
    if counts is not None:
        obj["z"].update(counts)
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
    (["run-ghz", "--config", "x.cfg", "--threads", "0"], "--threads"),
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
])
def test_negative_counts_are_rejected(tmp_path, capsys, argv, flag):
    code_path = str(tmp_path / "code.json")
    main(["build-code", "--family", "paper2543", "--out", code_path])
    capsys.readouterr()
    argv = [code_path if a == "CODE" else a for a in argv]
    assert main(argv) == 1
    assert flag in _one_line_error(capsys)
