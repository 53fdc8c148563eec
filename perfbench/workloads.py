"""The benchmark's workloads: input generation, timed loops and output checks.

Every workload runs in one process with ``threads=1``.  Inputs come only
from the workload seed.  Each workload has an untraced form, whose
timings are the end-to-end metrics, and a traced form, which repeats the
same requests with a span around every public call it makes into the
program and reports the per-layer metrics.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import recompose as rc
from f2qec import experiment as ex
from f2qec import protocol as pr
from f2qec.code_factory import build_25_4_3
from f2qec.css_code import distance, validate
from f2qec.decoder import DecodeProblem, MinSumDecoder, bp_osd, logical_correction
from gauge import Gauge
from spans import Tracer

# shots per basis in one ghz-logical request, about half a second of work
GHZ_SHOTS = 1000
# every fifth run repeats the request before it, to check it is reproducible
GHZ_REPEAT_EVERY = 5
MIN_GHZ_RUNS = 10
# z-basis shots of each mode in the untimed ordering check
ORDER_SHOTS = {"physical": 8000, "logical-noqec": 3000, "logical": 3000}
# acceptance-suite bands for the logical mode (tests/test_acceptance.py, criterion 8);
# the suite bands only the z mismatch rate, and the same band is held to x
MISMATCH_BAND = (0.001, 0.015)
ACCEPT_BAND = (0.96, 0.995)
BAND_SIGMAS = 4.0
MIN_PASSES = 4
# random errors drawn per run; their distinct syndromes (nearly all of the
# 1278 that weight-1..3 errors reach) form the stream, and so many draws keep
# the success fraction, which counts the errors, steady from seed to seed
DECODE_DRAWS = 80000
DECODE_ITERS, DECODE_DEPTH, DECODE_PRIOR = 10, 14, 0.01   # the `f2qec decode` defaults
MAX_PASSES = 256
LEDGER_TOTALS = {"z": {"correct": 697, "rejected": 102, "nonft-set": 0, "extra": 0},
                 "x": {"correct": 665, "rejected": 102, "nonft-set": 32, "extra": 0}}
LAYERS = ("bench", "code_factory", "protocol", "stab_sim", "decoder", "experiment",
          "css_code")


@dataclass
class Tally:
    """Operations attempted and failed; an operation fails on any bad check."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def guarded(self, name: str, fn):
        """Run fn() as one operation; fn returns its list of problems."""
        try:
            problems = fn()
        except Exception as exc:   # a crash is a failed operation, not a dead run
            traceback.print_exc(file=sys.stderr)
            problems = [f"raised {type(exc).__name__}: {exc}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{name}: {'; '.join(problems)}")


@dataclass
class Result:
    metrics: dict            # name -> value, the gated end-to-end metrics
    report: dict             # name -> (value, unit, note) for the human summary


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(samples) -> float:
    """Mean of unit times, 0 for none: a rate or a pass time is a mean."""
    return statistics.fmean(samples) if samples else 0.0


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def _in_band(rate: float, band, n: int) -> bool:
    lo, hi = band
    lo -= BAND_SIGMAS * math.sqrt(lo * (1 - lo) / n)
    hi += BAND_SIGMAS * math.sqrt(hi * (1 - hi) / n)
    return lo <= rate <= hi


def _keep_going(start: float, seconds: float, done: int, minimum: int,
                maximum: float = math.inf) -> bool:
    return done < maximum and (done < minimum or time.perf_counter() - start < seconds)


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


# --- GHZ Monte Carlo -------------------------------------------------------------


def _ghz_config(seed: int, shots: int, mode: str = "logical", shots_x: int | None = None):
    return ex.RunConfig(mode=mode, shots_z=shots, shots_x=shots if shots_x is None else shots_x,
                        noise=rc.PAPER, seed=seed)


def _check_ghz_request(cfg, summary, out_dir) -> list:
    problems = []
    for basis, st, want in (("z", summary.z, cfg.shots_z), ("x", summary.x, cfg.shots_x)):
        if st.shots != want:
            problems.append(f"{basis}: {st.shots} shots, asked for {want}")
        elif not _in_band(st.accepted / st.shots, ACCEPT_BAND, st.shots):
            problems.append(f"{basis}: acceptance {st.accepted}/{st.shots} outside band")
    for basis, st in (("z", summary.z), ("x", summary.x)):
        if not st.accepted or not _in_band(st.mismatches / st.accepted, MISMATCH_BAND,
                                           st.accepted):
            problems.append(f"{basis} mismatch {st.mismatches}/{st.accepted} outside band")
    mode_dir = os.path.join(out_dir, cfg.mode)
    with open(os.path.join(mode_dir, "summary.json")) as fh:
        if json.load(fh) != summary.to_json():
            problems.append("summary.json differs from the returned summary")
    with open(os.path.join(mode_dir, "shots.jsonl")) as fh:
        header = json.loads(fh.readline())
        rows = sum(1 for _ in fh)
    if header.get("config_hash") != cfg.digest():
        problems.append("shots.jsonl header carries another config hash")
    if rows != cfg.shots_z + cfg.shots_x:
        problems.append(f"shots.jsonl holds {rows} shot rows")
    return problems


def _check_run_mismatch(accepted: int, mismatches: int) -> list:
    """The mismatch rate over every first request of the run, both bases."""
    if not accepted or not _in_band(mismatches / accepted, MISMATCH_BAND, accepted):
        return [f"mismatch {mismatches}/{accepted} over the run outside band"]
    return []


def _check_ordering(seed: int) -> list:
    """z mismatch: logical < physical < logical-noqec, as in the paper."""
    rates = {}
    for mode, shots in ORDER_SHOTS.items():
        z = ex.run(_ghz_config(seed, shots, mode, shots_x=0)).z
        rates[mode] = z.mismatches / z.accepted
    if not rates["logical"] < rates["physical"] < rates["logical-noqec"]:
        return [f"z mismatch out of order: {rates}"]
    return []


def _same_files(first_dir: str, again_dir: str, mode: str) -> list:
    """A repeated request with the same seed must write byte-identical files."""
    problems = []
    for name in ("summary.json", "shots.jsonl"):
        with open(os.path.join(first_dir, mode, name), "rb") as a, \
                open(os.path.join(again_dir, mode, name), "rb") as b:
            if a.read() != b.read():
                problems.append(f"{name} differs on a repeated request")
    return problems


def ghz(seed: int, seconds: float, tiny: bool, workdir: str, tally: Tally,
        gauge: Gauge) -> Result:
    """Logical-mode requests, each with a new seed drawn from the workload
    seed, until the time is up.  Every GHZ_REPEAT_EVERY-th run repeats the
    request before it and checks that it writes the same files."""
    n = GHZ_SHOTS // (20 if tiny else 1)
    rng = random.Random(seed)
    first_dir = os.path.join(workdir, "request")
    again_dir = os.path.join(workdir, "repeat")
    times = []
    accepted = mismatches = 0
    seeds = []
    start = time.perf_counter()
    while _keep_going(start, seconds, len(times), MIN_GHZ_RUNS, 2 if tiny else math.inf):
        repeat = len(times) % GHZ_REPEAT_EVERY == 1
        if not repeat:
            seeds.append(rng.randrange(2 ** 31))
        cfg = _ghz_config(seeds[-1], n)

        def request():
            nonlocal accepted, mismatches
            mark = gauge.tick(force=True)
            t0 = time.perf_counter()
            summary = ex.run(cfg, out_dir=again_dir if repeat else first_dir)
            times.append((time.perf_counter() - t0, mark))
            if repeat:
                return _same_files(first_dir, again_dir, cfg.mode)
            accepted += summary.z.accepted + summary.x.accepted
            mismatches += summary.z.mismatches + summary.x.mismatches
            return _check_ghz_request(cfg, summary, first_dir)

        label = f"request {len(seeds) - 1}" + (" repeated" if repeat else "")
        tally.guarded(label, request)
    tally.guarded("mode ordering", lambda: _check_ordering(seeds[0]))
    tally.guarded("whole-run mismatch", lambda: _check_run_mismatch(accepted, mismatches))
    gauge.tick(force=True)
    scaled = [dt * gauge.scale(mark) for dt, mark in times]
    rate = 2 * n / _mean(scaled)
    raw_rate = 2 * n / _mean([dt for dt, _ in times])
    p50 = 1e3 * _median(scaled)
    success = 1.0 - mismatches / accepted if accepted else 0.0
    note = f"{len(times)} runs of {n}+{n} shots, {len(seeds)} distinct requests"
    return Result(
        metrics={"throughput_per_s": rate, "latency_ms_p50": p50, "success_frac": success},
        report={"logical_shots_per_s": (rate, "1/s", note),
                "logical_shots_per_s_wall": (raw_rate, "1/s", "the same, not scaled"),
                "request_ms_p50": (p50, "ms", note),
                "success_frac": (success, "fraction",
                                 f"accepted shots without a mismatch, {accepted} accepted")})


def ghz_traced(seed: int, seconds: float, tiny: bool, workdir: str, tally: Tally,
               tr: Tracer) -> dict:
    n = GHZ_SHOTS // (20 if tiny else 1)
    rng = random.Random(seed)
    shots = {"z": 0, "x": 0}
    accepted = {"z": 0, "x": 0}
    calls = distinct = converged = kept = 0
    archive_bytes = []
    start = time.perf_counter()
    i = 0
    while _keep_going(start, seconds, i, 1, 1 if tiny else math.inf):
        cfg = _ghz_config(rng.randrange(2 ** 31), n)
        out = os.path.join(workdir, f"traced{i}")
        tr.request = i

        def request():
            nonlocal calls, distinct, converged, kept
            dstats = rc.DecoderStats()
            with tr.span("bench.request"):
                with tr.span("experiment.run_archive"):
                    archived = ex.run(cfg, out_dir=out)
                with tr.span("experiment.run"):
                    summary = ex.run(cfg)
                with tr.span("bench.recompose"):
                    counts = rc.ghz_request(tr, cfg, dstats)
            archive_bytes.append(_dir_bytes(out))
            problems = []
            if archived.to_json() != summary.to_json():
                problems.append("run with and without out_dir disagree")
            for basis, st in (("z", summary.z), ("x", summary.x)):
                got = counts[basis]
                want = (st.shots, st.accepted, st.mismatches)
                if (got.shots, got.accepted, got.mismatches) != want:
                    problems.append(f"{basis}: recomposition gives {got}, run gives {want}")
                shots[basis] += got.shots
                accepted[basis] += got.accepted
            calls += dstats.calls
            distinct += len(dstats.distinct)
            converged += dstats.converged
            kept += dstats.kept
            return problems

        tally.guarded(f"traced request {i}", request)
        shutil.rmtree(out, ignore_errors=True)
        i += 1
    total_shots = shots["z"] + shots["x"]
    run_s = tr.total("experiment.run")
    layers_s = tr.children_seconds("bench.recompose", exclude=("stab_sim.reference",))
    sample_s = tr.total("stab_sim.sample") - tr.total("stab_sim.reference")
    return {
        "stab_sim.sample_us_per_shot": 1e6 * sample_s / max(total_shots, 1),
        "protocol.acceptance_z": accepted["z"] / max(shots["z"], 1),
        "protocol.acceptance_x": accepted["x"] / max(shots["x"], 1),
        **_decoder_counts(calls, distinct, converged, kept, i),
        "experiment.archive_ms": 1e3 * (tr.total("experiment.run_archive") - run_s) / i,
        "experiment.archive_bytes": _median(archive_bytes),
        "experiment.overhead_us_per_shot": 1e6 * (run_s - layers_s) / max(total_shots, 1),
        "trace.overhead_frac": tr.total("bench.recompose") / run_s - 1.0,
        "_requests": i,
    }


def _decoder_counts(calls, distinct, converged, kept, requests) -> dict:
    return {
        "decoder.calls": calls / requests,
        "decoder.distinct_frac": distinct / calls if calls else 0.0,
        "decoder.bp_converged_frac": converged / calls if calls else 0.0,
        "decoder.bp_kept_frac": kept / calls if calls else 0.0,
    }


# --- decoding a stream of distinct syndromes -------------------------------------


def _rows(h) -> list[int]:
    return [h.row(r) for r in range(h.rows)]


def _syndrome(rows, error: int) -> int:
    return sum(rc.parity(row, error) << r for r, row in enumerate(rows))


def _span(rows) -> frozenset:
    span = {0}
    for row in rows:
        span |= {s ^ row for s in span}
    return frozenset(span)


@dataclass
class DecodeInputs:
    code: object
    stream: list          # (basis, syndrome, errors with that syndrome), distinct keys
    priors: list          # one uniform prior per pass, pairwise distinct
    checks: dict          # basis -> check rows as ints (benchmark's own copy)
    stabilizers: dict     # basis -> span of the stabilizers a residual may equal
    logicals: dict        # basis -> logical supports used by logical_correction


def decode_inputs(seed: int, draws: int) -> DecodeInputs:
    """Random weight-1..3 X (basis z) and Z (basis x) errors; the stream
    holds each distinct nonzero syndrome once, in order of first draw."""
    code = build_25_4_3()
    checks = {"z": _rows(code.hz), "x": _rows(code.hx)}
    rng = random.Random(seed)
    errors = {}
    for _ in range(draws):
        basis = rng.choice("zx")
        error = sum(1 << q for q in rng.sample(range(code.n), rng.randint(1, 3)))
        syndrome = _syndrome(checks[basis], error)
        if syndrome:
            errors.setdefault((basis, syndrome), []).append(error)
    stream = [(basis, syndrome, tuple(errs)) for (basis, syndrome), errs in errors.items()]
    # Decode time depends on the prior's size, so every seed uses the same
    # priors: the `f2qec decode` default 0.01, nudged to a new value each pass.
    priors = [DECODE_PRIOR * (1 + k / 1000) for k in range(MAX_PASSES)]
    return DecodeInputs(code, stream, priors, checks,
                        {"z": _span(_rows(code.hx)), "x": _span(_rows(code.hz))},
                        {"z": code.logicals_z, "x": code.logicals_x})


def _check_decode(inp: DecodeInputs, basis, syndrome, errors, estimate, mask):
    """Problems with one decode, and how many of its input errors it corrects
    (the residual error times the estimate is a stabilizer)."""
    problems = []
    if _syndrome(inp.checks[basis], estimate) != syndrome:
        problems.append("estimate does not reproduce its syndrome")
    want = sum(rc.parity(estimate, lg) << i for i, lg in enumerate(inp.logicals[basis]))
    if mask != want:
        problems.append("logical mask disagrees with the estimate")
    stabilizers = inp.stabilizers[basis]
    return problems, sum((e ^ estimate) in stabilizers for e in errors)


def _decode_once(inp, basis, priors, syndrome):
    h = inp.code.hz if basis == "z" else inp.code.hx
    result = bp_osd(DecodeProblem(h, priors[basis], syndrome),
                    iters=DECODE_ITERS, depth=DECODE_DEPTH)
    return result.error_estimate, logical_correction(inp.code, result.error_estimate, basis)


def decode_distinct(seed: int, seconds: float, tiny: bool, tally: Tally,
                    gauge: Gauge) -> Result:
    """Each pass decodes the whole stream at a new prior; a syndrome's
    time is its mean over the passes."""
    inp = decode_inputs(seed, 300 if tiny else DECODE_DRAWS)
    code = inp.code
    samples = [[] for _ in inp.stream]
    corrected = inputs = decodes = 0
    start = time.perf_counter()
    passes = 0
    while _keep_going(start, seconds, passes, MIN_PASSES, 1 if tiny else len(inp.priors)):
        p = inp.priors[passes]
        priors = {"z": (p,) * code.hz.cols, "x": (p,) * code.hx.cols}
        for j, (basis, syndrome, errors) in enumerate(inp.stream):
            def decode():
                nonlocal corrected, inputs, decodes
                mark = gauge.tick()
                t0 = time.perf_counter()
                estimate, mask = _decode_once(inp, basis, priors, syndrome)
                samples[j].append((time.perf_counter() - t0, mark))
                decodes += 1
                problems, ok = _check_decode(inp, basis, syndrome, errors, estimate, mask)
                corrected += ok
                inputs += len(errors)
                return problems

            tally.guarded(f"pass {passes} decode {j}", decode)
        passes += 1
    gauge.tick(force=True)
    times = [_mean([dt * gauge.scale(mark) for dt, mark in ts]) for ts in samples if ts]
    n = len(times)
    rate = n / sum(times) if times else 0.0
    raw_rate = n / sum(_mean([dt for dt, _ in ts]) for ts in samples if ts) if n else 0.0
    p50, p99 = 1e3 * _median(times), 1e3 * _percentile(times, 0.99)
    success = corrected / inputs if inputs else 0.0
    note = (f"{n} distinct syndromes, each timed as its mean over {passes} passes; "
            f"{decodes} decodes in all")
    return Result(
        metrics={"throughput_per_s": rate, "latency_ms_p50": p50, "success_frac": success},
        report={"syndromes_per_s": (rate, "1/s", note),
                "syndromes_per_s_wall": (raw_rate, "1/s", "the same, not scaled"),
                "decode_ms_p50": (p50, "ms", note),
                "decode_ms_p99": (p99, "ms", f"{n - math.ceil(0.99 * n)} syndromes beyond it"),
                "decode_success_frac": (success, "fraction",
                                        f"of {inputs} input errors, residual is a stabilizer")})


def decode_traced(seed: int, seconds: float, tiny: bool, tally: Tally, tr: Tracer) -> dict:
    inp = decode_inputs(seed, 300 if tiny else DECODE_DRAWS)
    code = inp.code
    untraced = 0.0
    calls = distinct = converged = kept = 0
    start = time.perf_counter()
    passes = 0
    while _keep_going(start, seconds, passes, 1, 1 if tiny else len(inp.priors)):
        tr.request = passes
        p = inp.priors[passes]
        priors = {"z": (p,) * code.hz.cols, "x": (p,) * code.hx.cols}
        dstats = rc.DecoderStats()
        for j, (basis, syndrome, errors) in enumerate(inp.stream):
            def decode():
                nonlocal untraced
                t0 = time.perf_counter()
                want, _ = _decode_once(inp, basis, priors, syndrome)
                untraced += time.perf_counter() - t0
                h = code.hz if basis == "z" else code.hx
                with tr.span("bench.decode"):
                    problem = DecodeProblem(h, priors[basis], syndrome)
                    with tr.span("decoder.init"):
                        bp = MinSumDecoder(h, problem.priors, iters=DECODE_ITERS)
                    got = rc.bp_then_osd(tr, bp, problem, DECODE_DEPTH, dstats, basis)
                    with tr.span("decoder.logical_correction"):
                        mask = logical_correction(code, got.error_estimate, basis)
                problems, _ = _check_decode(inp, basis, syndrome, errors,
                                            got.error_estimate, mask)
                if got.error_estimate != want:
                    problems.append("recomposed BP+OSD disagrees with bp_osd")
                return problems

            tally.guarded(f"traced pass {passes} decode {j}", decode)
        calls += dstats.calls
        distinct += len(dstats.distinct)
        converged += dstats.converged
        kept += dstats.kept
        passes += 1
    return {**_decoder_counts(calls, distinct, converged, kept, passes),
            "trace.overhead_frac": tr.total("bench.decode") / untraced - 1.0,
            "_requests": passes}


# --- fault-tolerance analysis ----------------------------------------------------


def _ledger_problems(report, basis: str) -> list:
    got = {k: report.count(k) for k in LEDGER_TOTALS[basis]}
    return [] if got == LEDGER_TOTALS[basis] else [f"ledger {basis} totals {got}"]


def _analysis_calls(code):
    """(name, span name, call, check) for one full analysis pass."""
    return [
        ("ledger-z", "experiment.fault_tolerance_ledger",
         lambda: ex.fault_tolerance_ledger("z"), lambda r: _ledger_problems(r, "z")),
        ("ledger-x", "experiment.fault_tolerance_ledger",
         lambda: ex.fault_tolerance_ledger("x"), lambda r: _ledger_problems(r, "x")),
        ("schedule-zigzag", "protocol.validate_schedule",
         lambda: pr.validate_schedule(code, pr.zigzag_schedule(code)),
         lambda r: [] if r.ok else ["zigzag schedule flagged"]),
        ("schedule-row-major", "protocol.validate_schedule",
         lambda: pr.validate_schedule(code, pr.row_major_schedule(code)),
         lambda r: [] if not r.ok else ["row-major schedule not flagged"]),
        ("distance", "css_code.distance",
         lambda: distance(code, 3), lambda r: [] if r == (3, 3) else [f"distance {r}"]),
        ("validate", "css_code.validate",
         lambda: validate(code), lambda r: [] if r.ok else list(r.failures)),
    ]


def _analysis_pass(rng, tally: Tally, label: str, tr: Tracer | None = None,
                   gauge: Gauge | None = None):
    """One pass in a seed-shuffled order; returns (units, ledger reports),
    units being (seconds, gauge reading index or None) per call."""
    code = build_25_4_3()
    calls = _analysis_calls(code)
    rng.shuffle(calls)
    ledgers = {}
    units = []
    for name, span_name, call, check in calls:
        def op():
            mark = gauge.tick(force=True) if gauge is not None else None
            t0 = time.perf_counter()
            if tr is None:
                result = call()
            else:
                with tr.span(span_name):
                    result = call()
            units.append((time.perf_counter() - t0, mark))
            if name.startswith("ledger"):
                ledgers[name[-1]] = result
            return check(result)

        tally.guarded(f"{label} {name}", op)
    return units, ledgers


def _seconds(units) -> float:
    return sum(dt for dt, _ in units)


def ft_analysis(seed: int, seconds: float, tiny: bool, tally: Tally,
                gauge: Gauge) -> Result:
    rng = random.Random(seed)
    passes, success = [], 0.0
    start = time.perf_counter()
    while _keep_going(start, seconds, len(passes), MIN_PASSES, 1 if tiny else math.inf):
        units, ledgers = _analysis_pass(rng, tally, f"pass {len(passes)}", gauge=gauge)
        passes.append(units)
        if len(ledgers) == 2:
            ok = sum(r.count("correct") for r in ledgers.values())
            rejected = sum(r.count("rejected") for r in ledgers.values())
            cases = sum(len(r.entries) for r in ledgers.values())
            success = ok / (cases - rejected)
    gauge.tick(force=True)
    analysis_s = _mean([sum(dt * gauge.scale(mark) for dt, mark in units) for units in passes])
    raw_s = _mean([_seconds(units) for units in passes])
    note = f"mean of {len(passes)} passes"
    return Result(
        metrics={"throughput_per_s": 1.0 / analysis_s if analysis_s else 0.0,
                 "latency_ms_p50": 1e3 * analysis_s, "success_frac": success},
        report={"analysis_s": (analysis_s, "s", note),
                "analysis_s_wall": (raw_s, "s", "the same, not scaled"),
                "success_frac": (success, "fraction",
                                 "accepted single faults that decode correctly")})


def ft_traced(seed: int, seconds: float, tiny: bool, tally: Tally, tr: Tracer) -> dict:
    rng = random.Random(seed)
    untraced = traced = 0.0
    fault_cases = 0
    passes = 0
    calls = distinct = converged = kept = 0
    start = time.perf_counter()
    while _keep_going(start, seconds, passes, 1, 1 if tiny else math.inf):
        tr.request = passes
        untraced += _seconds(_analysis_pass(rng, tally, f"untraced pass {passes}")[0])
        with tr.span("bench.pass"):
            traced += _seconds(_analysis_pass(rng, tally, f"traced pass {passes}", tr)[0])
        dstats = rc.DecoderStats()

        def recompose():
            nonlocal fault_cases
            problems = []
            with tr.span("bench.recompose"):
                code = build_25_4_3()
                for basis in "zx":
                    got = rc.ledger_counts(tr, basis, dstats)
                    fault_cases += got["cases"]
                    want = LEDGER_TOTALS[basis]
                    expected = (want["correct"], want["rejected"],
                                want["nonft-set"] + want["extra"])
                    if (got["correct"], got["rejected"], got["corrupting"]) != expected:
                        problems.append(f"recomposed ledger {basis} gives {got}")
                for schedule in (pr.zigzag_schedule(code), pr.row_major_schedule(code)):
                    fault_cases += rc.schedule_fault_cases(tr, code, schedule)
            return problems

        tally.guarded(f"recomposed pass {passes}", recompose)
        calls += dstats.calls
        distinct += len(dstats.distinct)
        converged += dstats.converged
        kept += dstats.kept
        passes += 1
    return {**_decoder_counts(calls, distinct, converged, kept, passes),
            "stab_sim.fault_cases": fault_cases / passes,
            "trace.overhead_frac": traced / untraced - 1.0,
            "_requests": passes}


# --- per-layer metrics ------------------------------------------------------------

PER_LAYER_UNITS = {
    "code_factory.build_ms": "ms",
    "protocol.pipeline_build_ms": "ms",
    "stab_sim.reference_ms": "ms",
    "decoder.init_ms": "ms",
    "stab_sim.sample_us_per_shot": "us",
    "protocol.frame_us_per_shot": "us",
    "protocol.readout_us_per_accepted": "us",
    "protocol.acceptance_z": "fraction",
    "protocol.acceptance_x": "fraction",
    "decoder.calls": "count",
    "decoder.distinct_frac": "fraction",
    "decoder.bp_us_per_call": "us",
    "decoder.osd_us_per_call": "us",
    "decoder.bp_converged_frac": "fraction",
    "decoder.bp_kept_frac": "fraction",
    "experiment.archive_ms": "ms",
    "experiment.archive_bytes": "bytes",
    "experiment.overhead_us_per_shot": "us",
    "stab_sim.enumerate_ms": "ms",
    "stab_sim.fault_cases": "count",
    "experiment.ledger_ms": "ms",
    "protocol.validate_schedule_ms": "ms",
    "css_code.distance_ms": "ms",
    "css_code.validate_ms": "ms",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.overhead_frac": "fraction",
    "trace.spans_per_request": "count",
}

# per-layer metric -> (span name, scale) for the mean duration of one call
_PER_CALL = {
    "code_factory.build_ms": ("code_factory.build", 1e3),
    "protocol.pipeline_build_ms": ("protocol.pipeline_build", 1e3),
    "stab_sim.reference_ms": ("stab_sim.reference", 1e3),
    "decoder.init_ms": ("decoder.init", 1e3),
    "protocol.frame_us_per_shot": ("protocol.frame_from_shot", 1e6),
    "protocol.readout_us_per_accepted": ("protocol.readout_reduce", 1e6),
    "decoder.bp_us_per_call": ("decoder.bp", 1e6),
    "decoder.osd_us_per_call": ("decoder.osd", 1e6),
    "stab_sim.enumerate_ms": ("stab_sim.enumerate", 1e3),
    "experiment.ledger_ms": ("experiment.fault_tolerance_ledger", 1e3),
    "protocol.validate_schedule_ms": ("protocol.validate_schedule", 1e3),
    "css_code.distance_ms": ("css_code.distance", 1e3),
    "css_code.validate_ms": ("css_code.validate", 1e3),
}


def layer_metrics(tr: Tracer, specific: dict) -> dict:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    requests = specific.pop("_requests")
    out = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for name, (span_name, scale) in _PER_CALL.items():
        durations = tr.durations(span_name)
        if durations:
            out[name] = scale * sum(durations) / len(durations)
    for layer, seconds in tr.self_seconds_by_layer().items():
        out[f"{layer}.self_ms"] = 1e3 * seconds / requests
    out["trace.spans_per_request"] = len(tr.spans) / requests
    out.update(specific)
    return out
