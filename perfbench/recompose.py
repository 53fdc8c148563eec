"""The program's pipelines rebuilt from its public calls, one span per call.

``experiment.run`` and ``fault_tolerance_ledger`` are single calls seen
from outside.  To see where their time goes, the traced run repeats
their work here through the public functions of ``code_factory``,
``protocol``, ``stab_sim``, ``decoder`` and ``experiment`` and wraps each
call in a span.  Each recomposition returns the same counts as the call
it mirrors; the workloads compare them exactly, so the trace cannot
drift into measuring a different program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from f2qec import experiment as ex
from f2qec import protocol as pr
from f2qec import stab_sim as ss
from f2qec.code_factory import build_25_4_3
from f2qec.decoder import DecodeProblem, MinSumDecoder, osd_combination_sweep
from f2qec.f2linalg import BitMatrix

# The paper's rates p1, p2, p_spam; also the single-fault ledger's default.
PAPER = ss.NoiseModel(3e-5, 2e-3, 2e-3)
# Floating-point tie margin of the program's BP-versus-OSD choice.
SOFT_WEIGHT_EPS = 1e-12


def parity(a: int, b: int) -> int:
    return (a & b).bit_count() & 1


@dataclass
class DecoderStats:
    calls: int = 0
    converged: int = 0
    kept: int = 0
    distinct: set = field(default_factory=set)


def bp_then_osd(tr, bp: MinSumDecoder, problem: DecodeProblem, depth: int,
                stats: DecoderStats, basis: str):
    """The program's BP+OSD choice: BP's answer is kept only when it
    converged and no sweep candidate scores better."""
    with tr.span("decoder.bp"):
        res = bp.decode(problem.syndrome)
    with tr.span("decoder.osd"):
        osd = osd_combination_sweep(problem, res.posteriors, depth=depth)
    stats.calls += 1
    stats.distinct.add((basis, problem.syndrome))
    stats.converged += res.converged
    if res.converged and res.soft_weight < osd.soft_weight - SOFT_WEIGHT_EPS:
        stats.kept += 1
        return res
    return osd


class TracedDecoder:
    """BP+OSD readout decoding for one pipeline, built from public calls.

    Mirrors the experiment's decode state: data priors follow the qubits
    through the relabelings, and the X basis decodes on the X checks
    augmented with one column per recorded extraction outcome.
    """

    def __init__(self, tr, code, circuit, cfg: ex.RunConfig, basis: str,
                 recipe: pr.FrameRecipe, stats: DecoderStats):
        self.tr = tr
        self.code = code
        self.basis = basis
        self.recipe = recipe
        self.stats = stats
        self.osd_depth = cfg.osd_depth
        with tr.span("experiment.priors"):
            if cfg.prior_mode == "uniform":
                data = (0.01,) * code.n
            else:
                marginal = ex.data_error_priors(circuit, cfg.noise, code.n, basis)
                permuted = [0.0] * code.n
                for q, img in enumerate(recipe.permutation):
                    permuted[img] = marginal[q]
                data = tuple(permuted)
            if basis == "z":
                self.h, self.priors = code.hz, data
            else:
                frame = ((0.01,) * code.hx.rows if cfg.prior_mode == "uniform"
                         else ex.frame_error_priors(code, cfg.noise))
                self.h = code.hx.hstack(BitMatrix.identity(code.hx.rows))
                self.priors = data + frame
        with tr.span("decoder.init"):
            self.bp = MinSumDecoder(self.h, self.priors, iters=cfg.bp_iters)
        self.product_mask = 0
        for m in code.logicals_x:
            self.product_mask ^= m

    def estimate(self, syndrome: int) -> int:
        return bp_then_osd(self.tr, self.bp, DecodeProblem(self.h, self.priors, syndrome),
                           self.osd_depth, self.stats, self.basis).error_estimate

    def mismatch(self, syndrome: int, raw) -> bool:
        code = self.code
        if self.basis == "z":
            bits = list(raw)
            if syndrome:
                est = self.estimate(syndrome)
                for i, lz in enumerate(code.logicals_z):
                    bits[i] ^= parity(est, lz)
            return len(set(bits)) != 1
        value = raw[0]
        if syndrome:
            est = self.estimate(syndrome)
            value ^= parity(est & ((1 << code.n) - 1), self.product_mask)
            value ^= parity(est >> code.n, self.recipe.meas_parity_coeffs)
        return value != 0


@dataclass
class PipelineCounts:
    shots: int = 0
    accepted: int = 0
    mismatches: int = 0


def ghz_request(tr, cfg: ex.RunConfig, dstats: DecoderStats) -> dict:
    """One logical-mode ``experiment.run`` request rebuilt call by call.

    Returns per-basis PipelineCounts.  The explicit ``stab_sim.reference``
    span times the reference run that ``sample_pauli_frame`` also does
    internally, so the sampler's per-shot cost can be separated from it.
    """
    out = {}
    for index, (basis, shots) in enumerate((("z", cfg.shots_z), ("x", cfg.shots_x))):
        counts = out[basis] = PipelineCounts()
        if shots == 0:
            continue
        seed = (cfg.seed, index)
        with tr.span("code_factory.build"):
            code = build_25_4_3()
        with tr.span("protocol.pipeline_build"):
            circuit, recipe = pr.logical_ghz_circuit(code, basis)
        decoder = TracedDecoder(tr, code, circuit, cfg, basis, recipe, dstats)
        with tr.span("stab_sim.reference"):
            ss.reference_record(circuit, seed)
        with tr.span("stab_sim.sample"):
            records = ss.sample_pauli_frame(circuit, cfg.noise, seed, shots)
        for rec in records:
            counts.shots += 1
            with tr.span("protocol.frame_from_shot"):
                frame = pr.frame_from_shot(recipe, rec)
            if not frame.accepted:
                continue
            counts.accepted += 1
            bits = [rec[tag] for tag in recipe.data_tags]
            with tr.span("protocol.readout_reduce"):
                syndrome, raw = pr.readout_reduce(code, basis, bits, frame)
            counts.mismatches += decoder.mismatch(syndrome, raw)
    return out


def ledger_counts(tr, basis: str, dstats: DecoderStats) -> dict:
    """Single-fault ledger outcomes rebuilt call by call.

    Counts "correct", "rejected" and "corrupting" (the ledger's
    "nonft-set" plus "extra"), with the ledger's default configuration.
    """
    cfg = ex.RunConfig(mode="logical", noise=PAPER)
    with tr.span("code_factory.build"):
        code = build_25_4_3()
    with tr.span("protocol.pipeline_build"):
        circuit, recipe = pr.logical_ghz_circuit(code, basis)
    decoder = TracedDecoder(tr, code, circuit, cfg, basis, recipe, dstats)
    with tr.span("stab_sim.enumerate"):
        cases = ss.enumerate_single_faults(circuit)
    out = {"correct": 0, "rejected": 0, "corrupting": 0, "cases": len(cases)}
    for case in cases:
        with tr.span("protocol.frame_from_shot"):
            frame = pr.frame_from_shot(recipe, case.record)
        if not frame.accepted:
            out["rejected"] += 1
            continue
        bits = [case.record[tag] for tag in recipe.data_tags]
        with tr.span("protocol.readout_reduce"):
            syndrome, raw = pr.readout_reduce(code, basis, bits, frame)
        out["corrupting" if decoder.mismatch(syndrome, raw) else "correct"] += 1
    return out


def schedule_fault_cases(tr, code, schedule) -> int:
    """Enumerate the extraction-circuit faults that validate_schedule walks."""
    with tr.span("protocol.pipeline_build"):
        circuit = pr.syndrome_extraction_circuit(code, schedule, which="both")
    with tr.span("stab_sim.enumerate"):
        return len(ss.enumerate_single_faults(circuit))
