"""Monte Carlo harness for the GHZ experiments.

Runs the physical and logical pipelines under the three-rate noise model,
applies postselection and decoding, and aggregates mismatch rates with
binomial standard errors and GHZ fidelity bounds.  Each shot's verdict is
a function of its key word, a fixed GF(2) map of its measurement record,
so the shots of a chunk are grouped by key word and each distinct word is
postselected and decoded once.  Shot records can be archived as JSON lines.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import protocol as pr
from . import stab_sim as ss
from .code_factory import build_25_4_3, build_generalized
from .css_code import CssCode
from .decoder import MinSumDecoder, bp_then_osd
from .f2linalg import BitMatrix, inverse_permutation, mask_to_support

MODES = ("physical", "logical", "logical-noqec", "generalized")
PRIOR_FLOOR = 1e-6
PRIOR_CEIL = 0.49
# fraction of the 15 two-qubit depolarizing Paulis carrying a given
# component on a given leg
_LEG_FRACTION = 8.0 / 15.0


def parse_number(kind, value):
    """kind(value) for int or float; non-ASCII text, '_' and True/False are a ValueError.

    int() and float() take them: other scripts' digits, digit groups, and bool as an int.
    """
    text = value if isinstance(value, str) else ""
    if type(value) is bool or not text.isascii() or "_" in text:
        raise ValueError(f"expected an ASCII {kind.__name__}, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class RunConfig:
    mode: str = "logical"
    shots_z: int = 1000
    shots_x: int = 1000
    noise: ss.NoiseModel = ss.NoiseModel.zero()
    seed: int = 0
    l: int = 3
    c: int = 1
    bp_iters: int = 10
    osd_depth: int = 14
    prior_mode: str = "marginal"
    threads: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.shots_z < 0 or self.shots_x < 0:
            raise ValueError("shot counts must be >= 0")
        for name in ("bp_iters", "osd_depth"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.prior_mode != "marginal":
            raise ValueError("prior_mode must be 'marginal'")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    def to_dict(self) -> dict:
        return {
            "mode": self.mode, "shots_z": self.shots_z, "shots_x": self.shots_x,
            "p1": self.noise.p1, "p2": self.noise.p2, "p_spam": self.noise.p_spam,
            "seed": self.seed, "l": self.l, "c": self.c,
            "bp_iters": self.bp_iters, "osd_depth": self.osd_depth,
            "prior_mode": self.prior_mode, "threads": self.threads,
        }

    def digest(self) -> str:
        """Hash of every field the results depend on (all but threads)."""
        # imported here: hashlib loads OpenSSL, about 3.6 MB that only a
        # run's summary needs and decoding or fault analysis does not
        import hashlib

        d = self.to_dict()
        del d["threads"]
        return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Inverse of to_dict; missing keys take the defaults, unknown keys are an error."""
        fields = cls().to_dict()
        unknown = sorted(set(d) - set(fields))
        if unknown:
            raise ValueError(f"unknown config key {unknown[0]!r}")
        fields.update(d)

        def number(kind, key):
            try:
                return parse_number(kind, fields[key])
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None

        rates = ("p1", "p2", "p_spam")
        noise = ss.NoiseModel(*(number(float, k) for k in rates))
        return cls(noise=noise, **{k: v if k in ("mode", "prior_mode") else number(int, k)
                                   for k, v in fields.items() if k not in rates})

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        d = {}
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line: {line!r}")
                key, val = (s.strip() for s in line.split("=", 1))
                if key in d:
                    raise ValueError(f"config key {key!r} repeated")
                d[key] = val
        return cls.from_dict(d)


def standard_error(p: float, n: int) -> float:
    """Binomial standard error sqrt(p(1-p)/n)."""
    if n <= 0:
        raise ValueError("need at least one sample")
    return math.sqrt(p * (1.0 - p) / n)


@dataclass(frozen=True)
class FidelityBounds:
    lower: float
    upper: float
    sigma_lower: float
    sigma_upper: float


def fidelity_bounds(z_mismatch: float, x_mismatch: float,
                    sigma_z: float = 0.0, sigma_x: float = 0.0) -> FidelityBounds:
    """GHZ fidelity interval from the two mismatch rates.

    The upper bound is one minus the Z-disagreement probability; the
    lower bound subtracts the X-parity failure as well, with the two
    standard errors combined in quadrature.
    """
    for r in (z_mismatch, x_mismatch):
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"mismatch rate {r} outside [0, 1]")
    upper = 1.0 - z_mismatch
    lower = 1.0 - z_mismatch - x_mismatch
    return FidelityBounds(lower, upper, math.hypot(sigma_z, sigma_x), sigma_z)


@dataclass
class BasisStats:
    shots: int = 0
    accepted: int = 0
    mismatches: int = 0

    @property
    def acceptance(self) -> float | None:
        return self.accepted / self.shots if self.shots else None

    @property
    def p(self) -> float | None:
        return self.mismatches / self.accepted if self.accepted else None

    @property
    def sigma(self) -> float | None:
        return standard_error(self.p, self.accepted) if self.accepted else None

    def to_json(self) -> dict:
        return {"shots": self.shots, "accepted": self.accepted,
                "mismatches": self.mismatches, "p": self.p, "sigma": self.sigma}


@dataclass
class RunSummary:
    config: RunConfig
    z: BasisStats
    x: BasisStats

    @property
    def fidelity(self) -> FidelityBounds | None:
        if self.z.p is None or self.x.p is None:
            return None
        return fidelity_bounds(self.z.p, self.x.p, self.z.sigma, self.x.sigma)

    def to_json(self) -> dict:
        fb = self.fidelity
        return {
            "config": self.config.to_dict(),
            "config_hash": self.config.digest(),
            "z": self.z.to_json(),
            "x": self.x.to_json(),
            "fidelity": None if fb is None else {
                "lower": fb.lower, "upper": fb.upper,
                "sigma_lower": fb.sigma_lower, "sigma_upper": fb.sigma_upper,
            },
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RunSummary":
        return cls(RunConfig.from_dict(obj["config"]), _basis_stats(obj, "z"), _basis_stats(obj, "x"))


def _basis_stats(obj: dict, basis: str) -> BasisStats:
    """One basis's counts of a summary file: ints with 0 <= mismatches <= accepted <= shots."""
    counts = {name: obj[basis][name] for name in ("shots", "accepted", "mismatches")}
    for name, value in counts.items():
        # true and false are not integers here
        if type(value) is not int:
            raise ValueError(f"{basis}.{name} must be an integer, got {json.dumps(value)}")
    if not 0 <= counts["mismatches"] <= counts["accepted"] <= counts["shots"]:
        raise ValueError(f"{basis} counts must have 0 <= mismatches <= accepted <= shots, "
                         f"got {json.dumps(counts)}")
    return BasisStats(**counts)


# --- priors ------------------------------------------------------------------


def _gate_counts(circuit: ss.Circuit, n_data: int):
    cnots = [0] * n_data
    hs = [0] * n_data
    for ins in circuit.instructions:
        if ins.op == "CNOT":
            for q in ins.qubits:
                if q < n_data:
                    cnots[q] += 1
        elif ins.op == "H" and ins.qubits[0] < n_data:
            hs[ins.qubits[0]] += 1
    return cnots, hs


def data_error_priors(circuit: ss.Circuit, nm: ss.NoiseModel, n_data: int, basis: str):
    """Per-qubit marginal error probability from gate counts.

    Counts SPAM events plus depolarizing legs on gates touching the
    qubit; hook propagation is deliberately ignored (documented gap).
    """
    cnots, hs = _gate_counts(circuit, n_data)
    spam = nm.p_spam * (2.0 if basis == "z" else 1.0)
    out = []
    for q in range(n_data):
        p = spam + cnots[q] * nm.p2 * _LEG_FRACTION + hs[q] * nm.p1 * (2.0 / 3.0)
        out.append(min(max(p, PRIOR_FLOOR), PRIOR_CEIL))
    return tuple(out)


def frame_error_priors(code: CssCode, nm: ss.NoiseModel):
    """Per-X-check probability of a wrong recorded extraction outcome."""
    out = []
    for r in range(code.hx.rows):
        w = code.hx.row(r).bit_count()
        p = 2.0 * nm.p_spam + w * nm.p2 * _LEG_FRACTION
        out.append(min(max(p, PRIOR_FLOOR), PRIOR_CEIL))
    return tuple(out)


# --- classification by key word ---------------------------------------------


class _Classifier:
    """The verdict on a shot of one pipeline, from its key word alone.

    A key word (protocol.FrameRecipe.key; in the physical mode the four
    data bits in Z and their parity in X) holds, from its lowest bit, the
    acceptance bits, the readout syndrome and the raw logical bits.  With
    QEC, a nonzero syndrome is decoded and the estimate's flips of the raw
    bits are applied; the flips are kept by syndrome, so words that differ
    only in their raw bits share one decode.  The readout matches the GHZ
    target when all raw bits are equal in Z, and when the raw parity bit
    is 0 in X.

    The Z basis decodes X errors on the plain Z-check matrix.  The X
    basis decodes the frame-corrected syndrome on the X-check matrix
    augmented with one column per check, so a wrong recorded extraction
    outcome can be attributed to the measurement record instead of
    forcing a spurious data correction; flagged record bits also repair
    the offline parity frame through the recipe's stabilizer
    coefficients.  Priors follow each qubit through the relabelings.
    """

    def __init__(self, cfg: RunConfig, basis: str, circuit: ss.Circuit,
                 recipe: pr.FrameRecipe | None):
        self.basis, self.recipe, self.bp = basis, recipe, None
        if recipe is None:
            key = BitMatrix.identity(4) if basis == "z" else BitMatrix.from_ints([0b1111], 4)
            self.n_accept = self.n_syndrome = 0
        else:
            key, code = recipe.key, recipe.code
            self.n_accept, self.n_syndrome = 2, (code.hz if basis == "z" else code.hx).rows
            if cfg.mode != "logical-noqec":
                self._init_decoder(cfg, circuit)
        raw_ones = (1 << (key.rows - self.n_accept - self.n_syndrome)) - 1
        self.targets = (0, raw_ones) if basis == "z" else (0,)
        self.key = np.array(key.to_lists(), dtype=np.uint8)

    def _init_decoder(self, cfg: RunConfig, circuit: ss.Circuit):
        recipe, code = self.recipe, self.recipe.code
        marginal = data_error_priors(circuit, cfg.noise, code.n, self.basis)
        priors = tuple(marginal[q] for q in inverse_permutation(recipe.permutation))
        if self.basis == "z":
            h, flips = code.hz, code.logicals_z
        else:
            h = code.hx.hstack(BitMatrix.identity(code.hx.rows))
            priors += frame_error_priors(code, cfg.noise)
            flips = (code.logical_x_product | recipe.meas_parity_coeffs << code.n,)
        # row i: the estimate bits whose parity flips raw bit i
        self.raw_flips = BitMatrix.from_ints(flips, h.cols)
        self.bp = MinSumDecoder(h, priors, iters=cfg.bp_iters)
        self.osd_depth = cfg.osd_depth
        self.decoded = {}  # syndrome -> its estimate's raw-bit flips

    def verdict(self, word: int) -> bool | None:
        """None when postselection rejects the word's shots, else whether
        their (decoded, when the mode uses QEC) readout mismatches."""
        if word & ((1 << self.n_accept) - 1):
            return None
        syndrome = (word >> self.n_accept) & ((1 << self.n_syndrome) - 1)
        raw = word >> (self.n_accept + self.n_syndrome)
        if syndrome and self.bp is not None:
            if syndrome not in self.decoded:
                est = bp_then_osd(self.bp, syndrome, self.osd_depth).error_estimate
                self.decoded[syndrome] = self.raw_flips.mul_vec(est)
            raw ^= self.decoded[syndrome]
        return raw not in self.targets

    def classify(self, bits: np.ndarray):
        """Verdicts on the shots in bits (record tags x shots), one per distinct key word.

        Returns the verdicts, each shot's index into them and the number
        of shots that share each.  Words are compared as packed bytes, so
        a key of any width is exact.
        """
        rows = (self.key @ bits.astype(np.uint8)) & 1
        packed = np.packbits(rows, axis=0, bitorder="little").T
        words, inverse, counts = np.unique(packed, axis=0, return_inverse=True,
                                           return_counts=True)
        verdicts = [self.verdict(int.from_bytes(w.tobytes(), "little")) for w in words]
        return verdicts, inverse.reshape(-1), counts


# --- running ------------------------------------------------------------------


def build_pipeline(cfg: RunConfig, basis: str):
    """The circuit of cfg's mode in one readout basis and its FrameRecipe
    (None in the physical mode)."""
    if cfg.mode == "physical":
        return pr.physical_ghz_circuit(basis), None
    if cfg.mode == "generalized":
        return pr.generalized_ghz_circuit(build_generalized(cfg.l, cfg.c), basis)
    return pr.logical_ghz_circuit(build_25_4_3(), basis)


def _basis_seed(cfg: RunConfig, basis: str):
    return (cfg.seed, 0 if basis == "z" else 1)


def _archive_rows(basis: str, tags: tuple[str, ...], bits: np.ndarray, start: int) -> str:
    """The shots.jsonl rows of the columns of bits (tags x shots), numbered from start.

    Each row is json.dumps({"basis", "outcomes", "shot"}, sort_keys=True) byte
    for byte.  The rows share one template, the ASCII-escaped keys in sorted
    order, and differ only in one digit per tag at fixed offsets and in the
    trailing shot number.
    """
    order = sorted(range(len(tags)), key=tags.__getitem__)
    text, offsets = f'{{"basis": {json.dumps(basis)}, "outcomes": {{', []
    for j, t in enumerate(order):
        text += (", " if j else "") + json.dumps(tags[t]) + ": "
        offsets.append(len(text))
        text += "0"
    text += '}, "shot": '
    rows = np.tile(np.frombuffer(text.encode(), dtype=np.uint8), (bits.shape[1], 1))
    rows[:, offsets] = bits[order].T + ord("0")
    body, w = rows.tobytes().decode(), len(text)
    return "".join(body[i * w:(i + 1) * w] + f"{start + i}}}\n" for i in range(bits.shape[1]))


def _run_chunk(cfg: RunConfig, basis: str, start: int, count: int, keep_rows: bool):
    circ, recipe = build_pipeline(cfg, basis)
    classifier = _Classifier(cfg, basis, circ, recipe)
    bits = ss.sample_outcomes(circ, cfg.noise, _basis_seed(cfg, basis), count, start=start)
    stats = BasisStats(shots=count)
    verdicts, _, counts = classifier.classify(bits)
    for mismatch, n in zip(verdicts, counts.tolist()):
        if mismatch is not None:
            stats.accepted += n
            stats.mismatches += n * mismatch
    return stats, _archive_rows(basis, circ.tags(), bits, start) if keep_rows else None


def run(config: RunConfig, out_dir: str | None = None) -> RunSummary:
    """Simulate, postselect, decode, and aggregate one experiment.

    With out_dir set, writes <out_dir>/<mode>/summary.json and a
    shots.jsonl archive headed by the config hash.  Each basis is split
    into config.threads contiguous chunks run in worker processes; results
    and archive rows depend only on the config (the sampler seeds fixed
    blocks of shots, not chunks), not on the thread count.
    """
    keep = out_dir is not None
    jobs = []
    for basis, shots in (("z", config.shots_z), ("x", config.shots_x)):
        chunk = max(1, -(-shots // config.threads))
        jobs += [(basis, start, min(chunk, shots - start)) for start in range(0, shots, chunk)]
    if config.threads > 1:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            futures = [pool.submit(_run_chunk, config, *job, keep) for job in jobs]
            results = [f.result() for f in futures]
    else:
        results = [_run_chunk(config, *job, keep) for job in jobs]
    per_basis = {"z": BasisStats(), "x": BasisStats()}
    for (basis, _, _), (stats, _) in zip(jobs, results):
        total = per_basis[basis]
        total.shots += stats.shots
        total.accepted += stats.accepted
        total.mismatches += stats.mismatches
    summary = RunSummary(config, per_basis["z"], per_basis["x"])
    if out_dir is not None:
        mode_dir = os.path.join(out_dir, config.mode)
        os.makedirs(mode_dir, exist_ok=True)
        with open(os.path.join(mode_dir, "summary.json"), "w") as fh:
            json.dump(summary.to_json(), fh, indent=1, sort_keys=True)
        with open(os.path.join(mode_dir, "shots.jsonl"), "w") as fh:
            fh.write(json.dumps({"config_hash": config.digest(),
                                 "config": config.to_dict()}) + "\n")
            fh.writelines(rows for _, rows in results)
    return summary


# --- reporting -----------------------------------------------------------------


_MODE_LABELS = (
    ("physical", "Physical"),
    ("logical-noqec", "Logical (no QEC)"),
    ("logical", "Logical (with QEC)"),
    ("generalized", "Generalized"),
)


def _fmt_pct(p, sigma):
    if p is None:
        return "no data"
    return f"{100 * p:.1f} +- {100 * sigma:.1f}"


def report(summaries, fmt: str = "text") -> str:
    """Render a comparison of the available runs.

    `summaries` maps mode name to RunSummary; missing modes get explicit
    no-data markers.  Formats: text, json, csv.
    """
    if fmt == "json":
        return json.dumps({m: s.to_json() for m, s in sorted(summaries.items())},
                          indent=1, sort_keys=True)
    if fmt == "csv":
        lines = ["mode,basis,shots,accepted,mismatches,p,sigma"]
        for mode, s in sorted(summaries.items()):
            for basis, st in (("z", s.z), ("x", s.x)):
                lines.append(
                    f"{mode},{basis},{st.shots},{st.accepted},{st.mismatches},"
                    f"{'' if st.p is None else repr(st.p)},"
                    f"{'' if st.sigma is None else repr(st.sigma)}")
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ValueError("format must be text, json, or csv")
    width = max(len(label) for _, label in _MODE_LABELS) + 2
    lines = ["GHZ state preparation", "",
             f"{'experiment':<{width}}{'z mismatch (%)':>18}{'x mismatch (%)':>18}"]
    for mode, label in _MODE_LABELS:
        if mode not in summaries:
            continue
        s = summaries[mode]
        lines.append(f"{label:<{width}}{_fmt_pct(s.z.p, s.z.sigma):>18}"
                     f"{_fmt_pct(s.x.p, s.x.sigma):>18}")
    lines.append("")
    for mode, label in _MODE_LABELS:
        if mode not in summaries:
            continue
        s = summaries[mode]
        fb = s.fidelity
        if fb is None:
            lines.append(f"{label}: no data")
            continue
        lines.append(
            f"{label}: {100 * fb.lower:.1f} +- {100 * fb.sigma_lower:.1f} <= F <= "
            f"{100 * fb.upper:.1f} +- {100 * fb.sigma_upper:.1f}  (%)")
        if mode in ("logical", "logical-noqec", "generalized"):
            az = s.z.acceptance
            ax = s.x.acceptance
            if az is not None and ax is not None:
                lines.append(f"{label} acceptance: z {100 * az:.1f}%  x {100 * ax:.1f}%")
    return "\n".join(lines) + "\n"


# --- exhaustive single-fault ledger ---------------------------------------------


@dataclass
class LedgerEntry:
    instruction_index: int
    kind: str
    pauli: str
    outcome: str          # "correct" | "rejected" | "nonft-set" | "extra"


@dataclass
class LedgerReport:
    basis: str
    entries: list

    def count(self, outcome: str) -> int:
        return sum(1 for e in self.entries if e.outcome == outcome)

    def extras(self) -> list:
        return [e for e in self.entries if e.outcome == "extra"]


def fault_tolerance_ledger(basis: str) -> LedgerReport:
    """Classify every single fault in the logical pipeline at the paper rates.

    Each fault either decodes correctly, is rejected by the triple
    logical-X postselection, or corrupts the output.  The known
    non-fault-tolerant channel of the unprotected logical measurement is
    a Z-type component on the measured logical's support anywhere up to
    the end of its gadget triple; such faults either flip all three
    outcomes coherently (defeating the postselection) or leave the
    measurement record inconsistent with the state.  Corrupting faults
    outside that set are reported as "extra".
    """
    cfg = RunConfig(mode="logical", noise=ss.NoiseModel(3e-5, 2e-3, 2e-3))
    circ, recipe = build_pipeline(cfg, basis)
    code = recipe.code
    classifier = _Classifier(cfg, basis, circ, recipe)
    xbar_support = set(mask_to_support(code.logicals_x[recipe.measured_logical]))
    gadget_end = next(i for i, ins in enumerate(circ.instructions) if ins.op == "RELABEL")
    table = ss.single_fault_table(circ)
    verdicts, inverse, _ = classifier.classify(table.records)
    entries = []
    for (index, kind, pauli), i in zip(table.cases, inverse.tolist()):
        mismatch = verdicts[i]
        if mismatch is None:
            outcome = "rejected"
        elif not mismatch:
            outcome = "correct"
        elif index >= gadget_end:
            outcome = "extra"
        else:
            # one Pauli letter per qubit; a measurement's "flip" has no Z or Y
            touches = zip(circ.instructions[index].qubits, pauli)
            hit = any(q in xbar_support and p in ("Z", "Y") for q, p in touches)
            outcome = "nonft-set" if hit else "extra"
        entries.append(LedgerEntry(index, kind, pauli, outcome))
    return LedgerReport(basis, entries)
