"""Monte Carlo harness for the GHZ experiments.

Runs the physical and logical pipelines under the three-rate noise model,
applies postselection and decoding, and aggregates mismatch rates with
binomial standard errors and GHZ fidelity bounds.  A shot stays one
packed record word (stab_sim.sample_words) from the sampler to its
verdict.  The verdict is a function of the shot's key word, a fixed GF(2)
map of its record, read as one table lookup per record byte (exact at any
width), so each distinct key word of a basis is postselected and decoded
once.  Shot records can be archived as JSON lines, which are unpacked
and built whole as bytes in numpy, with no per-row Python work.

What depends only on the configuration lives as long as the process: each
pipeline (with the record map its circuit caches) and each classifier,
with its decoder and the syndromes it has decoded, is built on first use
and kept in a fixed-size LRU memo.  Nothing is kept per seed: a repeated
request samples and classifies again, and its files do not depend on what
the process ran before.
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
import os
from collections import Counter
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import protocol as pr
from . import stab_sim as ss
from .code_factory import build_25_4_3, build_generalized
from .css_code import CssCode
from .decoder import BP_ITERS, OSD_DEPTH, MinSumDecoder, bp_then_osd
from .f2linalg import BitMatrix, Frozen, inverse_permutation, reject_unknown_keys

MODES = ("physical", "logical", "logical-noqec", "generalized")
PRIOR_FLOOR = 1e-6
PRIOR_CEIL = 0.49
# fraction of the 15 two-qubit depolarizing Paulis carrying a given
# component on a given leg
_LEG_FRACTION = 8.0 / 15.0
# pipelines and classifiers that a process keeps, the least recently used dropped first
_MEMO_SIZE = 16


def parse_number(kind, value):
    """kind(value) for int or float; a ValueError where int() or float() would take other
    scripts' digits, '_' groups or a bool, or int() would truncate a non-string float."""
    text = value if isinstance(value, str) else ""
    if (type(value) is bool or not text.isascii() or "_" in text
            or (kind is int and type(value) not in (int, str))):
        raise ValueError(f"expected an ASCII {kind.__name__}, got {value!r}")
    return kind(value)


class RunConfig(Frozen):
    _fields = ("mode", "shots_z", "shots_x", "noise", "seed", "l", "c", "bp_iters", "osd_depth",
               "prior_mode")

    def __init__(self, mode: str = "logical", shots_z: int = 1000, shots_x: int = 1000,
                 noise: ss.NoiseModel = ss.NoiseModel(), seed: int = 0, l: int = 3,
                 c: int = 1, bp_iters: int = BP_ITERS, osd_depth: int = OSD_DEPTH,
                 prior_mode: str = "marginal"):
        vars(self).update(mode=mode, shots_z=shots_z, shots_x=shots_x, noise=noise, seed=seed,
                          l=l, c=c, bp_iters=bp_iters, osd_depth=osd_depth,
                          prior_mode=prior_mode)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.shots_z < 0 or self.shots_x < 0:
            raise ValueError("shot counts must be >= 0")
        if not 0 <= self.seed < ss.SEED_LIMIT:
            # the sampler keeps 48 bits of a seed: wider ones would alias
            raise ValueError(f"seed must be in [0, 2**48), got {self.seed}")
        for name in ("bp_iters", "osd_depth"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.prior_mode != "marginal":
            raise ValueError("prior_mode must be 'marginal'")

    def to_dict(self) -> dict:
        return {
            "mode": self.mode, "shots_z": self.shots_z, "shots_x": self.shots_x,
            "p1": self.noise.p1, "p2": self.noise.p2, "p_spam": self.noise.p_spam,
            "seed": self.seed, "l": self.l, "c": self.c,
            "bp_iters": self.bp_iters, "osd_depth": self.osd_depth,
            "prior_mode": self.prior_mode,
        }

    def digest(self) -> str:
        """Hash of every field: the results depend on each of them."""
        # imported here: hashlib loads OpenSSL, about 3.6 MB that only a
        # run's summary needs and decoding or fault analysis does not
        import hashlib

        return hashlib.sha256(json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Inverse of to_dict; missing keys take the defaults, unknown keys are an error."""
        fields = cls().to_dict()
        reject_unknown_keys(d, fields, "config")
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


class FidelityBounds(NamedTuple):
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


class BasisStats(NamedTuple):
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


class RunSummary(NamedTuple):
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
        """Inverse of to_json; a config_hash other than the config's digest is an error."""
        reject_unknown_keys(obj, ("config", "config_hash", "z", "x", "fidelity"), "summary")
        config = RunConfig.from_dict(obj["config"])
        if obj["config_hash"] != config.digest():
            raise ValueError(f"config_hash {obj['config_hash']!r} is not its config's digest")
        return cls(config, _basis_stats(obj, "z"), _basis_stats(obj, "x"))


def _basis_stats(obj: dict, basis: str) -> BasisStats:
    """One basis's counts of a summary file: ints with 0 <= mismatches <= accepted <= shots."""
    reject_unknown_keys(obj[basis], ("shots", "accepted", "mismatches", "p", "sigma"),
                        f"summary {basis}")
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
    is 0 in X.  Shots come as packed record words, as the sampler gives
    them, and their key words are read through byte tables of the key,
    built once per classifier (see _key_words).

    A classifier's verdicts do not depend on what it judged before: the
    decoded table only saves repeating a deterministic decode.  So runs and
    the ledger share one per configuration and basis (see _classifier),
    and a syndrome is decoded once per process.

    The key word of a noiseless record has acceptance 0, syndrome 0 and
    raw bits in the target coset, so XORing it into a word changes no
    verdict: shots can be classified by their absolute records or by their
    flips from any noiseless record, such as Circuit.fault_record_words.

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
        # row t: the key bits that record tag t enters, as key words
        self.key_tables = ss.byte_tables(ss.transpose_words(key.data, key.cols))

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

    def _key_words(self, records: np.ndarray) -> np.ndarray:
        """The key word of each shot in records, packed record words (shots x
        words, as stab_sim.sample_words gives them), as packed key words
        (shots x words).

        The key is linear, so a shot's key word is the XOR over its record
        bytes of each byte's key word, looked up in the classifier's byte
        tables: one gather per record byte, exact at any width.
        """
        out = np.zeros((len(records), self.key_tables.shape[2]), dtype="<u8")
        return ss.fold_bytes(self.key_tables, records.view(np.uint8).T, out)

    def classify(self, records: np.ndarray) -> list:
        """The verdict on each shot in records (packed record words, one row
        per shot), in row order; each distinct key word is judged once."""
        words = ss.word_ints(self._key_words(records))
        judged = {w: self.verdict(w) for w in set(words)}
        return [judged[w] for w in words]

    def tally(self, records: np.ndarray) -> Counter:
        """How many shots in records get each verdict, which is Counter(classify(records)):
        the packed words are counted, and each distinct word is judged once for all its shots."""
        key_words = self._key_words(records)
        # keys of one word sort as plain integers, many times faster than as rows
        words, counts = (np.unique(key_words.ravel(), return_counts=True) if key_words.shape[1] == 1
                         else np.unique(key_words, axis=0, return_counts=True))
        tally = Counter()
        for word, n in zip(ss.word_ints(words.reshape(len(words), key_words.shape[1])),
                           counts.tolist()):
            tally[self.verdict(word)] += n
        return tally


# --- running ------------------------------------------------------------------


def build_pipeline(cfg: RunConfig, basis: str):
    """The circuit of cfg's mode in one readout basis and its FrameRecipe
    (None in the physical mode).

    Built once per process and shared by every caller, so the record map
    that the circuit caches (stab_sim.Tableau) is built once as well.
    """
    return _pipeline(cfg.mode, cfg.l, cfg.c, basis)


@lru_cache(maxsize=_MEMO_SIZE)
def _pipeline(mode: str, l: int, c: int, basis: str):
    if mode == "physical":
        return pr.physical_ghz_circuit(basis), None
    if mode == "generalized":
        return pr.generalized_ghz_circuit(build_generalized(l, c), basis)
    return pr.logical_ghz_circuit(build_25_4_3(), basis)


def _classifier(cfg: RunConfig, basis: str) -> _Classifier:
    """The process's classifier of cfg's pipeline in one basis.

    A verdict depends on neither the seed nor the shot counts, so
    configurations that differ only there share one classifier, its
    decoder and the raw-bit flips of every syndrome it has decoded.
    """
    return _shared_classifier(cfg.replace(seed=0, shots_z=0, shots_x=0), basis)


@lru_cache(maxsize=_MEMO_SIZE)
def _shared_classifier(cfg: RunConfig, basis: str) -> _Classifier:
    return _Classifier(cfg, basis, *build_pipeline(cfg, basis))


def _basis_seed(cfg: RunConfig, basis: str):
    return (cfg.seed, 0 if basis == "z" else 1)


@lru_cache(maxsize=_MEMO_SIZE)
def _archive_head(basis: str, tags: tuple[str, ...]):
    """The row template of one basis's archive, built once per pipeline: the
    encoded row up to its shot number, its tags in sorted order and each
    outcome digit "0", and the offset of each tag's digit in it, in record
    order, both read-only."""
    text, offsets = f'{{"basis": {json.dumps(basis)}, "outcomes": {{', [0] * len(tags)
    for j, t in enumerate(sorted(range(len(tags)), key=tags.__getitem__)):
        text += (", " if j else "") + json.dumps(tags[t]) + ": "
        offsets[t] = len(text)
        text += "0"
    text += '}, "shot": '
    offsets = np.array(offsets, dtype=np.intp)
    offsets.flags.writeable = False
    return np.frombuffer(text.encode(), dtype=np.uint8), offsets


def _archive_rows(basis: str, tags: tuple[str, ...], bits: np.ndarray) -> np.ndarray:
    """The shots.jsonl rows of the rows of bits (shots x tags), shot i in row i.

    Returns the encoded rows as one uint8 buffer, which a binary file writes
    as it is.  Each row is json.dumps({"basis", "outcomes", "shot"},
    sort_keys=True) byte for byte, encoded.  The rows share one template, the
    ASCII-escaped keys in sorted order (_archive_head, built once per basis
    and tags), and differ only in one digit per tag, at the tag's fixed
    offset, and in the trailing shot number.  Shots whose numbers have the
    same digit count (0-9, 10-99, ...) have rows of one width, so each such
    group is built whole as a uint8 array, in place in one buffer.
    """
    head, offsets = _archive_head(basis, tags)
    shots = len(bits)
    # (lo, hi, row width): shots lo .. hi-1 are the d-digit numbers
    groups = [(0 if d == 1 else 10 ** (d - 1), min(10 ** d, shots), len(head) + d + 2)
              for d in range(1, len(str(shots)) + 1)]
    out = np.empty(sum((hi - lo) * width for lo, hi, width in groups), dtype=np.uint8)
    at = 0
    for lo, hi, width in groups:
        rows = out[at:at + (hi - lo) * width].reshape(hi - lo, width)
        at += rows.size
        rows[:, :len(head)] = head
        rows[:, offsets] = bits[lo:hi].view(np.uint8) + ord("0")
        shot = np.arange(lo, hi)
        for k in range(width - len(head) - 2):
            rows[:, -3 - k] = shot // 10 ** k % 10 + ord("0")
        rows[:, -2:] = np.frombuffer(b"}\n", dtype=np.uint8)
    return out


def _run_basis(cfg: RunConfig, basis: str, shots: int, keep_records: bool):
    """One basis of a run: its counts, and its shots as packed record words
    (stab_sim.sample_words) when keep_records is set.  The shots stay packed
    from the sampler to the counts; only the archive unpacks them."""
    circ, _ = build_pipeline(cfg, basis)
    records = ss.sample_words(circ, cfg.noise, _basis_seed(cfg, basis), shots)
    tally = _classifier(cfg, basis).tally(records)
    stats = BasisStats(shots=shots, accepted=shots - tally[None], mismatches=tally[True])
    return stats, records if keep_records else None


def run(config: RunConfig, out_dir: str | None = None) -> RunSummary:
    """Simulate, postselect, decode, and aggregate one experiment.

    Each basis is sampled and classified in one call.  With out_dir set,
    writes <out_dir>/<mode>/summary.json and a shots.jsonl archive headed by
    the config hash; both depend only on the config.  The archive is written
    in bytes, one basis at a time, once both bases have run.

    A rerun into the same out_dir removes both files and creates them anew,
    so a link to an old file keeps the old bytes and is not written through.
    (A file truncated in place is flushed when it is closed, on ext4 by
    default; a new file's blocks are allocated lazily.)  The archive is
    written before the summary, so a summary.json only ever sits next to a
    complete archive of its own config.
    """
    (z, z_records), (x, x_records) = (
        _run_basis(config, basis, shots, out_dir is not None)
        for basis, shots in (("z", config.shots_z), ("x", config.shots_x)))
    summary = RunSummary(config, z, x)
    if out_dir is not None:
        mode_dir = os.path.join(out_dir, config.mode)
        os.makedirs(mode_dir, exist_ok=True)
        summary_path, shots_path = (os.path.join(mode_dir, name)
                                    for name in ("summary.json", "shots.jsonl"))
        for path in (summary_path, shots_path):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        doc = summary.to_json()
        with open(shots_path, "wb") as fh:
            fh.write(json.dumps({"config_hash": doc["config_hash"],
                                 "config": doc["config"]}).encode() + b"\n")
            for basis, records in (("z", z_records), ("x", x_records)):
                tags = build_pipeline(config, basis)[0].tags
                fh.write(_archive_rows(basis, tags, ss.unpack_words(records, len(tags))))
        with open(summary_path, "w") as fh:
            fh.write(json.dumps(doc, indent=1, sort_keys=True))
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


class LedgerEntry(NamedTuple):
    instruction_index: int
    kind: str
    pauli: str
    outcome: str          # "correct" | "rejected" | "nonft-set" | "extra"


# a fault's ledger outcome, as a one-field tuple, by (verdict, xbar_0 flip)
_OUTCOMES = {(None, False): ("rejected",), (None, True): ("rejected",),
             (False, False): ("correct",), (False, True): ("correct",),
             (True, False): ("extra",), (True, True): ("nonft-set",)}


class LedgerReport(NamedTuple):
    entries: list

    def count(self, outcome: str) -> int:
        return sum(1 for e in self.entries if e.outcome == outcome)


def fault_tolerance_ledger(basis: str) -> LedgerReport:
    """Classify every single fault in the logical pipeline at the paper rates.

    Each fault decodes correctly, is rejected by the triple logical-X
    postselection, or corrupts the output.  An accepted fault flips all
    three gadget outcomes or none; a corrupting one that flips them passes
    postselection with the wrong logical-X outcome ("nonft-set", the
    unprotected measurement's known channel); any other is "extra".

    The faults are the circuit's cases (Circuit.fault_cases), and each
    one's packed record flips (Circuit.fault_record_words) are a shot: the
    classifier judges them as it judges a run's.  A fault's outcome is a
    function of its verdict and its xbar_0 flip (_OUTCOMES).
    """
    cfg = RunConfig(mode="logical", noise=ss.NoiseModel(3e-5, 2e-3, 2e-3))
    circ, recipe = build_pipeline(cfg, basis)
    records, tags = circ.fault_record_words, circ.tags
    verdicts = _classifier(cfg, basis).classify(records)
    # each fault's xbar_0 flip, read from its packed record words
    t = tags.index(recipe.xbar_tags[0])
    flips = ((records[:, t >> 6] >> np.uint64(t & 63)) & np.uint64(1)).tolist()
    # case + (outcome,) is an entry's fields; LedgerEntry._make(fields) is
    # tuple.__new__(LedgerEntry, fields), called here without a Python frame per entry
    fields = map(operator.add, circ.fault_cases,
                 map(_OUTCOMES.__getitem__, zip(verdicts, flips)))
    return LedgerReport(list(map(tuple.__new__, repeat(LedgerEntry), fields)))
