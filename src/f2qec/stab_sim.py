"""Stabilizer circuit simulation.

Two engines run the same Circuit: an exact tableau simulator (the
correctness oracle) and a fast Pauli-frame sampler that XORs propagated
faults onto a fixed noiseless reference run.  An INJECT is a Pauli gate in
both: the reference run applies it, and it changes no frame.  Noise is a
three-rate model: depolarizing after one- and two-qubit gates, independent
flips on preparations and measurement outcomes.

The sampler propagates the frames of many shots at once, one bool column
per shot, and draws its noise and the random frames that preparations
and measurements leave in seeded blocks of SHOT_BLOCK shots.  Single-fault
enumeration runs the same kernel without either, one column per fault case,
and returns one table: every case's location, its outcome bits as one bool
array (record tags x cases) and its residual frames as packed ints.
FaultCase objects, with {tag: bit} records, are a per-case view of it.

Text IR (round-trip exact), one instruction per line after a header:

    QUBITS 5
    PREPX 0
    CNOT 0 1
    INJECT Z 2
    MEASZ 1 m0
    RELABEL (0 4)(1 3)

RELABEL uses cycle notation and relabels qubit q to p(q); it is gate- and
noise-free.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .f2linalg import apply_permutation, inverse_permutation

_PAULIS_1Q = ("X", "Y", "Z")
# two-qubit Paulis indexed 1..15 as (first, second) with 0=I,1=X,2=Y,3=Z
_P1Q = ("I", "X", "Y", "Z")
# the number of qubits each op acts on
_ARITY = {"PREPZ": 1, "PREPX": 1, "H": 1, "CNOT": 2, "MEASZ": 1, "MEASX": 1,
          "INJECT": 1, "RELABEL": 0}
# the one operand field besides the qubits that an op takes, if any
_OPERAND = {"MEASZ": "tag", "MEASX": "tag", "INJECT": "pauli", "RELABEL": "perm"}


def _is_index(tok: str) -> bool:
    # int() and str.isdecimal() also take other scripts' digits, which do not round-trip
    return tok.isascii() and tok.isdecimal()


@dataclass(frozen=True)
class Instruction:
    op: str
    qubits: tuple[int, ...] = ()
    tag: str = ""
    pauli: str = ""
    perm: tuple[int, ...] = ()

    def to_text(self) -> str:
        if self.op == "RELABEL":
            return "RELABEL " + cycles_to_text(self.perm)
        # only the op's own operand is set: a Pauli goes before the qubits, a tag after
        return " ".join(w for w in (self.op, self.pauli, *map(str, self.qubits), self.tag) if w)


def prepz(q): return Instruction("PREPZ", (q,))
def prepx(q): return Instruction("PREPX", (q,))
def h(q): return Instruction("H", (q,))
def cnot(c, t): return Instruction("CNOT", (c, t))
def measz(q, tag): return Instruction("MEASZ", (q,), tag=tag)
def measx(q, tag): return Instruction("MEASX", (q,), tag=tag)
def inject(pauli, q): return Instruction("INJECT", (q,), pauli=pauli)
def relabel(perm): return Instruction("RELABEL", perm=tuple(perm))


def cycles_to_text(perm: tuple[int, ...]) -> str:
    """Cycle notation of perm without fixed points; the identity is '()'."""
    seen = set()
    parts = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            seen.add(start)
            continue
        cyc = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        parts.append("(" + " ".join(str(q) for q in cyc) + ")")
    return "".join(parts) if parts else "()"


_CYCLE = re.compile(r"\(([^()]*)\)")


def cycles_from_text(text: str, n: int) -> tuple[int, ...]:
    """Permutation of range(n) from cycle notation such as '(0 4)(1 3)'.

    '()' and the empty string are the identity.  Raises ValueError on
    unbalanced parentheses, stray text, tokens other than ASCII decimal
    integers, qubits outside range(n) and qubits repeated across or within
    cycles.
    """
    body = text.strip()
    if _CYCLE.sub("", body).strip():
        raise ValueError(f"bad cycle notation: {text!r}")
    perm = list(range(n))
    seen = set()
    for chunk in _CYCLE.findall(body):
        if not all(map(_is_index, chunk.split())):
            raise ValueError(f"qubits must be non-negative ASCII integers: {text!r}")
        cyc = [int(tok) for tok in chunk.split()]
        for i, q in enumerate(cyc):
            if not 0 <= q < n:
                raise ValueError(f"qubit {q} out of range for {n} qubits")
            if q in seen:
                raise ValueError(f"qubit {q} repeated in cycle notation")
            seen.add(q)
            perm[q] = cyc[(i + 1) % len(cyc)]
    return tuple(perm)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    instructions: tuple[Instruction, ...]

    def __post_init__(self):
        tags = set()
        for ins in self.instructions:
            if ins.op not in _ARITY:
                raise ValueError(f"unknown op {ins.op!r}")
            if len(ins.qubits) != _ARITY[ins.op]:
                raise ValueError(f"{ins.op} acts on {_ARITY[ins.op]} qubit(s), got {len(ins.qubits)}")
            for name in ("tag", "pauli", "perm"):
                if getattr(ins, name) and _OPERAND.get(ins.op) != name:
                    raise ValueError(f"{ins.op} takes no {name}, got {getattr(ins, name)!r}")
            for q in ins.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"qubit {q} out of range")
            if ins.op in ("MEASZ", "MEASX"):
                if ins.tag.split() != [ins.tag]:
                    raise ValueError(f"measurement tag must be one word, got {ins.tag!r}")
                if ins.tag in tags:
                    raise ValueError(f"duplicate measurement tag {ins.tag}")
                tags.add(ins.tag)
            if ins.op == "RELABEL" and sorted(ins.perm) != list(range(self.n_qubits)):
                raise ValueError("relabel is not a permutation of all qubits")
            if ins.op == "CNOT" and ins.qubits[0] == ins.qubits[1]:
                raise ValueError("CNOT needs distinct qubits")
            if ins.op == "INJECT" and ins.pauli not in _PAULIS_1Q:
                raise ValueError(f"INJECT Pauli must be X, Y or Z, got {ins.pauli!r}")

    def tags(self) -> tuple[str, ...]:
        return tuple(i.tag for i in self.instructions if i.op in ("MEASZ", "MEASX"))

    def two_qubit_gate_count(self) -> int:
        return sum(1 for i in self.instructions if i.op == "CNOT")

    def to_text(self) -> str:
        lines = [f"QUBITS {self.n_qubits}"]
        lines.extend(ins.to_text() for ins in self.instructions)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
        header = lines[0].split() if lines else []
        if len(header) != 2 or header[0] != "QUBITS" or not _is_index(header[1]):
            raise ValueError("circuit text must start with a 'QUBITS <count>' header")
        n = int(header[1])
        out = []
        for ln in lines[1:]:
            op, *args = ln.split()
            try:
                if op == "RELABEL":
                    out.append(relabel(cycles_from_text(" ".join(args), n)))
                    continue
                if op not in _ARITY:
                    raise ValueError(f"unknown instruction {op!r}")
                operand = _OPERAND.get(op)
                want = _ARITY[op] + (operand is not None)
                if len(args) != want:
                    raise ValueError(f"{op} takes {want} operand(s), got {len(args)}")
                # a Pauli comes before the qubits, a tag after them
                fields = {operand: args.pop(0 if operand == "pauli" else -1)} if operand else {}
                if not all(map(_is_index, args)):
                    raise ValueError("qubits must be non-negative ASCII integers")
            except ValueError as e:
                raise ValueError(f"line {ln!r}: {e}") from None
            out.append(Instruction(op, tuple(map(int, args)), **fields))
        return cls(n, tuple(out))


@dataclass(frozen=True)
class NoiseModel:
    """Uniform depolarizing after gates plus preparation/measurement flips.

    Three aggregate rates only; there is no idle/memory term, and native
    X-basis preparation and readout each count as a single flip event.
    """

    p1: float = 0.0
    p2: float = 0.0
    p_spam: float = 0.0

    def __post_init__(self):
        for name in ("p1", "p2", "p_spam"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a probability, got {v}")

    @classmethod
    def zero(cls) -> "NoiseModel":
        return cls(0.0, 0.0, 0.0)


# --- exact tableau engine -------------------------------------------------


class Tableau:
    """Aaronson-Gottesman tableau over packed integer rows."""

    def __init__(self, n: int):
        self.n = n
        self.mask = (1 << n) - 1
        self.xs = [0] * (2 * n)
        self.zs = [0] * (2 * n)
        self.rs = [0] * (2 * n)
        for i in range(n):
            self.xs[i] = 1 << i          # destabilizer X_i
            self.zs[n + i] = 1 << i      # stabilizer Z_i

    def _g_sum(self, x1, z1, x2, z2) -> int:
        mask = self.mask
        y1 = x1 & z1
        xo1 = x1 & ~z1 & mask
        zo1 = z1 & ~x1 & mask
        nx2 = ~x2 & mask
        nz2 = ~z2 & mask
        plus = (y1 & z2 & nx2).bit_count() + (xo1 & x2 & z2).bit_count() + (zo1 & x2 & nz2).bit_count()
        minus = (y1 & x2 & nz2).bit_count() + (xo1 & nx2 & z2).bit_count() + (zo1 & x2 & z2).bit_count()
        return plus - minus

    def _rowsum(self, h: int, i: int):
        g = self._g_sum(self.xs[i], self.zs[i], self.xs[h], self.zs[h])
        self.rs[h] = (self.rs[h] + self.rs[i] + g) % 4
        self.xs[h] ^= self.xs[i]
        self.zs[h] ^= self.zs[i]

    def h_gate(self, q: int):
        b = 1 << q
        for i in range(2 * self.n):
            xb = self.xs[i] & b
            zb = self.zs[i] & b
            if xb and zb:
                self.rs[i] = (self.rs[i] + 2) % 4
            if bool(xb) != bool(zb):
                self.xs[i] ^= b
                self.zs[i] ^= b

    def cnot(self, c: int, t: int):
        bc, bt = 1 << c, 1 << t
        for i in range(2 * self.n):
            xc = (self.xs[i] >> c) & 1
            zt = (self.zs[i] >> t) & 1
            if xc & zt:
                xt = (self.xs[i] >> t) & 1
                zc = (self.zs[i] >> c) & 1
                if xt == zc:
                    self.rs[i] = (self.rs[i] + 2) % 4
            if xc:
                self.xs[i] ^= bt
            if zt:
                self.zs[i] ^= bc

    def pauli(self, kind: str, q: int):
        b = 1 << q
        for i in range(2 * self.n):
            anti = False
            if kind == "X":
                anti = bool(self.zs[i] & b)
            elif kind == "Z":
                anti = bool(self.xs[i] & b)
            else:  # Y
                anti = bool(self.xs[i] & b) != bool(self.zs[i] & b)
            if anti:
                self.rs[i] = (self.rs[i] + 2) % 4

    def measure_z(self, q: int, rng) -> int:
        n = self.n
        b = 1 << q
        p = None
        for i in range(n, 2 * n):
            if self.xs[i] & b:
                p = i
                break
        if p is not None:
            outcome = int(rng.integers(0, 2))
            for i in range(2 * n):
                if i != p and (self.xs[i] & b):
                    self._rowsum(i, p)
            self.xs[p - n] = self.xs[p]
            self.zs[p - n] = self.zs[p]
            self.rs[p - n] = self.rs[p]
            self.xs[p] = 0
            self.zs[p] = b
            self.rs[p] = 2 * outcome
            return outcome
        # deterministic outcome: accumulate into a scratch row
        sx, sz, sr = 0, 0, 0
        for i in range(n):
            if self.xs[i] & b:
                g = self._g_sum(self.xs[i + n], self.zs[i + n], sx, sz)
                sr = (sr + self.rs[i + n] + g) % 4
                sx ^= self.xs[i + n]
                sz ^= self.zs[i + n]
        return (sr >> 1) & 1

    def measure_x(self, q: int, rng) -> int:
        self.h_gate(q)
        out = self.measure_z(q, rng)
        self.h_gate(q)
        return out

    def prep_z(self, q: int, rng):
        if self.measure_z(q, rng):
            self.pauli("X", q)

    def prep_x(self, q: int, rng):
        if self.measure_x(q, rng):
            self.pauli("Z", q)

    def relabel(self, perm: Sequence[int]):
        for rows in (self.xs, self.zs):
            for i in range(2 * self.n):
                rows[i] = apply_permutation(rows[i], perm)


def simulate_tableau(circuit: Circuit, seed) -> dict[str, int]:
    """Exact single-shot stabilizer simulation: {tag: outcome}, from a seeded outcome stream."""
    rng = np.random.default_rng(seed)
    tab = Tableau(circuit.n_qubits)
    outcomes = {}
    for ins in circuit.instructions:
        op = ins.op
        if op == "PREPZ":
            tab.prep_z(ins.qubits[0], rng)
        elif op == "PREPX":
            tab.prep_x(ins.qubits[0], rng)
        elif op == "H":
            tab.h_gate(ins.qubits[0])
        elif op == "CNOT":
            tab.cnot(ins.qubits[0], ins.qubits[1])
        elif op == "MEASZ":
            outcomes[ins.tag] = tab.measure_z(ins.qubits[0], rng)
        elif op == "MEASX":
            outcomes[ins.tag] = tab.measure_x(ins.qubits[0], rng)
        elif op == "INJECT":
            tab.pauli(ins.pauli, ins.qubits[0])
        elif op == "RELABEL":
            tab.relabel(ins.perm)
        else:
            raise ValueError(f"unknown op {op}")
    return outcomes


def noisy_expansion(circuit: Circuit, nm: NoiseModel, rng) -> Circuit:
    """Sample one noisy realization as an explicit circuit with injections.

    Depolarizing faults become INJECT instructions after the gate;
    preparation flips become injections after the preparation; a
    measurement flip is an injection of the anticommuting Pauli just
    before the measurement (equivalent for terminal or reset qubits).
    """
    out = []
    for ins in circuit.instructions:
        if ins.op in ("MEASZ", "MEASX"):
            if rng.random() < nm.p_spam:
                out.append(inject("X" if ins.op == "MEASZ" else "Z", ins.qubits[0]))
            out.append(ins)
            continue
        out.append(ins)
        if ins.op == "PREPZ":
            if rng.random() < nm.p_spam:
                out.append(inject("X", ins.qubits[0]))
        elif ins.op == "PREPX":
            if rng.random() < nm.p_spam:
                out.append(inject("Z", ins.qubits[0]))
        elif ins.op == "H":
            if rng.random() < nm.p1:
                out.append(inject(_PAULIS_1Q[int(rng.integers(0, 3))], ins.qubits[0]))
        elif ins.op == "CNOT":
            if rng.random() < nm.p2:
                idx = int(rng.integers(1, 16))
                pc, pt = _P1Q[idx >> 2], _P1Q[idx & 3]
                if pc != "I":
                    out.append(inject(pc, ins.qubits[0]))
                if pt != "I":
                    out.append(inject(pt, ins.qubits[1]))
    return Circuit(circuit.n_qubits, tuple(out))


# --- Pauli-frame sampler ---------------------------------------------------
#
# Frames of many shots propagate at once, one bool column per shot (the
# Stim technique: Gidney, Quantum 5, 497 (2021), arXiv:2103.02202).  Each
# qubit's X and Z frame is a row over the columns: a CNOT is two row XORs,
# H swaps a qubit's rows, a preparation overwrites them, a measurement
# reads one into the record and RELABEL permutes them.  An INJECT is a
# Pauli gate, which the noiseless reference run applies; it leaves every
# frame as it is.  The kernel walks circuit.instructions itself, and every
# fault, be it sampled noise or an enumerated single fault, is a flip mask
# over the columns in the row of its instruction, so sampling and
# enumeration run the same kernel.
#
# A Z-basis preparation or measurement leaves its qubit in a Z eigenstate,
# where a Z frame is a stabilizer and changes nothing; the sampler sets
# that frame to a uniformly random bit per shot, which makes a later X
# measurement of the qubit random, as it is in the tableau engine.  X-basis
# ones do the same with the X frame.  These bits ride in the flip-mask slot
# that the op's own fault does not use.

# Shots per seeded block: shot s belongs to block s // SHOT_BLOCK, whose
# noise comes from its own generator, so any shot range, however split
# across workers, reproduces the same shots.
SHOT_BLOCK = 1024

# A fault is a Pauli on an op's (first, second) qubit coded 4 * first +
# second, with 0=I, 1=X, 2=Y, 3=Z as in _P1Q.  _FAULT_FLIPS[code] holds its
# (x first, z first, x second, z second) frame flips.
_FAULT_FLIPS = np.array([[p in (1, 2), p in (2, 3), q in (1, 2), q in (2, 3)]
                         for p in range(4) for q in range(4)], dtype=bool)

# The flip-mask slot (0 = X, 1 = Z frame) that each collapsing op leaves random.
_COLLAPSE_SLOT = {"PREPZ": 1, "MEASZ": 1, "PREPX": 0, "MEASX": 0}


# (kind, ((label, Pauli code), ...)) of the single faults at each op.  Gate
# and preparation faults act after the op.  A measurement fault flips the
# outcome only: it is coded as the Pauli that anticommutes with the
# measured observable, and leaves no trace in the residual frame.
_FAULTS = {
    "H": ("gate1", tuple((p, 4 * i) for i, p in enumerate(_P1Q) if i)),
    "CNOT": ("gate2", tuple((_P1Q[c >> 2] + _P1Q[c & 3], c) for c in range(1, 16))),
    "PREPZ": ("prep", (("X", 4),)),
    "PREPX": ("prep", (("Z", 12),)),
    "MEASZ": ("meas", (("flip", 4),)),
    "MEASX": ("meas", (("flip", 12),)),
}


class _Site(NamedTuple):
    """A fault location: its instruction index, kind and faults."""

    index: int
    kind: str
    faults: tuple   # ((label, Pauli code), ...)


def _sites(circuit: Circuit) -> list[_Site]:
    return [_Site(k, *_FAULTS[ins.op]) for k, ins in enumerate(circuit.instructions)
            if ins.op in _FAULTS]


def _propagate(circuit: Circuit, flips: np.ndarray):
    """Propagate Pauli frames through circuit, one column per shot or fault case.

    flips[k] (4 x columns) is applied at instruction k as _FAULT_FLIPS
    describes; at a measurement, the measured frame's slot flips the
    outcome and the other slot flips the other frame.  An INJECT is a
    Pauli gate, which the reference run applies and which changes no
    frame.  Returns the measurement flips (one row per record tag) and the
    residual X and Z frames (one row per qubit).
    """
    cols = flips.shape[-1]
    x = np.zeros((circuit.n_qubits, cols), dtype=bool)
    z = np.zeros_like(x)
    meas = np.empty((len(circuit.tags()), cols), dtype=bool)
    row = 0
    for ins, f in zip(circuit.instructions, flips):
        op, qs = ins.op, ins.qubits
        if op == "CNOT":
            a, b = qs
            x[b] ^= x[a]
            z[a] ^= z[b]
            x[a] ^= f[0]
            z[a] ^= f[1]
            x[b] ^= f[2]
            z[b] ^= f[3]
        elif op == "MEASZ":
            np.bitwise_xor(x[qs[0]], f[0], out=meas[row])
            z[qs[0]] ^= f[1]
            row += 1
        elif op == "MEASX":
            np.bitwise_xor(z[qs[0]], f[1], out=meas[row])
            x[qs[0]] ^= f[0]
            row += 1
        elif op in ("PREPZ", "PREPX"):
            x[qs[0]] = f[0]
            z[qs[0]] = f[1]
        elif op == "H":
            a = qs[0]
            x[a], z[a] = z[a] ^ f[0], x[a] ^ f[1]
        elif op == "RELABEL":
            inv = inverse_permutation(ins.perm)
            x = x[inv]
            z = z[inv]
    return meas, x, z


def outcome_dicts(tags: tuple[str, ...], bits: np.ndarray) -> list[dict[str, int]]:
    """One {tag: bit} dict per column of a (tags x columns) outcome array."""
    return [dict(zip(tags, col)) for col in bits.T.astype(np.uint8).tolist()]


def _outcomes(circuit: Circuit, meas: np.ndarray, ref: dict[str, int]) -> np.ndarray:
    """Outcome bits, one column per shot: the reference XOR the measurement flips."""
    return meas ^ np.array([ref[t] for t in circuit.tags()], dtype=bool)[:, None]


def _column_ints(rows: np.ndarray) -> list[int]:
    """Each column of a (qubits x columns) bool array as an int, bit q = row q."""
    packed = np.packbits(rows, axis=0, bitorder="little")
    # the bytes of each column padded to 64-bit words: words[k] holds word k of every column
    padded = np.zeros((rows.shape[1], -(-packed.shape[0] // 8) * 8), dtype=np.uint8)
    padded[:, :packed.shape[0]] = packed.T
    words = padded.view("<u8").T.tolist()
    ints = words[0] if words else [0] * rows.shape[1]
    for k, word in enumerate(words[1:], 1):
        ints = [a | b << (64 * k) for a, b in zip(ints, word)]
    return ints


def reference_record(circuit: Circuit, master_seed) -> dict[str, int]:
    """Noiseless tableau run of the circuit as written, fixing the outcome frame for the sampler.

    An INJECT is a Pauli gate here as in any tableau run, so its effect is
    in the reference record and the frame kernel leaves it out.
    """
    return simulate_tableau(circuit, seed=list(_seed_key(master_seed)) + [1])


def _seed_key(seed) -> tuple[int, ...]:
    if isinstance(seed, int):
        return (seed & 0xFFFFFFFFFFFF,)
    return tuple(int(s) & 0xFFFFFFFFFFFF for s in seed)


def _noise_table(circuit: Circuit, nm: NoiseModel) -> list[tuple]:
    """(rate, instruction indices, fault codes) of each kind of fault location with nonzero rate."""
    rate = {"gate1": nm.p1, "gate2": nm.p2, "prep": nm.p_spam, "meas": nm.p_spam}
    table = []
    all_sites = _sites(circuit)
    for kind, p in rate.items():
        sites = [s for s in all_sites if s.kind == kind]
        if sites and p > 0.0:
            table.append((p, np.array([s.index for s in sites]),
                          np.array([[code for _, code in s.faults] for s in sites])))
    return table


def _noise_flips(circuit: Circuit, table: list[tuple], rng) -> np.ndarray:
    """Flip masks of one block of SHOT_BLOCK shots.

    Each fault location fails with its kind's rate, independently per shot,
    and a failing location draws one of its single faults uniformly: one
    of 3 Paulis after H, one of 15 Pauli pairs after a CNOT, the flip of a
    preparation or of a measurement outcome.  Only the failing (location,
    shot) cells are drawn: their number is binomial and they are a
    uniform subset, which is the law of an independent flip per cell.
    """
    flips = np.zeros((len(circuit.instructions), 4, SHOT_BLOCK), dtype=bool)
    for p, pos, codes in table:
        cells = codes.shape[0] * SHOT_BLOCK
        site, shot = np.divmod(rng.choice(cells, rng.binomial(cells, p), replace=False),
                               SHOT_BLOCK)
        pick = codes[site, rng.integers(codes.shape[1], size=len(site))]
        flips[pos[site], :, shot] = _FAULT_FLIPS[pick]
    return flips


def sample_outcomes(circuit: Circuit, nm: NoiseModel, seed, shots: int,
                    start: int = 0) -> np.ndarray:
    """Outcome bits of shots start .. start + shots - 1 by frame propagation.

    Returns a bool array with one row per record tag, in circuit.tags()
    order, and one column per shot.  The outcomes are the reference run's
    XOR the propagated faults and random frames.  The noise of each block
    of SHOT_BLOCK shots, then its random frame bits, come from the block's
    own generator, seeded by (seed, block); a range that starts or ends
    inside a block samples the whole block and keeps its part.  So a shot's
    outcomes depend only on (circuit, noise, seed, shot index), and shot
    sets can be partitioned across workers in any way.
    """
    meas = np.empty((len(circuit.tags()), max(shots, 0)), dtype=bool)
    if shots <= 0:
        return meas
    table = _noise_table(circuit, nm)
    # rows: the instruction indices and _COLLAPSE_SLOT slots of the collapsing ops
    pos, slot = np.array([(k, _COLLAPSE_SLOT[ins.op]) for k, ins in enumerate(circuit.instructions)
                          if ins.op in _COLLAPSE_SLOT], dtype=np.intp).reshape(-1, 2).T
    stop = start + shots
    for block in range(start // SHOT_BLOCK, (stop - 1) // SHOT_BLOCK + 1):
        rng = np.random.default_rng(list(_seed_key(seed)) + [0, block])
        flips = _noise_flips(circuit, table, rng)
        flips[pos, slot] ^= rng.integers(0, 2, (len(pos), SHOT_BLOCK), dtype=bool)
        base = block * SHOT_BLOCK
        lo, hi = max(start, base), min(stop, base + SHOT_BLOCK)
        meas[:, lo - start:hi - start] = _propagate(circuit, flips)[0][:, lo - base:hi - base]
    return _outcomes(circuit, meas, reference_record(circuit, seed))


def sample_pauli_frame(circuit: Circuit, nm: NoiseModel, seed, shots: int,
                       start: int = 0) -> list[dict[str, int]]:
    """The shots of sample_outcomes as {tag: bit} dicts, one per shot."""
    return outcome_dicts(circuit.tags(), sample_outcomes(circuit, nm, seed, shots, start))


# --- deterministic single-fault enumeration --------------------------------


@dataclass(frozen=True)
class FaultCase:
    """One injected fault, the shot record it produces, and the residual frame."""

    instruction_index: int
    kind: str          # "gate1", "gate2", "prep", "meas"
    pauli: str         # "X"/"Y"/"Z", two-letter pair, or "flip"
    record: dict = field(compare=False)   # {tag: bit}
    final_x: int = 0   # residual X-frame at circuit end
    final_z: int = 0


class SingleFaultTable(NamedTuple):
    """Every single fault of a circuit, one column per fault case.

    cases[c] is case c's (instruction_index, kind, pauli); records[:, c]
    its outcome bits, one row per record tag with the reference record
    XORed in; final_x[c] and final_z[c] its residual X and Z frames at
    the circuit end as ints, bit q = qubit q.
    """

    cases: list
    records: np.ndarray
    final_x: list
    final_z: list


def single_fault_table(circuit: Circuit) -> SingleFaultTable:
    """Every single-Pauli fault location, in deterministic order, as one table.

    Locations: after each 1q gate (3 Paulis), after each CNOT (15 Pauli
    pairs), after each preparation (the flip Pauli), and a flip on each
    measurement outcome.  Each case is a noiseless run with exactly that
    fault applied, sharing one reference frame, and one column of the
    frame kernel, which runs SHOT_BLOCK cases at a time.  The residual
    frames are relative to the circuit as written, so they leave out the
    Paulis of its INJECTs.
    """
    ref = reference_record(circuit, 0)
    faults = [(site, label, code) for site in _sites(circuit) for label, code in site.faults]
    records = np.empty((len(circuit.tags()), len(faults)), dtype=bool)
    final_x, final_z = [], []
    for lo in range(0, len(faults), SHOT_BLOCK):
        chunk = faults[lo:lo + SHOT_BLOCK]
        flips = np.zeros((len(circuit.instructions), 4, len(chunk)), dtype=bool)
        flips[[site.index for site, _, _ in chunk], :, np.arange(len(chunk))] = \
            _FAULT_FLIPS[[code for _, _, code in chunk]]
        meas, x, z = _propagate(circuit, flips)
        records[:, lo:lo + len(chunk)] = _outcomes(circuit, meas, ref)
        final_x += _column_ints(x)
        final_z += _column_ints(z)
    cases = [(site.index, site.kind, label) for site, label, _ in faults]
    return SingleFaultTable(cases, records, final_x, final_z)


def enumerate_single_faults(circuit: Circuit) -> list[FaultCase]:
    """The cases of single_fault_table(circuit) as FaultCase objects, with {tag: bit} records."""
    table = single_fault_table(circuit)
    return [FaultCase(index, kind, pauli, record, fx, fz)
            for (index, kind, pauli), record, fx, fz in zip(
                table.cases, outcome_dicts(circuit.tags(), table.records),
                table.final_x, table.final_z)]
