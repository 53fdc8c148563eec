"""Stabilizer circuit simulation.

Two engines run the same Circuit: an exact tableau simulator (the
correctness oracle) and a fast Pauli-frame sampler that XORs propagated
faults onto a fixed noiseless reference run.  An INJECT is a Pauli gate in
both: the reference run applies it, and it changes no frame.  Noise is a
three-rate model: depolarizing after one- and two-qubit gates, independent
flips on preparations and measurement outcomes.

The tableau runs once per circuit, with symbolic signs: it gives each
outcome as an affine GF(2) function of the circuit's random outcomes, and
the circuit keeps that record map.  A seeded run, the reference run
included, evaluates the map at the seed's draws, the same draws that a
tableau taking them as it ran would have made.

The frame kernel runs once per circuit too, one column per fault mechanism
(each single fault, each collapsing op's random frame bit and each qubit's
random initial Z frame), and the circuit keeps its fault map: one row per
mechanism, the outcome flips and residual frames that it causes alone.
The sampler XORs the map rows of the mechanisms it draws in seeded blocks
of SHOT_BLOCK shots; single-fault enumeration reads one table off the
single-fault rows, with no tableau run: each case's location, its outcome
flips as one bool array (record tags x cases) and its residual frames as
packed ints.  FaultCase objects are a per-case view, with absolute
{tag: bit} records: the reference record XOR the flips.

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
from functools import cached_property
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

    @cached_property
    def _record_map(self) -> tuple[int, dict[str, int]]:
        """The tableau's record map, built on first use as BitMatrix builds its transpose."""
        return _tableau_pass(self)

    @cached_property
    def _fault_map(self) -> np.ndarray:
        """The frame kernel run on the fault mechanisms, on first use: one row per
        mechanism, its record flips (one per tag), then its residual X and
        residual Z frames (one per qubit).  The rows are the single faults in
        _sites order, each collapsing op's random frame bit in instruction
        order, then each qubit's initial Z frame in qubit order."""
        sites = _sites(self)
        collapse = [k for k, ins in enumerate(self.instructions) if ins.op in _COLLAPSE_PAULI]
        index = [k for k, _, faults in sites for _ in faults] + collapse
        codes = [code for _, _, faults in sites for _, code in faults] + [
            _COLLAPSE_PAULI[self.instructions[k].op] for k in collapse]
        flips = np.zeros((len(self.instructions), 4, len(index) + self.n_qubits), dtype=bool)
        flips[index, :, np.arange(len(index))] = _FAULT_FLIPS[codes]
        start_z = np.eye(self.n_qubits, flips.shape[-1], len(index), dtype=bool)
        rows = np.hstack([r.T for r in _propagate(self, flips, start_z)])
        rows.flags.writeable = False
        return rows

    @cached_property
    def _noise_map(self) -> tuple[dict, np.ndarray]:
        """The record flips that the sampler draws, read off _fault_map on first use."""
        return _noise_rows(self)

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
    """Aaronson-Gottesman tableau over packed integer rows, with symbolic signs.

    The X and Z bits of every row follow the gates alone; only the signs
    depend on the random measurement outcomes.  So the tableau draws no
    outcome: the j-th random measurement is named draw j, and row i's sign
    is rs[i] + 2 * (fs[i] . draws) mod 4, a mod-4 constant plus a GF(2)
    form over the draws.  Forms are ints with draw j at bit j + 1, so that
    an affine function of the draws, such as a measurement outcome, is one
    int whose bit 0 is its constant.
    """

    def __init__(self, n: int):
        self.n = n
        self.mask = (1 << n) - 1
        self.xs = [0] * (2 * n)
        self.zs = [0] * (2 * n)
        self.rs = [0] * (2 * n)
        self.fs = [0] * (2 * n)
        self.draws = 0
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
        self.fs[h] ^= self.fs[i]
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

    def pauli(self, kind: str, q: int, when: int = 1):
        """Apply the Pauli where the affine function when of the draws is 1."""
        if not when:
            return
        b, sign, form = 1 << q, 2 * (when & 1), when & ~1
        for i in range(2 * self.n):
            anti = False
            if kind == "X":
                anti = bool(self.zs[i] & b)
            elif kind == "Z":
                anti = bool(self.xs[i] & b)
            else:  # Y
                anti = bool(self.xs[i] & b) != bool(self.zs[i] & b)
            if anti:
                self.rs[i] = (self.rs[i] + sign) % 4
                self.fs[i] ^= form

    def measure_z(self, q: int) -> int:
        """The outcome as an affine function of the draws; a random one is a new draw."""
        n = self.n
        b = 1 << q
        p = None
        for i in range(n, 2 * n):
            if self.xs[i] & b:
                p = i
                break
        if p is not None:
            outcome = 2 << self.draws
            self.draws += 1
            for i in range(2 * n):
                if i != p and (self.xs[i] & b):
                    self._rowsum(i, p)
            self.xs[p - n] = self.xs[p]
            self.zs[p - n] = self.zs[p]
            self.rs[p - n] = self.rs[p]
            self.fs[p - n] = self.fs[p]
            self.xs[p] = 0
            self.zs[p] = b
            self.rs[p] = 0
            self.fs[p] = outcome
            return outcome
        # deterministic outcome: accumulate into a scratch row
        sx, sz, sr, sf = 0, 0, 0, 0
        for i in range(n):
            if self.xs[i] & b:
                g = self._g_sum(self.xs[i + n], self.zs[i + n], sx, sz)
                sr = (sr + self.rs[i + n] + g) % 4
                sf ^= self.fs[i + n]
                sx ^= self.xs[i + n]
                sz ^= self.zs[i + n]
        return (sr >> 1) & 1 | sf

    def measure_x(self, q: int) -> int:
        self.h_gate(q)
        out = self.measure_z(q)
        self.h_gate(q)
        return out

    def prep_z(self, q: int):
        self.pauli("X", q, self.measure_z(q))

    def prep_x(self, q: int):
        self.pauli("Z", q, self.measure_x(q))

    def relabel(self, perm: Sequence[int]):
        for rows in (self.xs, self.zs):
            for i in range(2 * self.n):
                rows[i] = apply_permutation(rows[i], perm)


def _tableau_pass(circuit: Circuit) -> tuple[int, dict[str, int]]:
    """One tableau pass over the circuit: the number k of random outcomes
    and each tag's outcome as an affine function of them (see Tableau)."""
    tab = Tableau(circuit.n_qubits)
    outcomes = {}
    for ins in circuit.instructions:
        op = ins.op
        if op == "PREPZ":
            tab.prep_z(ins.qubits[0])
        elif op == "PREPX":
            tab.prep_x(ins.qubits[0])
        elif op == "H":
            tab.h_gate(ins.qubits[0])
        elif op == "CNOT":
            tab.cnot(ins.qubits[0], ins.qubits[1])
        elif op == "MEASZ":
            outcomes[ins.tag] = tab.measure_z(ins.qubits[0])
        elif op == "MEASX":
            outcomes[ins.tag] = tab.measure_x(ins.qubits[0])
        elif op == "INJECT":
            tab.pauli(ins.pauli, ins.qubits[0])
        elif op == "RELABEL":
            tab.relabel(ins.perm)
        else:
            raise ValueError(f"unknown op {op}")
    return tab.draws, outcomes


def simulate_tableau(circuit: Circuit, seed) -> dict[str, int]:
    """Exact single-shot stabilizer simulation: {tag: outcome}, from a seeded outcome stream.

    The circuit's record map (one tableau pass, kept on the circuit) is
    evaluated at k uniform bits, drawn by k scalar rng.integers(0, 2)
    calls in the order that the random outcomes occur.  A Generator passed
    as seed gives up exactly those k draws.
    """
    rng = np.random.default_rng(seed)
    k, forms = circuit._record_map
    draws = 1
    for j in range(k):
        draws |= int(rng.integers(0, 2)) << (j + 1)
    return {tag: (form & draws).bit_count() & 1 for tag, form in forms.items()}


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
# Frames propagate many at once, one bool column each (the Stim technique:
# Gidney, Quantum 5, 497 (2021), arXiv:2103.02202).  Each qubit's X and Z
# frame is a row over the columns: a CNOT is two row XORs, H swaps a
# qubit's rows, a preparation overwrites them, a measurement reads one into
# the record and RELABEL permutes them.  An INJECT is a Pauli gate, which
# the noiseless reference run applies; it leaves every frame as it is.  A
# fault is a flip mask in the row of its instruction.  The kernel is linear
# and runs once per circuit, one column per fault mechanism
# (Circuit._fault_map); the sampler and the single-fault table both read
# that map's rows.
#
# A Z-basis preparation or measurement leaves its qubit in a Z eigenstate,
# where a Z frame is a stabilizer and changes nothing; the sampler sets
# that frame to a uniformly random bit per shot, which makes a later X
# measurement of the qubit random, as it is in the tableau engine.  X-basis
# ones do the same with the X frame, and every qubit starts in |0> with a
# random Z frame.  Each of these bits is a mechanism with its own map row.

# Shots per seeded block: shot s takes its draws from block s // SHOT_BLOCK's generator.
SHOT_BLOCK = 1024

# A fault is a Pauli on an op's (first, second) qubit coded 4 * first +
# second, with 0=I, 1=X, 2=Y, 3=Z as in _P1Q.  _FAULT_FLIPS[code] holds its
# (x first, z first, x second, z second) frame flips.
_FAULT_FLIPS = np.array([[p in (1, 2), p in (2, 3), q in (1, 2), q in (2, 3)]
                         for p in range(4) for q in range(4)], dtype=bool)

# The frame that each collapsing op leaves random, as the fault code of its Pauli.
_COLLAPSE_PAULI = {"PREPZ": 12, "MEASZ": 12, "PREPX": 4, "MEASX": 4}


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


def _sites(circuit: Circuit) -> list[tuple]:
    """(instruction index, kind, ((label, Pauli code), ...)) of each fault location."""
    return [(k, *_FAULTS[ins.op]) for k, ins in enumerate(circuit.instructions)
            if ins.op in _FAULTS]


def _propagate(circuit: Circuit, flips: np.ndarray, start_z: np.ndarray):
    """Propagate Pauli frames through circuit, one column per flip pattern.

    The Z frame starts as start_z (qubits x columns) and the X frame as 0.
    flips[k] (4 x columns) is applied at instruction k as _FAULT_FLIPS
    describes; at a measurement, the measured frame's slot flips the
    outcome and the other slot flips the other frame.  Returns the
    measurement flips (one row per record tag) and the residual X and Z
    frames (one row per qubit).
    """
    x = np.zeros_like(start_z)
    z = start_z.copy()
    meas = np.empty((len(circuit.tags()), flips.shape[-1]), dtype=bool)
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


def _noise_rows(circuit: Circuit) -> tuple[dict, np.ndarray]:
    """The fault map's record rows that the sampler draws: each kind's faults
    (sites x faults per site x tags), then the random frame rows (bits x
    tags): every collapse bit, and each initial Z frame that flips some
    record.  float32 0/1, so a sum of rows taken mod 2 is their XOR."""
    records = circuit._fault_map[:, :len(circuit.tags())]
    sites, kinds = _sites(circuit), {}
    first = np.cumsum([0] + [len(faults) for _, _, faults in sites])  # each site's first row
    for kind in dict.fromkeys(kind for _, kind, _ in sites):
        mine = [i for i, site in enumerate(sites) if site[1] == kind]
        kinds[kind] = records[first[mine, None] + np.arange(len(sites[mine[0]][2]))].astype(np.float32)
    frames = records[first[-1]:]
    drawn = frames.any(axis=1)
    drawn[:len(frames) - circuit.n_qubits] = True  # a collapse bit is drawn even if it flips nothing
    collapse = frames[drawn].astype(np.float32)
    for array in (collapse, *kinds.values()):
        array.flags.writeable = False
    return kinds, collapse


def outcome_dicts(tags: tuple[str, ...], bits: np.ndarray) -> list[dict[str, int]]:
    """One {tag: bit} dict per column of a (tags x columns) outcome array."""
    return [dict(zip(tags, col)) for col in bits.T.astype(np.uint8).tolist()]


def _outcomes(circuit: Circuit, meas: np.ndarray, ref: dict[str, int]) -> np.ndarray:
    """Outcome bits, one column per shot: the reference XOR the measurement flips."""
    return meas ^ np.array([ref[t] for t in circuit.tags()], dtype=bool)[:, None]


def column_ints(rows: np.ndarray) -> list[int]:
    """Each column of a (rows x columns) bit array as an int, bit r = row r; exact at any width."""
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

    The circuit's record map is evaluated at the draws of a generator
    seeded from master_seed, so after the first call on a circuit a new
    seed costs its draws, not a tableau pass.  An INJECT is a Pauli gate
    here as in any tableau run, so its effect is in the reference record
    and the frame kernel leaves it out.
    """
    return simulate_tableau(circuit, seed=list(_seed_key(master_seed)) + [1])


# Each seed word keeps its low 48 bits, so seeds that agree there run alike.
SEED_LIMIT = 1 << 48


def _seed_key(seed) -> tuple[int, ...]:
    if isinstance(seed, int):
        return (seed & (SEED_LIMIT - 1),)
    return tuple(int(s) & (SEED_LIMIT - 1) for s in seed)


def sample_outcomes(circuit: Circuit, nm: NoiseModel, seed, shots: int,
                    start: int = 0) -> np.ndarray:
    """Outcome bits of shots start .. start + shots - 1: one row per record
    tag, in circuit.tags() order, and one column per shot.

    Each fault location fails with its kind's rate, independently per shot,
    and a failing one draws one of its single faults uniformly.  Only the
    failing (location, shot) cells are drawn: a binomial number of them, as
    a uniform subset, which is the law of an independent flip per cell.
    Then each collapsing op, and each initial Z frame that can flip an
    outcome, draws its random frame bit per shot.  A shot is the reference
    run XOR the fault map rows of its faults and set bits.
    Each block of SHOT_BLOCK shots draws from its own generator, seeded by
    (seed, block), and a range that starts or ends inside a block draws it
    whole, so a shot depends only on (circuit, noise, seed, shot index).
    """
    meas = np.empty((len(circuit.tags()), max(shots, 0)), dtype=bool)
    if shots <= 0:
        return meas
    kinds, collapse = circuit._noise_map
    rate = {"gate1": nm.p1, "gate2": nm.p2, "prep": nm.p_spam, "meas": nm.p_spam}
    noise = [(p, kinds[kind]) for kind, p in rate.items() if kind in kinds and p > 0.0]
    stop = start + shots
    for block in range(start // SHOT_BLOCK, (stop - 1) // SHOT_BLOCK + 1):
        rng = np.random.default_rng(list(_seed_key(seed)) + [0, block])
        counts = np.zeros((SHOT_BLOCK, len(meas)), dtype=np.float32)  # one row per shot
        for p, columns in noise:
            cells = columns.shape[0] * SHOT_BLOCK
            site, shot = np.divmod(rng.choice(cells, rng.binomial(cells, p), replace=False),
                                   SHOT_BLOCK)
            rows = columns[site, rng.integers(columns.shape[1], size=len(site))]
            cell = shot[:, None] * len(meas) + np.arange(len(meas))  # 1-D add.at is the fast one
            np.add.at(counts.reshape(-1), cell.reshape(-1), rows.reshape(-1))
        bits = rng.integers(0, 2, (len(collapse), SHOT_BLOCK), dtype=bool)
        counts += bits.T.astype(np.float32) @ collapse
        base = block * SHOT_BLOCK
        lo, hi = max(start, base), min(stop, base + SHOT_BLOCK)
        meas[:, lo - start:hi - start] = (counts[lo - base:hi - base].astype(np.int32) & 1).T
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
    the outcome flips it causes, one row per record tag (the noiseless
    record is reference_record XOR these); final_x[c] and final_z[c] its
    residual X and Z frames at the circuit end as ints, bit q = qubit q.
    """

    cases: list
    records: np.ndarray
    final_x: list
    final_z: list


def single_fault_table(circuit: Circuit) -> SingleFaultTable:
    """Every single-Pauli fault location, in deterministic order, as one table.

    Locations: after each 1q gate (3 Paulis), after each CNOT (15 Pauli
    pairs), after each preparation (the flip Pauli), and a flip on each
    measurement outcome.  The cases are the fault map's first rows, so
    nothing propagates and no tableau runs, and records is a read-only
    view of the map.  The residual frames are relative to the circuit as
    written, so they leave out the Paulis of its INJECTs.
    """
    cases = [(k, kind, label) for k, kind, faults in _sites(circuit) for label, _ in faults]
    records, x, z = np.split(circuit._fault_map[:len(cases)].T,
                             [len(circuit.tags()), len(circuit.tags()) + circuit.n_qubits])
    return SingleFaultTable(cases, records, column_ints(x), column_ints(z))


def enumerate_single_faults(circuit: Circuit) -> list[FaultCase]:
    """The cases of single_fault_table(circuit) as FaultCase objects, with absolute
    {tag: bit} records: reference_record(circuit, 0) XOR each case's flips."""
    table = single_fault_table(circuit)
    records = _outcomes(circuit, table.records, reference_record(circuit, 0))
    return [FaultCase(index, kind, pauli, record, fx, fz)
            for (index, kind, pauli), record, fx, fz in zip(
                table.cases, outcome_dicts(circuit.tags(), records),
                table.final_x, table.final_z)]
