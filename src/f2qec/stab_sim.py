"""Stabilizer circuit simulation.

Two engines run the same Circuit: an exact tableau simulator (the
correctness oracle) and a fast Pauli-frame sampler that XORs propagated
faults onto noiseless records.  An INJECT is a Pauli gate in both: the
noiseless records include it, and it changes no frame.  Noise is a
three-rate model: depolarizing after one- and two-qubit gates, independent
flips on preparations and measurement outcomes.

The tableau runs once per circuit, with symbolic signs: it gives each
outcome as an affine GF(2) function of the circuit's random outcomes, and
the circuit keeps that record map.  Its draws are the only noiseless
randomness: a seeded run, the reference run included, evaluates the map at
the seed's draws, the same draws that a tableau taking them as it ran would
have made, and the sampler evaluates it at fresh draws per shot.

The frame kernel runs once per circuit too, on every single fault at
once: each qubit's X and Z frame is one Python int, bit c for fault c, so
a gate is a few word operations whatever the fault count.  The circuit
keeps what it derives as attributes, each built on first use and
immutable: its tags, its fault_sites, and the single-fault tables.
fault_words are the kernel's words, for decisions taken on all faults at
once, and fault_labels names only the faults that such a decision picks.
fault_cases holds every case's location, and fault_record_words each
case's outcome flips packed as a record, as the sampler keeps a shot: one
64-bit word per 64 record tags, bit t = tag t.  The sampler XORs the
packed rows of the faults it draws in seeded blocks of SHOT_BLOCK shots
onto each shot's noiseless record, which it folds in from byte tables of
the record map, eight draws per lookup.  enumerate_single_faults is a
per-case view, with no tableau run but the reference record's: FaultCase
objects with absolute {tag: bit} records (the reference record XOR the
flips) and residual frames as ints, unpacked from the words on each call.

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
from bisect import bisect_right
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .f2linalg import Frozen, apply_permutation, inverse_permutation

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


class Instruction(NamedTuple):
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


# tuple.__new__(Instruction, fields) builds the record with every field
# given, without the NamedTuple's Python-level __new__
def prepz(q): return tuple.__new__(Instruction, ("PREPZ", (q,), "", "", ()))
def prepx(q): return tuple.__new__(Instruction, ("PREPX", (q,), "", "", ()))
def h(q): return tuple.__new__(Instruction, ("H", (q,), "", "", ()))
def cnot(c, t): return tuple.__new__(Instruction, ("CNOT", (c, t), "", "", ()))
def measz(q, tag): return tuple.__new__(Instruction, ("MEASZ", (q,), tag, "", ()))
def measx(q, tag): return tuple.__new__(Instruction, ("MEASX", (q,), tag, "", ()))
def inject(pauli, q): return tuple.__new__(Instruction, ("INJECT", (q,), "", pauli, ()))
def relabel(perm): return tuple.__new__(Instruction, ("RELABEL", (), "", "", tuple(perm)))


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


class Circuit(Frozen):
    _fields = ("n_qubits", "instructions")

    def __init__(self, n_qubits: int, instructions: tuple[Instruction, ...]):
        vars(self).update(n_qubits=n_qubits, instructions=instructions)
        # a float, bool or negative count would write a QUBITS header that
        # from_text refuses
        if type(n_qubits) is not int or n_qubits < 0:
            raise ValueError(f"qubit count {n_qubits!r} is not a non-negative int")
        tags = set()
        for op, qubits, tag, pauli, perm in instructions:
            if op not in _ARITY:
                raise ValueError(f"unknown op {op!r}")
            if len(qubits) != _ARITY[op]:
                raise ValueError(f"{op} acts on {_ARITY[op]} qubit(s), got {len(qubits)}")
            if tag or pauli or perm:
                for name, value in (("tag", tag), ("pauli", pauli), ("perm", perm)):
                    if value and _OPERAND.get(op) != name:
                        raise ValueError(f"{op} takes no {name}, got {value!r}")
            for q in qubits:
                # a float or bool index would write circuit text that from_text refuses
                if type(q) is not int:
                    raise ValueError(f"qubit {q!r} is not an int")
                if not 0 <= q < n_qubits:
                    raise ValueError(f"qubit {q} out of range")
            if op in ("MEASZ", "MEASX"):
                if tag.split() != [tag]:
                    raise ValueError(f"measurement tag must be one word, got {tag!r}")
                if tag in tags:
                    raise ValueError(f"duplicate measurement tag {tag}")
                tags.add(tag)
            elif op == "RELABEL" and (sorted(perm) != list(range(n_qubits))
                                      or any(type(q) is not int for q in perm)):
                raise ValueError("relabel is not a permutation of all qubits")
            elif op == "CNOT" and qubits[0] == qubits[1]:
                raise ValueError("CNOT needs distinct qubits")
            elif op == "INJECT" and pauli not in _PAULIS_1Q:
                raise ValueError(f"INJECT Pauli must be X, Y or Z, got {pauli!r}")

    @cached_property
    def _record_map(self) -> tuple[int, dict[str, int]]:
        """The tableau's record map, built on first use as BitMatrix builds its transpose."""
        return _tableau_pass(self)

    @cached_property
    def tags(self) -> tuple[str, ...]:
        """The measurement tags in record order."""
        return tuple(i.tag for i in self.instructions if i.op in ("MEASZ", "MEASX"))

    @cached_property
    def fault_sites(self) -> tuple[tuple, ...]:
        """(instruction index, kind, ((label, Pauli code), ...)) of each fault
        location, in instruction order (see _sites)."""
        return tuple(_sites(self))

    @cached_property
    def fault_cases(self) -> tuple[tuple, ...]:
        """(instruction_index, kind, pauli) of every single-Pauli fault, case
        c at bit c of fault_words: after each 1q gate (3 Paulis), after each
        CNOT (15 Pauli pairs), after each preparation (the flip Pauli), and a
        flip on each measurement outcome, in instruction order."""
        return tuple((k, kind, label) for k, kind, faults in self.fault_sites
                     for label, _ in faults)

    @cached_property
    def fault_words(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Every single fault at once, as the frame kernel's words (records,
        x, z): bit c of records[t] is the flip of record tag t that case c
        of fault_cases causes, and bit c of x[q] and z[q] its residual X and
        Z frame on qubit q at the circuit end (see _propagate).  Nothing is
        unpacked, so a decision over the faults is a few word operations;
        fault_labels names the faults it picks.  The residual frames are
        relative to the circuit as written, so they leave out the Paulis of
        its INJECTs."""
        return _propagate(self)

    @cached_property
    def fault_record_words(self) -> np.ndarray:
        """The record flips of each single fault packed as words, read-only:
        one row per fault case, bit t = tag t (see pack_words), as
        sample_words gives shots.  The rows are counted from fault_sites, so
        the case list is not built."""
        count = sum(len(faults) for _, _, faults in self.fault_sites)
        records = transpose_words(self.fault_words[0], count)
        records.flags.writeable = False
        return records

    @cached_property
    def _noise_map(self) -> tuple[dict, np.ndarray, np.ndarray]:
        """What the sampler draws from, on first use: the faults' record
        rows, the record map's constant bits and its draw coefficients'
        byte tables, all as packed record words (see _noise_rows)."""
        return _noise_rows(self)

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


class NoiseModel(Frozen):
    """Uniform depolarizing after gates plus preparation/measurement flips.

    Three aggregate rates only; there is no idle/memory term, and native
    X-basis preparation and readout each count as a single flip event.
    """

    _fields = ("p1", "p2", "p_spam")

    def __init__(self, p1: float = 0.0, p2: float = 0.0, p_spam: float = 0.0):
        vars(self).update(p1=p1, p2=p2, p_spam=p_spam)
        for name, v in zip(self._fields, (p1, p2, p_spam)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a probability, got {v}")


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
# Frames propagate many at once, bit-packed (the Stim technique: Gidney,
# Quantum 5, 497 (2021), arXiv:2103.02202), here packed over the single
# faults: each qubit's X and Z frame is one int word, bit c for fault c.
# A CNOT is two word XORs, H swaps a qubit's words, a preparation
# overwrites them, a measurement reads one into the record and RELABEL
# permutes them.  An INJECT is a Pauli gate, which the noiseless records
# include; it leaves every frame as it is.  Each op's faults take the next
# bit columns, and their flips are the op's constant _SLOT_MASKS words
# shifted there.  The kernel is linear and runs once per circuit
# (Circuit.fault_words); the sampler reads its record words packed again
# per fault (as records are, one bit per tag), and validate_schedule and
# enumerate_single_faults read the words.
#
# Frames carry the faults only.  A random outcome, such as an X
# measurement after a Z preparation or of a qubit that no preparation
# precedes, is random in the noiseless record itself: each shot draws the
# circuit's k random outcomes afresh and evaluates the tableau's record
# map at them, as simulate_tableau does for one seeded shot.

# Shots per seeded block: shot s takes its draws from block s // SHOT_BLOCK's generator.
SHOT_BLOCK = 1024
# The shifts that pack eight rows of 0/1 bytes into one row of bytes.  They
# act on 64-bit words, eight bytes at once: a 0/1 byte shifted by at most 7
# stays in its byte.
_BIT = np.arange(8, dtype=np.uint64)[:, None]

# A fault is a Pauli on an op's (first, second) qubit coded 4 * first +
# second, with 0=I, 1=X, 2=Y, 3=Z as in _P1Q.  _FAULT_FLIPS[code] holds its
# (x first, z first, x second, z second) frame flips.
_FAULT_FLIPS = tuple((p in (1, 2), p in (2, 3), q in (1, 2), q in (2, 3))
                     for p in range(4) for q in range(4))


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


# Each faulty op's fault count, then its four slot words: bit j of word s
# is slot s of the op's j-th fault, so one word shifted to the op's first
# fault column flips that slot for all of its faults at once.
_SLOT_MASKS = {op: (len(faults), *(sum(_FAULT_FLIPS[code][s] << j for j, (_, code) in enumerate(faults))
                                   for s in range(4)))
               for op, (_, faults) in _FAULTS.items()}


def _sites(circuit: Circuit) -> list[tuple]:
    """(instruction index, kind, ((label, Pauli code), ...)) of each fault location."""
    return [(k, *_FAULTS[ins.op]) for k, ins in enumerate(circuit.instructions)
            if ins.op in _FAULTS]


def _propagate(circuit: Circuit) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Propagate every single fault of circuit at once, one bit per fault.

    Bit c of each word is fault c in _sites order.  Both frames start at
    0: a frame holds faults only, and the noiseless randomness is in the
    record map.  An op's faults take the next columns, and its four
    _SLOT_MASKS words, shifted there, flip the frames after the op; at a
    measurement, the measured frame's slot flips the outcome and the other
    slot flips the other frame.  Returns the measurement flips (one word
    per record tag) and the residual X and Z frames (one word per qubit),
    as tuples: the circuit keeps them (Circuit.fault_words) and no caller
    can change them.
    """
    x = [0] * circuit.n_qubits
    z = [0] * circuit.n_qubits
    meas = []
    column = 0
    for ins in circuit.instructions:
        op, qs = ins.op, ins.qubits
        if op in _SLOT_MASKS:
            width, m0, m1, m2, m3 = _SLOT_MASKS[op]
            f0, f1, f2, f3 = m0 << column, m1 << column, m2 << column, m3 << column
            column += width
        if op == "CNOT":
            a, b = qs
            x[b] ^= x[a] ^ f2
            z[a] ^= z[b] ^ f1
            x[a] ^= f0
            z[b] ^= f3
        elif op == "MEASZ":
            meas.append(x[qs[0]] ^ f0)
            z[qs[0]] ^= f1
        elif op == "MEASX":
            meas.append(z[qs[0]] ^ f1)
            x[qs[0]] ^= f0
        elif op in ("PREPZ", "PREPX"):
            x[qs[0]] = f0
            z[qs[0]] = f1
        elif op == "H":
            a = qs[0]
            x[a], z[a] = z[a] ^ f0, x[a] ^ f1
        elif op == "RELABEL":
            inv = inverse_permutation(ins.perm)
            x = [x[q] for q in inv]
            z = [z[q] for q in inv]
    return tuple(meas), tuple(x), tuple(z)


def _noise_rows(circuit: Circuit) -> tuple[dict, np.ndarray, np.ndarray]:
    """What the sampler XORs onto a shot, as packed record words (bit t =
    tag t, see pack_words): the record rows of each kind's faults (sites x
    faults per site x words), the record map's constant bits (words), and
    byte tables of its draw coefficients (see byte_tables; draw j's row
    holds the tags that random outcome j enters)."""
    tags, records = circuit.tags, circuit.fault_record_words
    sites, kinds = circuit.fault_sites, {}
    first = np.cumsum([0] + [len(faults) for _, _, faults in sites])  # each site's first row
    for kind in dict.fromkeys(kind for _, kind, _ in sites):
        mine = [i for i, site in enumerate(sites) if site[1] == kind]
        kinds[kind] = records[first[mine, None] + np.arange(len(sites[mine[0]][2]))]
    k, forms = circuit._record_map
    # row 0 holds the forms' constants (bit 0), row j + 1 their draw j coefficients
    rows = transpose_words([forms[t] for t in tags], k + 1)
    const, draws = rows[0], byte_tables(rows[1:])
    for array in (const, draws, *kinds.values()):
        array.flags.writeable = False
    return kinds, const, draws


def outcome_dicts(tags: tuple[str, ...], bits: np.ndarray) -> list[dict[str, int]]:
    """One {tag: bit} dict per column of a (tags x columns) outcome array."""
    return [dict(zip(tags, col)) for col in bits.T.astype(np.uint8).tolist()]


def pack_words(bits: np.ndarray) -> np.ndarray:
    """Each row of a (rows x bits) bit array as little-endian 64-bit words:
    (rows x ceil(bits / 64)) '<u8', bit j of a row at bit j % 64 of its word j // 64."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    words = np.zeros((len(bits), -(-bits.shape[-1] // 64)), dtype="<u8")
    words.view(np.uint8)[:, :packed.shape[-1]] = packed
    return words


def unpack_words(words: np.ndarray, count: int) -> np.ndarray:
    """The first count bits of each row of pack_words' words: (rows x count) bool."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=count, bitorder="little").view(bool)


def int_words(ints: Sequence[int], count: int) -> np.ndarray:
    """Each int in [0, 2**count) as one row of pack_words' words: (ints x
    ceil(count / 64)), read-only.  An int's little-endian bytes are its
    packed words, so no bit is unpacked."""
    width = 8 * -(-count // 64)
    data = b"".join(i.to_bytes(width, "little") for i in ints)
    return np.frombuffer(data, dtype="<u8").reshape(len(ints), width // 8)


def transpose_words(ints: Sequence[int], count: int) -> np.ndarray:
    """The transpose of the bit matrix whose row i is ints[i] (bits 0 ..
    count - 1, each int in [0, 2**count)) as pack_words' words: row j holds
    bit j of every int, bit i for int i, (count x ceil(len(ints) / 64))."""
    return pack_words(unpack_words(int_words(ints, count), count).T)


def word_ints(words: np.ndarray) -> list[int]:
    """Each row of pack_words' words as one Python int, exact at any width."""
    parts = words.T.tolist()
    ints = parts[0] if parts else [0] * len(words)
    for k, part in enumerate(parts[1:], 1):
        ints = [a | b << (64 * k) for a, b in zip(ints, part)]
    return ints


def byte_tables(rows: np.ndarray) -> np.ndarray:
    """XOR tables of a (rows x words) word array, one per eight rows: entry
    [b, v] is the XOR of the rows 8b + i for the set bits i of byte v, so a
    GF(2) combination of the rows is one lookup per byte of its coefficients
    (see fold_bytes).  Rows past the last are zero."""
    rows = np.concatenate([rows, np.zeros(((-len(rows)) % 8, rows.shape[1]), dtype=rows.dtype)])
    eights = rows.reshape(len(rows) // 8, 8, rows.shape[1])
    tables = np.zeros((len(eights), 256, rows.shape[1]), dtype=rows.dtype)
    for i in range(8):
        tables[:, 1 << i:2 << i] = tables[:, :1 << i] ^ eights[:, i, None]
    return tables


def fold_bytes(tables: np.ndarray, coefficients: np.ndarray, out: np.ndarray) -> np.ndarray:
    """XOR into out (columns x words) the combination of byte_tables' rows
    that each column of coefficients (bytes x columns, byte b the
    coefficients of rows 8b .. 8b + 7) selects: one gather per byte."""
    for table, byte in zip(tables, coefficients):
        out ^= table.take(byte, axis=0)  # take is the fast gather
    return out


def reference_record(circuit: Circuit, master_seed) -> dict[str, int]:
    """Noiseless tableau run of the circuit as written: one seeded noiseless record.

    The circuit's record map is evaluated at the draws of a generator
    seeded from master_seed, so after the first call on a circuit a new
    seed costs its draws, not a tableau pass.  An INJECT is a Pauli gate
    here as in any tableau run, so its effect is in the record and the
    frame kernel leaves it out.  enumerate_single_faults XORs each case's
    flips onto this record at seed 0; the sampler does not call it, and
    draws each shot's random outcomes itself.
    """
    return simulate_tableau(circuit, seed=list(_seed_key(master_seed)) + [1])


# Each seed word keeps its low 48 bits, so seeds that agree there run alike.
SEED_LIMIT = 1 << 48


def _seed_key(seed) -> tuple[int, ...]:
    if isinstance(seed, int):
        return (seed & (SEED_LIMIT - 1),)
    return tuple(int(s) & (SEED_LIMIT - 1) for s in seed)


def sample_words(circuit: Circuit, nm: NoiseModel, seed, shots: int) -> np.ndarray:
    """The records of shots 0 .. shots - 1 as packed words: one row per
    shot, bit t = tag t in circuit.tags order (see pack_words).

    Each fault location fails with its kind's rate, independently per shot,
    and a failing one draws one of its single faults uniformly.  Only the
    failing (location, shot) cells are drawn: a binomial number of them, as
    a uniform subset, which is the law of an independent flip per cell.
    Then each shot draws the circuit's k random outcomes as k uniform bits,
    and its noiseless record is the tableau's record map at them: the
    constant bits XOR the draw coefficients of its set bits, taken eight
    draws at a time from byte tables.  A shot is that record XOR the record
    rows of its faults (Circuit.fault_record_words).
    Each block of SHOT_BLOCK shots draws from its own generator, seeded by
    (seed, block), and a partial last block draws the whole block, so a
    shot depends only on (circuit, noise, seed, shot index): a shorter
    run's shots are the first shots of a longer one.
    """
    kinds, const, draws = circuit._noise_map
    blocks = -(-max(shots, 0) // SHOT_BLOCK)
    words = np.empty((blocks * SHOT_BLOCK, len(const)), dtype="<u8")
    words[:] = const
    rate = {"gate1": nm.p1, "gate2": nm.p2, "prep": nm.p_spam, "meas": nm.p_spam}
    noise = [(p, kinds[kind]) for kind, p in rate.items() if kind in kinds and p > 0.0]
    k = circuit._record_map[0]
    coefficients = np.zeros((8 * len(draws), SHOT_BLOCK), dtype=np.uint8)
    for block in range(blocks):
        rng = np.random.default_rng(list(_seed_key(seed)) + [0, block])
        mine = words[block * SHOT_BLOCK:(block + 1) * SHOT_BLOCK]
        for p, rows in noise:
            cells = rows.shape[0] * SHOT_BLOCK
            site, shot = np.divmod(rng.choice(cells, rng.binomial(cells, p), replace=False),
                                   SHOT_BLOCK)
            np.bitwise_xor.at(mine, shot, rows[site, rng.integers(rows.shape[1], size=len(site))])
        coefficients[:k] = rng.integers(0, 2, (k, SHOT_BLOCK), dtype=bool)
        # byte b of a shot holds its draws 8b .. 8b + 7, as np.packbits along
        # axis 0 would pack them, several times slower
        eights = coefficients.view(np.uint64).reshape(len(draws), 8, SHOT_BLOCK // 8)
        fold_bytes(draws, np.bitwise_or.reduce(eights << _BIT, axis=1).view(np.uint8), mine)
    return words[:max(shots, 0)]


def sample_outcomes(circuit: Circuit, nm: NoiseModel, seed, shots: int) -> np.ndarray:
    """The shots of sample_words unpacked: one bool row per record tag, in
    circuit.tags order, and one column per shot."""
    return unpack_words(sample_words(circuit, nm, seed, shots), len(circuit.tags)).T


def sample_pauli_frame(circuit: Circuit, nm: NoiseModel, seed, shots: int) -> list[dict[str, int]]:
    """The shots of sample_outcomes as {tag: bit} dicts, one per shot."""
    return outcome_dicts(circuit.tags, sample_outcomes(circuit, nm, seed, shots))


# --- deterministic single-fault enumeration --------------------------------


class FaultCase(NamedTuple):
    """One injected fault, the shot record it produces, and the residual frame."""

    instruction_index: int
    kind: str          # "gate1", "gate2", "prep", "meas"
    pauli: str         # "X"/"Y"/"Z", two-letter pair, or "flip"
    record: dict       # {tag: bit}
    final_x: int = 0   # residual X-frame at circuit end
    final_z: int = 0


def fault_labels(circuit: Circuit, columns: Sequence[int]) -> list[tuple]:
    """(instruction_index, kind, pauli) of the fault cases at the given
    columns (bit positions in Circuit.fault_words), in the order given.  Only those
    cases are labelled: the circuit's case list is not built, and with no
    column the fault locations are not walked either."""
    if not columns:
        return []
    sites = circuit.fault_sites
    first = list(accumulate((len(faults) for _, _, faults in sites), initial=0))
    out = []
    for c in columns:
        i = bisect_right(first, c) - 1
        k, kind, faults = sites[i]
        out.append((k, kind, faults[c - first[i]][0]))
    return out


def enumerate_single_faults(circuit: Circuit) -> list[FaultCase]:
    """The circuit's fault_cases as FaultCase objects, with absolute {tag:
    bit} records (reference_record(circuit, 0) XOR each case's row of
    fault_record_words) and residual frames as ints (bit q = qubit q),
    transposed from fault_words on each call."""
    tags, (_, x, z), cases = circuit.tags, circuit.fault_words, circuit.fault_cases
    ref = reference_record(circuit, 0)
    flips = unpack_words(circuit.fault_record_words, len(tags)) ^ np.array(
        [ref[t] for t in tags], dtype=bool)
    final_x, final_z = (word_ints(transpose_words(words, len(cases))) for words in (x, z))
    return [FaultCase(*case, record, fx, fz) for case, record, fx, fz in zip(
        cases, outcome_dicts(tags, flips.T), final_x, final_z)]
