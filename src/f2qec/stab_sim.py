"""Stabilizer circuit simulation.

Two engines share one instruction set: an exact tableau simulator (the
correctness oracle) and a fast Pauli-frame sampler that XORs propagated
faults onto a fixed noiseless reference run.  Noise is a three-rate
model: depolarizing after one- and two-qubit gates, independent flips on
preparations and measurement outcomes.

Text IR (round-trip exact), one instruction per line after a header:

    QUBITS 5
    PREPX 0
    CNOT 0 1
    MEASZ 1 m0
    RELABEL (0 4)(1 3)

RELABEL uses cycle notation and relabels qubit q to p(q); it is gate- and
noise-free.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .css_code import apply_permutation

_PAULIS_1Q = ("X", "Y", "Z")
# two-qubit Paulis indexed 1..15 as (first, second) with 0=I,1=X,2=Y,3=Z
_P1Q = ("I", "X", "Y", "Z")


@dataclass(frozen=True)
class Instruction:
    op: str
    qubits: tuple[int, ...] = ()
    tag: str = ""
    pauli: str = ""
    perm: tuple[int, ...] = ()

    def to_text(self) -> str:
        if self.op in ("PREPZ", "PREPX", "H"):
            return f"{self.op} {self.qubits[0]}"
        if self.op == "CNOT":
            return f"CNOT {self.qubits[0]} {self.qubits[1]}"
        if self.op in ("MEASZ", "MEASX"):
            return f"{self.op} {self.qubits[0]} {self.tag}"
        if self.op == "INJECT":
            return f"INJECT {self.pauli} {self.qubits[0]}"
        if self.op == "RELABEL":
            return "RELABEL " + cycles_to_text(self.perm)
        if self.op == "BARRIER":
            return "BARRIER"
        raise ValueError(f"unknown op {self.op}")


def prepz(q): return Instruction("PREPZ", (q,))
def prepx(q): return Instruction("PREPX", (q,))
def h(q): return Instruction("H", (q,))
def cnot(c, t): return Instruction("CNOT", (c, t))
def measz(q, tag): return Instruction("MEASZ", (q,), tag=tag)
def measx(q, tag): return Instruction("MEASX", (q,), tag=tag)
def inject(pauli, q): return Instruction("INJECT", (q,), pauli=pauli)
def relabel(perm): return Instruction("RELABEL", perm=tuple(perm))
def barrier(): return Instruction("BARRIER")


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
    unbalanced parentheses, stray text, non-integer tokens, qubits outside
    range(n) and qubits repeated across or within cycles.
    """
    body = text.strip()
    if _CYCLE.sub("", body).strip():
        raise ValueError(f"bad cycle notation: {text!r}")
    perm = list(range(n))
    seen = set()
    for chunk in _CYCLE.findall(body):
        try:
            cyc = [int(tok) for tok in chunk.split()]
        except ValueError:
            raise ValueError(f"non-integer qubit in cycle notation: {text!r}") from None
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
            for q in ins.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"qubit {q} out of range")
            if ins.op in ("MEASZ", "MEASX"):
                if not ins.tag:
                    raise ValueError("measurement without tag")
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

    def fault_location_count(self) -> int:
        """Single-fault cases: 3 per 1q gate, 15 per CNOT, 1 per prep and meas."""
        return sum(len(_faults_at(i)) for i in self.instructions)

    def to_text(self) -> str:
        lines = [f"QUBITS {self.n_qubits}"]
        lines.extend(ins.to_text() for ins in self.instructions)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
        header = lines[0].split() if lines else []
        if len(header) != 2 or header[0] != "QUBITS" or not header[1].isdecimal():
            raise ValueError("circuit text must start with a 'QUBITS <count>' header")
        n = int(header[1])
        out = []
        for ln in lines[1:]:
            parts = ln.split(None, 1)
            op = parts[0]
            rest = parts[1] if len(parts) > 1 else ""
            if op in ("PREPZ", "PREPX", "H"):
                out.append(Instruction(op, (int(rest),)))
            elif op == "CNOT":
                a, b = rest.split()
                out.append(cnot(int(a), int(b)))
            elif op in ("MEASZ", "MEASX"):
                q, tag = rest.split()
                out.append(Instruction(op, (int(q),), tag=tag))
            elif op == "INJECT":
                p, q = rest.split()
                out.append(inject(p, int(q)))
            elif op == "RELABEL":
                out.append(relabel(cycles_from_text(rest, n)))
            elif op == "BARRIER":
                out.append(barrier())
            else:
                raise ValueError(f"unknown instruction {op!r}")
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

    def is_zero(self) -> bool:
        return self.p1 == 0.0 and self.p2 == 0.0 and self.p_spam == 0.0


@dataclass
class ShotRecord:
    outcomes: dict
    fault: tuple | None = None

    def __getitem__(self, tag: str) -> int:
        return self.outcomes[tag]


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


def simulate_tableau(circuit: Circuit, seed) -> ShotRecord:
    """Exact single-shot stabilizer simulation with a seeded outcome stream."""
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
        elif op == "BARRIER":
            pass
        else:
            raise ValueError(f"unknown op {op}")
    return ShotRecord(outcomes)


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

_OP_PREPZ, _OP_PREPX, _OP_H, _OP_CNOT, _OP_MEASZ, _OP_MEASX, _OP_INJECT, _OP_RELABEL = range(8)
_OPCODE = {"PREPZ": _OP_PREPZ, "PREPX": _OP_PREPX, "H": _OP_H, "CNOT": _OP_CNOT,
           "MEASZ": _OP_MEASZ, "MEASX": _OP_MEASX, "INJECT": _OP_INJECT, "RELABEL": _OP_RELABEL}


def _compile(circuit: Circuit) -> list[tuple]:
    """Flatten instructions into (opcode, a, b, extra) tuples for the frame loop."""
    ops = []
    for ins in circuit.instructions:
        if ins.op == "BARRIER":
            continue
        code = _OPCODE[ins.op]
        if code == _OP_CNOT:
            ops.append((code, ins.qubits[0], ins.qubits[1], None))
        elif code in (_OP_MEASZ, _OP_MEASX):
            ops.append((code, ins.qubits[0], 0, ins.tag))
        elif code == _OP_INJECT:
            ops.append(_inject_op(ins.pauli, ins.qubits[0]))
        elif code == _OP_RELABEL:
            ops.append((code, 0, 0, ins.perm))
        else:
            ops.append((code, ins.qubits[0], 0, None))
    return ops


def reference_record(circuit: Circuit, master_seed) -> ShotRecord:
    """Noiseless tableau run fixing the outcome frame for the sampler.

    Explicit Pauli injections are faults, not part of the ideal circuit,
    so they are stripped here and applied by the frame propagation.
    """
    ideal = Circuit(circuit.n_qubits,
                    tuple(i for i in circuit.instructions if i.op != "INJECT"))
    return simulate_tableau(ideal, seed=list(_seed_key(master_seed)) + [1])


def _seed_key(seed) -> tuple[int, ...]:
    if isinstance(seed, int):
        return (seed & 0xFFFFFFFFFFFF,)
    return tuple(int(s) & 0xFFFFFFFFFFFF for s in seed)


def shot_rng(master_seed, shot_index: int):
    """Per-shot generator; independent of evaluation order."""
    return np.random.default_rng(list(_seed_key(master_seed)) + [0, shot_index])


def _frame_shot(ops, ref, nm: NoiseModel, rng) -> tuple[dict, int, int]:
    """Propagate one Pauli frame through the compiled ops.

    Returns the outcomes (reference XOR frame, plus sampled flips) and the
    residual X and Z frames.  A zero noise model draws nothing from rng, so
    explicit INJECT ops are then the only faults.
    """
    p1, p2, ps = nm.p1, nm.p2, nm.p_spam
    noisy = not nm.is_zero()
    x = z = 0
    outcomes = {}
    rnd = rng.random if noisy else None
    for code, a, b, extra in ops:
        if code == _OP_CNOT:
            x ^= ((x >> a) & 1) << b
            z ^= ((z >> b) & 1) << a
            if noisy and rnd() < p2:
                idx = int(rng.integers(1, 16))
                pc, pt = idx >> 2, idx & 3
                if pc == 1 or pc == 2:
                    x ^= 1 << a
                if pc == 2 or pc == 3:
                    z ^= 1 << a
                if pt == 1 or pt == 2:
                    x ^= 1 << b
                if pt == 2 or pt == 3:
                    z ^= 1 << b
        elif code == _OP_MEASZ:
            out = ref[extra] ^ ((x >> a) & 1)
            if noisy and rnd() < ps:
                out ^= 1
            outcomes[extra] = out
        elif code == _OP_MEASX:
            out = ref[extra] ^ ((z >> a) & 1)
            if noisy and rnd() < ps:
                out ^= 1
            outcomes[extra] = out
        elif code == _OP_PREPZ:
            bmask = 1 << a
            x &= ~bmask
            z &= ~bmask
            if noisy and rnd() < ps:
                x |= bmask
        elif code == _OP_PREPX:
            bmask = 1 << a
            x &= ~bmask
            z &= ~bmask
            if noisy and rnd() < ps:
                z |= bmask
        elif code == _OP_H:
            bmask = 1 << a
            xb = x & bmask
            zb = z & bmask
            if bool(xb) != bool(zb):
                x ^= bmask
                z ^= bmask
            if noisy and rnd() < p1:
                c = int(rng.integers(0, 3))
                if c != 2:
                    x ^= bmask
                if c != 0:
                    z ^= bmask
        elif code == _OP_INJECT:
            bmask = 1 << a
            if extra != "Z":
                x ^= bmask
            if extra != "X":
                z ^= bmask
        elif code == _OP_RELABEL:
            x = apply_permutation(x, extra)
            z = apply_permutation(z, extra)
    return outcomes, x, z


def sample_pauli_frame(circuit: Circuit, nm: NoiseModel, seed, shots: int,
                       start: int = 0) -> list[ShotRecord]:
    """Sample shot records by fault propagation against a fixed reference.

    Shot i uses its own generator derived from (seed, start + i), so shot
    sets are order-independent and can be partitioned across workers.
    """
    ops = _compile(circuit)
    ref = reference_record(circuit, seed).outcomes
    out = []
    for i in range(start, start + shots):
        rng = shot_rng(seed, i)
        out.append(ShotRecord(_frame_shot(ops, ref, nm, rng)[0]))
    return out


# --- deterministic single-fault enumeration --------------------------------


@dataclass(frozen=True)
class FaultCase:
    """One injected fault, the shot record it produces, and the residual frame."""

    instruction_index: int
    kind: str          # "gate1", "gate2", "prep", "meas"
    pauli: str         # "X"/"Y"/"Z", two-letter pair, or "flip"
    record: ShotRecord = field(compare=False)
    final_x: int = 0   # residual X-frame at circuit end
    final_z: int = 0


def enumerate_single_faults(circuit: Circuit) -> list[FaultCase]:
    """Every single-Pauli fault location, in deterministic order.

    Locations: after each 1q gate (3 Paulis), after each CNOT (15 Pauli
    pairs), after each preparation (the flip Pauli), and a flip on each
    measurement outcome.  The returned records are noiseless runs with
    exactly that fault applied, sharing one reference frame.
    """
    ops = _compile(circuit)
    ref = reference_record(circuit, 0).outcomes
    zero = NoiseModel.zero()
    cases = []
    pos = -1
    for idx, ins in enumerate(circuit.instructions):
        if ins.op == "BARRIER":
            continue
        pos += 1
        for kind, pauli, before, after in _faults_at(ins):
            run = ops[:pos] + before + [ops[pos]] + after + ops[pos + 1:]
            outcomes, fx, fz = _frame_shot(run, ref, zero, None)
            record = ShotRecord(outcomes, (idx, kind, pauli))
            cases.append(FaultCase(idx, kind, pauli, record, fx, fz))
    return cases


def _inject_op(pauli: str, q: int):
    return (_OP_INJECT, q, 0, pauli)


def _faults_at(ins: Instruction):
    """(kind, label, INJECT ops before, INJECT ops after) for each fault at ins.

    A measurement flip injects the anticommuting Pauli on both sides of
    the measurement: the outcome flips and the residual frame does not.
    """
    if ins.op == "H":
        return [("gate1", p, [], [_inject_op(p, ins.qubits[0])]) for p in _PAULIS_1Q]
    if ins.op == "CNOT":
        out = []
        for pidx in range(1, 16):
            pc, pt = _P1Q[pidx >> 2], _P1Q[pidx & 3]
            after = [_inject_op(p, q) for p, q in zip((pc, pt), ins.qubits) if p != "I"]
            out.append(("gate2", pc + pt, [], after))
        return out
    if ins.op in ("PREPZ", "PREPX"):
        p = "X" if ins.op == "PREPZ" else "Z"
        return [("prep", p, [], [_inject_op(p, ins.qubits[0])])]
    if ins.op in ("MEASZ", "MEASX"):
        flip = [_inject_op("X" if ins.op == "MEASZ" else "Z", ins.qubits[0])]
        return [("meas", "flip", flip, flip)]
    return []


def noiseless_frames(circuit: Circuit) -> tuple[ShotRecord, int, int]:
    """Noiseless frame run; returns the record and the residual (x, z) frames.

    Injected Paulis in the circuit propagate like faults, so this exposes
    where an explicit injection ends up at circuit end.
    """
    ops = _compile(circuit)
    ref = reference_record(circuit, 0).outcomes
    outcomes, x, z = _frame_shot(ops, ref, NoiseModel.zero(), None)
    return ShotRecord(outcomes), x, z
