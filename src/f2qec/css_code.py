"""CSS stabilizer code container and analysis.

A code is a pair of GF(2) check matrices (hx, hz) with hx @ hz.T = 0,
plus explicit logical operator supports and optional per-qubit lattice
coordinates.  Pauli operators are represented as packed bit masks over
the qubit indices (bit q = qubit q), with the mask helpers of f2linalg.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import comb
from typing import NamedTuple

from .f2linalg import (BitMatrix, Frozen, apply_permutation, inverse_permutation,
                       mask_to_support, parity, reject_unknown_keys, support_to_mask)

MAX_DISTANCE_ENUM = 10**7


class CssCode(Frozen):
    _fields = ("n", "hx", "hz", "logicals_x", "logicals_z", "coords", "d", "name", "meta")

    def __init__(self, n: int, hx: BitMatrix, hz: BitMatrix,
                 logicals_x: tuple[int, ...],  # one mask per logical qubit
                 logicals_z: tuple[int, ...], coords: tuple[tuple, ...] = (),
                 d: int | None = None, name: str = "", meta: tuple[tuple[str, int], ...] = ()):
        vars(self).update(n=n, hx=hx, hz=hz, logicals_x=logicals_x, logicals_z=logicals_z,
                          coords=coords, d=d, name=name, meta=meta)
        # true and false are not integers here
        if type(self.n) is not int:
            raise ValueError(f"n must be an int, got {self.n!r}")
        if self.hx.cols != self.n or self.hz.cols != self.n:
            raise ValueError(f"check matrices have {self.hx.cols} and {self.hz.cols} "
                             f"columns, but n = {self.n!r}")
        for m in self.logicals_x + self.logicals_z:
            if m >> self.n:
                raise ValueError(f"logical operator {m:#x} acts outside the {self.n} qubits")
        # true and false are not integers here
        if self.d is not None and (type(self.d) is not int or self.d < 1):
            raise ValueError(f"distance d must be a positive integer or null, got {self.d!r}")
        if self.coords and (len(self.coords) != self.n or not all(
                len(c) == 3 and isinstance(c[0], str) and type(c[1]) is type(c[2]) is int
                for c in self.coords)):
            raise ValueError(f"coords must be {self.n} [label, row, col] triples")

    @property
    def k(self) -> int:
        return len(self.logicals_x)

    @property
    def logical_x_product(self) -> int:
        """Support of the product of every logical X."""
        out = 0
        for m in self.logicals_x:
            out ^= m
        return out

    def meta_get(self, key: str) -> int | None:
        for k, v in self.meta:
            if k == key:
                return v
        return None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "name": self.name,
            "coords": [list(c) for c in self.coords],
            "hx": self.hx.to_json(),
            "hz": self.hz.to_json(),
            "logicals": {
                "x": [list(mask_to_support(m)) for m in self.logicals_x],
                "z": [list(mask_to_support(m)) for m in self.logicals_z],
            },
            "meta": {k: v for k, v in self.meta},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CssCode":
        """Inverse of to_json; k, d, name, coords and meta may be left out."""
        reject_unknown_keys(obj, ("n", "k", "d", "name", "coords", "hx", "hz", "logicals", "meta"),
                            "code")
        reject_unknown_keys(obj["logicals"], ("x", "z"), "logicals")
        lx = tuple(_support_mask(s, "x") for s in obj["logicals"]["x"])
        lz = tuple(_support_mask(s, "z") for s in obj["logicals"]["z"])
        k = obj.get("k", len(lx))
        # true and false are not integers here
        if type(k) is not int or k != len(lx) or k != len(lz):
            raise ValueError(f"k = {json.dumps(k)}, but the file lists {len(lx)} X and "
                             f"{len(lz)} Z logicals")
        return cls(
            n=obj["n"],
            hx=_matrix(obj, "hx"),
            hz=_matrix(obj, "hz"),
            logicals_x=lx,
            logicals_z=lz,
            coords=tuple(tuple(c) for c in obj.get("coords", [])),
            d=obj.get("d"),
            name=obj.get("name", ""),
            meta=tuple(sorted(obj.get("meta", {}).items())),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def loads(cls, s: str) -> "CssCode":
        return cls.from_json(json.loads(s))


def _support_mask(support, basis: str) -> int:
    """A code file's logical support as a mask: a list of distinct qubit indices."""
    if not isinstance(support, list) or not all(type(q) is int and q >= 0 for q in support) \
            or len(set(support)) != len(support):
        raise ValueError(f"logicals.{basis} support must list distinct qubit indices, "
                         f"got {json.dumps(support)}")
    return support_to_mask(support)


def _matrix(obj: dict, name: str) -> BitMatrix:
    try:
        return BitMatrix.from_json(obj[name])
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


class Diagnostics(NamedTuple):
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, cond: bool, message: str):
        if not cond:
            self.failures.append(message)


def validate(code: CssCode) -> Diagnostics:
    """Check commutation, rank consistency, and symplectic pairing."""
    diag = Diagnostics([])
    for i, row in enumerate((code.hx @ code.hz.transpose()).data):
        for j in mask_to_support(row):
            diag.check(False, f"hx row {i} anticommutes with hz row {j}")
    k = code.n - code.hx.rank() - code.hz.rank()
    diag.check(k == code.k, f"rank-derived k={k} but {code.k} logical pairs given")
    diag.check(len(code.logicals_x) == len(code.logicals_z), "unpaired logicals")
    for i, lx in enumerate(code.logicals_x):
        for j, lz in enumerate(code.logicals_z):
            diag.check(parity(lx, lz) == (i == j), f"logical pairing failure at ({i}, {j})")
    for i, lx in enumerate(code.logicals_x):
        diag.check(not code.hz.mul_vec(lx), f"logical X {i} anticommutes with a Z check")
        diag.check(not code.hx.in_row_space(lx), f"logical X {i} is a stabilizer")
    for i, lz in enumerate(code.logicals_z):
        diag.check(not code.hx.mul_vec(lz), f"logical Z {i} anticommutes with an X check")
        diag.check(not code.hz.in_row_space(lz), f"logical Z {i} is a stabilizer")
    return diag


def distance(code: CssCode, w_max: int) -> tuple[int | None, int | None]:
    """Minimum logical operator weights (d_x, d_z) by exhaustive search.

    Searches supports of increasing weight; None means no logical of
    weight <= w_max exists.  A weight-w support has zero syndrome exactly
    when its last column's syndrome is the XOR of the other w - 1
    columns', so only the (w - 1)-subsets are enumerated and the last
    column is looked up by syndrome, above the subset's last index.
    Refuses searches beyond MAX_DISTANCE_ENUM candidate supports.
    """
    total = sum(comb(code.n, w) for w in range(1, w_max + 1))
    if total > MAX_DISTANCE_ENUM:
        raise ValueError(f"enumeration of {total} supports exceeds the feasibility bound")
    dx = _min_weight_logical(code.hz, code.hx, w_max)
    dz = _min_weight_logical(code.hx, code.hz, w_max)
    return dx, dz


def _min_weight_logical(h_other: BitMatrix, h_same: BitMatrix, w_max: int) -> int | None:
    # Column syndromes against the opposite-type checks, and the columns of
    # each syndrome in ascending order.
    cols = h_other.transpose().data
    by_syndrome = {}
    for q, syn in enumerate(cols):
        by_syndrome.setdefault(syn, []).append(q)
    for w in range(1, w_max + 1):
        # the last column lies above the subset's, so the subset ends below n - 1
        for combo in combinations(range(len(cols) - 1), w - 1):
            syn = 0
            for q in combo:
                syn ^= cols[q]
            last = combo[-1] if combo else -1
            for q in by_syndrome.get(syn, ()):
                if q > last and not h_same.in_row_space(support_to_mask(combo) | 1 << q):
                    return w
    return None


class LogicalCliffordAction(NamedTuple):
    """Action of a qubit permutation on the logical algebra.

    Row i of x_matrix gives the image of logical X_i in the logical X
    basis (modulo stabilizers); z_matrix likewise for logical Z.
    """

    x_matrix: BitMatrix
    z_matrix: BitMatrix

    @property
    def k(self) -> int:
        return self.x_matrix.rows

    def is_identity(self) -> bool:
        return self.x_matrix == BitMatrix.identity(self.k)

    def cnot_pairs(self) -> tuple[tuple[int, int], ...] | None:
        """Decompose into commuting CNOTs (control, target), or None.

        Succeeds when x_matrix = I + N with every target row untouched,
        which covers paired CNOTs and fanouts.
        """
        k = self.k
        pairs = []
        targets = set()
        for i in range(k):
            row = self.x_matrix.row(i)
            if not (row >> i) & 1:
                return None
            for t in mask_to_support(row ^ (1 << i)):
                pairs.append((i, t))
                targets.add(t)
        for t in targets:
            if self.x_matrix.row(t) != 1 << t:
                return None
        return tuple(sorted(pairs))


def is_automorphism(code: CssCode, perm) -> bool:
    inverse = inverse_permutation(perm)
    return all(h.permute_columns(inverse).row_space_equal(h) for h in (code.hx, code.hz))


def permutation_logical_action(code: CssCode, perm) -> LogicalCliffordAction:
    """Logical CNOT-type action induced by an automorphism permutation.

    Each permuted logical is re-expressed in the logical basis modulo the
    same-type stabilizer rows; raises ValueError when perm does not
    preserve both check row spaces.
    """
    if sorted(perm) != list(range(code.n)):
        raise ValueError("perm is not a permutation of the qubit indices")
    if not is_automorphism(code, perm):
        raise ValueError("permutation is not a code automorphism")
    xa = _action_rows(code.hx, code.logicals_x, perm, code.n)
    za = _action_rows(code.hz, code.logicals_z, perm, code.n)
    act = LogicalCliffordAction(xa, za)
    if (act.x_matrix @ act.z_matrix.transpose()) != BitMatrix.identity(code.k):
        raise ValueError("logical action does not preserve commutation relations")
    return act


def _action_rows(h: BitMatrix, logicals, perm, n: int) -> BitMatrix:
    basis = BitMatrix.from_ints(list(h.data) + list(logicals), n)
    rows = []
    for mask in logicals:
        coeff = basis.solution_with_coefficients(apply_permutation(mask, perm))
        if coeff is None:
            raise ValueError("permuted logical leaves the stabilizer+logical span")
        rows.append(coeff >> h.rows)
    return BitMatrix.from_ints(rows, len(logicals))
