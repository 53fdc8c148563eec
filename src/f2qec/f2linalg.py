"""Dense GF(2) linear algebra on bit-packed matrices.

Rows are stored as Python integers (bit j = column j), so row XOR is a
single word-level operation, and row i of a product A @ B is the XOR of
B's rows over the support of A's row i.  The same packed-int bit mask
holds every Pauli operator, check and relabeled operator of the package;
the mask helpers below are its one vocabulary.  All matrices are immutable after
construction, so each is eliminated at most once and every reduced form,
rank, kernel and solution reads that one cached reduction; elimination always
picks the lowest-index pivot so reduced forms and pivot lists are
reproducible.  The transpose and the kernel basis are cached the same way.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence


def parity(a: int, b: int) -> int:
    """Inner product of two bit vectors mod 2."""
    return (a & b).bit_count() & 1


def mask_to_support(mask: int) -> tuple[int, ...]:
    """Ascending indices of the set bits of mask."""
    out = []
    while mask:
        q = (mask & -mask).bit_length() - 1
        out.append(q)
        mask &= mask - 1
    return tuple(out)


def support_to_mask(support: Iterable[int]) -> int:
    m = 0
    for q in support:
        m |= 1 << q
    return m


def vector_from_bits(bits: Iterable[int]) -> int:
    return support_to_mask(j for j, b in enumerate(bits) if b & 1)


def vector_to_bits(v: int, n: int) -> list[int]:
    return [(v >> j) & 1 for j in range(n)]


def apply_permutation(mask: int, perm: Sequence[int]) -> int:
    """Image of a mask under index relabeling q -> perm[q]."""
    return support_to_mask(perm[q] for q in mask_to_support(mask))


def inverse_permutation(perm: Sequence[int]) -> list[int]:
    """inv with inv[perm[q]] = q, so m.permute_columns(inv) relabels every row by perm."""
    inv = [0] * len(perm)
    for q, img in enumerate(perm):
        inv[img] = q
    return inv


class Frozen:
    """Base of the classes that check their fields or cache results on the
    instance, which a NamedTuple cannot.  __init__ sets the fields named in
    _fields once; equality, hash and repr read them, and replace() builds a
    changed copy through __init__, so its checks run again."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


def reject_unknown_keys(obj: dict, keys: Iterable[str], what: str) -> None:
    """Raise a ValueError naming the first key of obj, in sorted order, outside
    keys (in an input file an unknown key is a typo, not something to
    ignore), and a TypeError when obj is not a dict."""
    if not isinstance(obj, dict):
        raise TypeError(f"{what} must be a JSON object")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ValueError(f"unknown {what} key {unknown[0]!r}")


class BitMatrix(Frozen):
    """Matrix over GF(2) with one packed integer per row."""

    _fields = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: tuple[int, ...]):
        vars(self).update(rows=rows, cols=cols, data=data)
        if len(data) != rows:
            raise ValueError(f"expected {rows} rows, got {len(data)}")
        for r in data:
            # a negative row has bits past any column too
            if r >> cols:
                raise ValueError("row has bits outside the column range")

    # -- construction -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BitMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        data = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            data.append(vector_from_bits(row))
        return cls(nrows, ncols, tuple(data))

    @classmethod
    def from_ints(cls, ints: Sequence[int], cols: int) -> "BitMatrix":
        return cls(len(ints), cols, tuple(ints))

    @classmethod
    def from_strings(cls, strings: Sequence[str]) -> "BitMatrix":
        """One row per string of ASCII '0' and '1' characters."""
        for i, s in enumerate(strings):
            if not isinstance(s, str) or not set(s) <= {"0", "1"}:
                raise ValueError(f"matrix row {i} must be a string of 0 and 1, got {s!r}")
        return cls.from_rows([[int(ch) for ch in s] for s in strings])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    # -- element access ------------------------------------------------

    def row(self, i: int) -> int:
        return self.data[i]

    def get(self, i: int, j: int) -> int:
        return (self.data[i] >> j) & 1

    def row_strings(self) -> list[str]:
        return ["".join(str((r >> j) & 1) for j in range(self.cols)) for r in self.data]

    # -- algebra -------------------------------------------------------

    def transpose(self) -> "BitMatrix":
        """The transpose, whose rows are the column masks; computed once per matrix."""
        return self._transposed

    @cached_property
    def _transposed(self) -> "BitMatrix":
        out = [0] * self.cols
        for i, r in enumerate(self.data):
            # r's bits lowest first, as __matmul__ walks them; no tuple per row
            bit = 1 << i
            while r:
                low = r & -r
                out[low.bit_length() - 1] |= bit
                r ^= low
        return BitMatrix(self.cols, self.rows, tuple(out))

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        rows = other.data
        out = []
        for r in self.data:
            # other's rows over r's support, lowest bit first; no tuple per row
            v = 0
            while r:
                low = r & -r
                v ^= rows[low.bit_length() - 1]
                r ^= low
            out.append(v)
        return BitMatrix(self.rows, other.cols, tuple(out))

    def mul_vec(self, v: int) -> int:
        """Matrix times column vector; result bit i = <row i, v>."""
        out = 0
        for i, r in enumerate(self.data):
            out |= parity(r, v) << i
        return out

    def vstack(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch")
        return BitMatrix(self.rows + other.rows, self.cols, self.data + other.data)

    def hstack(self, other: "BitMatrix") -> "BitMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        data = tuple(a | (b << self.cols) for a, b in zip(self.data, other.data))
        return BitMatrix(self.rows, self.cols + other.cols, data)

    def kron(self, other: "BitMatrix") -> "BitMatrix":
        """Kronecker product; block (i,k) column index = i*other.cols + k ordering."""
        out = []
        for a in self.data:
            shifts = [j * other.cols for j in mask_to_support(a)]
            for b in other.data:
                out.append(sum(b << s for s in shifts))  # disjoint blocks: sum is OR
        return BitMatrix(self.rows * other.rows, self.cols * other.cols, tuple(out))

    def permute_columns(self, perm: Sequence[int]) -> "BitMatrix":
        """Column j of the result is column perm[j] of self."""
        if sorted(perm) != list(range(self.cols)):
            raise ValueError("not a permutation")
        return self._take_columns(perm)

    def delete_columns(self, drop: Iterable[int]) -> "BitMatrix":
        dropset = set(drop)
        return self._take_columns([j for j in range(self.cols) if j not in dropset])

    def _take_columns(self, cols: Sequence[int]) -> "BitMatrix":
        """Column j of the result is column cols[j] of self."""
        out = []
        for r in self.data:
            v = 0
            for j, pj in enumerate(cols):
                v |= ((r >> pj) & 1) << j
            out.append(v)
        return BitMatrix(self.rows, len(cols), tuple(out))

    # -- elimination ---------------------------------------------------

    @cached_property
    def _reduction(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Gauss-Jordan elimination picking the lowest-index pivot row.

        Computed once per matrix.  Each row carries a tag, the mask of the
        original rows XORed into it; returns the reduced rows, their tags
        and the ascending pivot columns.
        """
        cols = self.cols
        column_mask = (1 << cols) - 1
        # the tag rides above the column bits, so one XOR updates row and tag
        rows = [row | 1 << (cols + i) for i, row in enumerate(self.data)]
        pivots = []
        for r in range(self.rows):
            # rows r.. are zero left of the next pivot column, so it is the
            # lowest column any of them has set
            rest = 0
            for row in rows[r:]:
                rest |= row
            rest &= column_mask
            if not rest:
                break
            bit = rest & -rest
            piv = r
            while not rows[piv] & bit:
                piv += 1
            prow = rows[piv]
            rows[piv] = rows[r]
            rows = [row ^ prow if row & bit else row for row in rows]
            rows[r] = prow
            pivots.append(bit.bit_length() - 1)
        return (tuple(row & column_mask for row in rows), tuple(row >> cols for row in rows),
                tuple(pivots))

    def rref(self) -> tuple["BitMatrix", tuple[int, ...]]:
        """Reduced row echelon form and ascending pivot columns."""
        rows, _, pivots = self._reduction
        return BitMatrix(self.rows, self.cols, rows), pivots

    def rank(self) -> int:
        return len(self._reduction[2])

    def kernel_basis(self) -> "BitMatrix":
        """Rows form a basis of {x : self @ x = 0}; computed once per matrix,
        so its own cached transpose is built once too."""
        return self._kernel

    @cached_property
    def _kernel(self) -> "BitMatrix":
        rows, _, pivots = self._reduction
        pivset = set(pivots)
        free = [c for c in range(self.cols) if c not in pivset]
        # free column f and the pivot of each reduced row with f set
        basis = []
        for f in free:
            v = 1 << f
            for row, p in zip(rows, pivots):
                if (row >> f) & 1:
                    v |= 1 << p
            basis.append(v)
        return BitMatrix(len(basis), self.cols, tuple(basis))

    def in_row_space(self, v: int) -> bool:
        return self.solution_with_coefficients(v) is not None

    def row_space_equal(self, other: "BitMatrix") -> bool:
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        ra = self.rank()
        rb = other.rank()
        if ra != rb:
            return False
        return self.vstack(other).rank() == ra

    def solution_with_coefficients(self, s: int) -> int | None:
        """Coefficient mask c with XOR of rows {i : bit i of c} = s, or None."""
        rows, tags, pivots = self._reduction
        coeff = 0
        for row, tag, p in zip(rows, tags, pivots):
            if (s >> p) & 1:
                s ^= row
                coeff ^= tag
        return coeff if s == 0 else None

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "data": self.row_strings()}

    @classmethod
    def from_json(cls, obj: dict) -> "BitMatrix":
        reject_unknown_keys(obj, ("rows", "cols", "data"), "matrix")
        for key in ("rows", "cols"):
            # true and false are not integers here
            if type(obj[key]) is not int:
                raise ValueError(f"matrix {key} must be an int, got {obj[key]!r}")
        m = cls.from_strings(obj["data"]) if obj["data"] else cls.zeros(0, obj["cols"])
        if m.rows != obj["rows"] or m.cols != obj["cols"]:
            raise ValueError("inconsistent shape in serialized matrix")
        return m
