"""Constructors for the classical seed codes and the quantum code family.

Builds parity/repetition codes and their concatenations, takes hypergraph
products, and applies the check-recombination transform that discards the
secondary (check-by-check) lattice with a checkerboard recombination
plan.  The flagship 25-qubit distance-3 code ships as canned data; the
transform reproduces its row spaces from the hypergraph product of the
[5,2,3] seed code with itself.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from operator import xor

from .css_code import CssCode
from .f2linalg import BitMatrix, Frozen, support_to_mask

MAX_CODEWORD_ENUM_K = 22


class ClassicalCode(Frozen):
    """Linear binary code given by its parity checks H."""

    _fields = ("name", "H")

    def __init__(self, name: str, H: BitMatrix):
        vars(self).update(name=name, H=H)

    @property
    def n(self) -> int:
        return self.H.cols

    @cached_property
    def G(self) -> BitMatrix:
        """Generator: the reduced basis of the kernel of H."""
        return self.H.kernel_basis().rref()[0]

    @property
    def k(self) -> int:
        return self.G.rows


def min_codeword_weight(G: BitMatrix) -> int | None:
    """Exact minimum weight over nonzero codewords, or None if k too large."""
    if not 0 < G.rows <= MAX_CODEWORD_ENUM_K:
        return None
    # Gray-code order: consecutive codewords differ by one generator row
    steps = (G.row((t & -t).bit_length() - 1) for t in range(1, 1 << G.rows))
    return min(v.bit_count() for v in accumulate(steps, xor))


def _unit_rows(cols, n: int) -> BitMatrix:
    """Rows e_c for each c in cols, as vectors of length n."""
    return BitMatrix.from_ints([1 << c for c in cols], n)


def parity_code(l: int) -> ClassicalCode:
    """[l, l-1, 2] code with a single global parity check."""
    if l < 2:
        raise ValueError("parity code needs l >= 2")
    return ClassicalCode(f"parity_{l}", BitMatrix.from_ints([(1 << l) - 1], l))


def repetition_code(c: int) -> ClassicalCode:
    """[c, 1, c] code; adjacent-pair checks form a chain."""
    if c < 1:
        raise ValueError("repetition code needs c >= 1")
    rows = [(0b11 << i) for i in range(c - 1)]
    return ClassicalCode(f"repetition_{c}", BitMatrix.from_ints(rows, c))


def concatenate(outer: ClassicalCode, inner_per_bit) -> ClassicalCode:
    """Replace each outer bit with a one-logical-bit inner block.

    Blocks are laid out contiguously in outer-bit order with the
    representative bit first; outer checks are lifted onto the
    representative bit of each block.  Every inner code must have k = 1
    and a codeword whose first coordinate is 1 (so the representative
    carries the encoded bit).
    """
    if len(inner_per_bit) != outer.n:
        raise ValueError("need exactly one inner code per outer bit")
    for inner in inner_per_bit:
        if inner.k != 1:
            raise ValueError("inner codes must encode a single bit")
        if not inner.G.get(0, 0):
            raise ValueError("inner codeword must cover the representative bit")
    *offsets, n = accumulate((inner.n for inner in inner_per_bit), initial=0)

    # row j of lift is the representative bit of block j
    lift = _unit_rows(offsets, n)
    inner_h = BitMatrix.from_ints([r << off for inner, off in zip(inner_per_bit, offsets)
                                   for r in inner.H.data], n)
    return ClassicalCode(f"{outer.name}_concat", inner_h.vstack(outer.H @ lift))


def weight_reduce(l: int) -> ClassicalCode:
    """[2l-3, l-1, 2] chain form of the l-bit parity code.

    Introduces l-3 auxiliary bits so that the single weight-l check
    becomes l-2 checks of weight at most 3; the last check stays
    invariant under swapping the last two data bits.  Data bits occupy
    columns 0..l-1, auxiliary bits follow.
    """
    if l < 3:
        raise ValueError("weight reduction needs l >= 3")
    # link is what a check shares with the one before it: data bits 0 and 1
    # for the first, then auxiliary bit l + t and data bit t + 2
    rows, link = [], 0b11
    for t in range(l - 3):
        rows.append(link | 1 << (l + t))
        link = 1 << (l + t) | 1 << (t + 2)
    rows.append(link | 1 << (l - 1))
    return ClassicalCode(f"weight_reduced_{l}", BitMatrix.from_ints(rows, 2 * l - 3))


def parent_code_5_2_3() -> ClassicalCode:
    """The [5,2,3] seed code in its canonical bit ordering.

    Equals concatenate(parity_code(3), [rep2, triv, rep2]) up to the
    documented column relabeling (see tests); the canonical ordering puts
    the two repetition pairs at columns {0,1} and {3,4} with the bare
    parity bit at column 2, giving the banded check chain below.
    """
    return ClassicalCode("parent_5_2_3", BitMatrix.from_strings(["11000", "01110", "00011"]))


# --- hypergraph product ------------------------------------------------


def hypergraph_product(h: BitMatrix) -> CssCode:
    """Hypergraph product of a classical check matrix with itself (see
    `_product`); the distance d is the classical distance of h."""
    return _product(h, h).replace(d=min_codeword_weight(h.kernel_basis()))


def _product(hv: BitMatrix, hh: BitMatrix) -> CssCode:
    """Hypergraph product of two classical check matrices, without its distance.

    The first factor runs vertically (primary rows), the second
    horizontally (primary columns).  Primary qubits are labeled
    ("P", i, j) with 1-based lattice coordinates; secondary (check-by-check)
    qubits are ("S", i', j') and occupy the trailing columns.  X checks act
    on primary columns, Z checks on primary rows.  Both factors must have
    full row rank (no redundant checks).

    With Hv (mv x nv) vertical and Hh (mh x nh) horizontal:
    hx = [Hv (x) I_nh | I_mv (x) Hh^T], hz = [I_nv (x) Hh | Hv^T (x) I_mh];
    logical X (a, b) is e_pv[a] (x) gh_b and logical Z (a, b) is
    gv_a (x) e_ph[b], where g are the reduced kernel bases and p their pivots.
    """
    mv, nv = hv.rows, hv.cols
    mh, nh = hh.rows, hh.cols
    if hv.rank() != mv or hh.rank() != mh:
        raise ValueError("hypergraph product requires full-rank check matrices")

    eye = BitMatrix.identity
    hx = hv.kron(eye(nh)).hstack(eye(mv).kron(hh.transpose()))
    hz = eye(nv).kron(hh).hstack(hv.transpose().kron(eye(mh)))
    gv, pv = hv.kernel_basis().rref()
    gh, ph = hh.kernel_basis().rref()
    logicals_x = _unit_rows(pv, nv).kron(gh).data
    logicals_z = gv.kron(_unit_rows(ph, nh)).data

    coords = tuple(
        [("P", i + 1, j + 1) for i in range(nv) for j in range(nh)]
        + [("S", ip + 1, jp + 1) for ip in range(mv) for jp in range(mh)]
    )
    return CssCode(
        n=hx.cols,
        hx=hx,
        hz=hz,
        logicals_x=logicals_x,
        logicals_z=logicals_z,
        coords=coords,
        name="hgp",
        meta=tuple(sorted((("nv", nv), ("nh", nh), ("mv", mv), ("mh", mh),
                           ("kv", gv.rows), ("kh", gh.rows)))),
    )


# --- quantum Tanner transform -------------------------------------------


def quantum_tanner_transform(code: CssCode) -> CssCode:
    """Remove every secondary qubit by same-type check recombination.

    The plan is the checkerboard: secondary qubits are visited in sorted
    (i', j') order, recombining X checks where i'+j' is even and Z checks
    where it is odd.  At each qubit, every incident check of that type is
    multiplied by the lowest-index one, which is then deleted (retaining
    another would change only the generators, never the row spaces);
    opposite-type checks are simply truncated on that qubit.  The output
    lives on the primary lattice with k and d unchanged.
    """
    sec_cols = {(c[1], c[2]): q for q, c in enumerate(code.coords) if c[0] == "S"}
    if not sec_cols:
        raise ValueError("code has no secondary qubits to remove")

    # Secondary bits are left in place until every qubit is done: a step
    # only looks at its own qubit, and each qubit is visited once.
    checks = (list(code.hx.data), list(code.hz.data))
    for coord in sorted(sec_cols):
        kind = sum(coord) % 2  # 0 recombines X checks, 1 Z checks
        grp = checks[kind]
        bit = 1 << sec_cols[coord]
        incident = [r for r, v in enumerate(grp) if v & bit]
        if not incident:
            raise ValueError(f"no incident {'XZ'[kind]} check at {coord}")
        keep = grp.pop(incident[0])
        for r in incident[1:]:
            grp[r - 1] ^= keep

    drop = sorted(sec_cols.values())
    hx, hz = (BitMatrix.from_ints(grp, code.n).delete_columns(drop) for grp in checks)
    nprim = hx.cols
    for m in code.logicals_x + code.logicals_z:
        if m >> nprim:
            raise ValueError("logical operator touches the secondary lattice")
    out = code.replace(n=nprim, hx=hx, hz=hz, name=code.name + "_qtt",
                       coords=tuple(c for c in code.coords if c[0] == "P"))
    if nprim - hx.rank() - hz.rank() != out.k:
        raise ValueError("transform changed the logical count")
    return out


# --- canned codes ---------------------------------------------------------


def _lattice_mask(rows, cols, width=5) -> int:
    return support_to_mask((i - 1) * width + (j - 1) for i in rows for j in cols)


def build_25_4_3() -> CssCode:
    """The 25-qubit, 4-logical, distance-3 code on the 5x5 lattice.

    Check supports are rectangles whose width along the corresponding
    logical grain is at most 2 (X logicals run along rows, Z logicals
    along columns).  The row spaces equal the transform of the
    hypergraph product of the [5,2,3] seed code.
    """
    zrects = [
        ([1], [1, 2]), ([1], [4, 5]), ([5], [1, 2]), ([5], [4, 5]),
        ([2, 3], [1, 2]), ([2, 3], [4, 5]), ([3, 4], [1, 2]), ([3, 4], [4, 5]),
        ([3], [2, 3, 4]), ([1, 2], [2, 3, 4]), ([4, 5], [2, 3, 4]),
    ]
    xrects = [
        ([1, 2], [3]), ([4, 5], [3]),
        ([1, 2], [1, 2]), ([4, 5], [1, 2]), ([1, 2], [4, 5]), ([4, 5], [4, 5]),
        ([2, 3, 4], [1]), ([2, 3, 4], [5]),
        ([2, 3, 4], [2, 3]), ([2, 3, 4], [3, 4]),
    ]
    hz = BitMatrix.from_ints([_lattice_mask(r, c) for r, c in zrects], 25)
    hx = BitMatrix.from_ints([_lattice_mask(r, c) for r, c in xrects], 25)
    logicals_x = (
        _lattice_mask([3], [1, 2, 3]),
        _lattice_mask([3], [1, 2, 4, 5]),
        _lattice_mask([4], [1, 2, 3]),
        _lattice_mask([4], [1, 2, 4, 5]),
    )
    logicals_z = (
        _lattice_mask([1, 2, 3], [3]),
        _lattice_mask([1, 2, 3], [4]),
        _lattice_mask([1, 2, 4, 5], [3]),
        _lattice_mask([1, 2, 4, 5], [4]),
    )
    coords = tuple(("P", i, j) for i in range(1, 6) for j in range(1, 6))
    return CssCode(
        n=25, hx=hx, hz=hz,
        logicals_x=logicals_x, logicals_z=logicals_z,
        coords=coords, d=3, name="code_25_4_3",
        meta=tuple(sorted((("l", 3), ("c", 1), ("layout", 0)))),
    )


def build_34_4_3() -> CssCode:
    """Hypergraph product of the [5,2,3] seed with itself (pre-transform)."""
    return hypergraph_product(parent_code_5_2_3().H).replace(name="code_34_4_3")


def build_generalized(l: int, c: int) -> CssCode:
    """Member of the generalized family with parameters [3(2l-3)c^2, 2(l-1), 2c].

    The vertical factor is the weight-reduced l-bit parity code
    concatenated with [c,1,c] repetition on every bit; the horizontal
    factor is the 3-bit parity code concatenated the same way.  The
    secondary lattice is removed with the checkerboard plan.
    """
    if l < 3:
        raise ValueError("need l >= 3")
    if c < 1:
        raise ValueError("need c >= 1")
    vert = concatenate(weight_reduce(l), [repetition_code(c)] * (2 * l - 3))
    horiz = concatenate(parity_code(3), [repetition_code(c)] * 3)
    return quantum_tanner_transform(_product(vert.H, horiz.H)).replace(
        d=2 * c, name=f"generalized_l{l}_c{c}",
        meta=tuple(sorted((("l", l), ("c", c), ("nv", vert.n), ("nh", horiz.n)))),
    )
