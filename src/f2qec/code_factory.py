"""Constructors for the classical seed codes and the quantum code family.

Builds parity/repetition codes and their concatenations, takes hypergraph
products, and applies the check-recombination transform that discards the
secondary (check-by-check) lattice.  The flagship 25-qubit distance-3
code ships as canned data together with the reference recombination
choice that reproduces it from the hypergraph product.
"""

from __future__ import annotations

from dataclasses import dataclass

from .css_code import CssCode
from .f2linalg import BitMatrix

MAX_CODEWORD_ENUM_K = 22


@dataclass(frozen=True)
class ClassicalCode:
    """Linear binary code given by parity checks H and generator G."""

    name: str
    n: int
    k: int
    d: int | None
    H: BitMatrix
    G: BitMatrix

    def __post_init__(self):
        if self.H.cols != self.n or self.G.cols != self.n:
            raise ValueError("matrix width disagrees with n")
        prod = self.H @ self.G.transpose()
        if any(prod.data):
            raise ValueError("H @ G.T != 0")
        if self.G.rows != self.k:
            raise ValueError("generator row count disagrees with k")


def min_codeword_weight(G: BitMatrix) -> int | None:
    """Exact minimum weight over nonzero codewords, or None if k too large."""
    if G.rows == 0:
        return None
    if G.rows > MAX_CODEWORD_ENUM_K:
        return None
    best = None
    for coeff in range(1, 1 << G.rows):
        v = 0
        c = coeff
        while c:
            i = (c & -c).bit_length() - 1
            v ^= G.row(i)
            c &= c - 1
        w = v.bit_count()
        if best is None or w < best:
            best = w
    return best


def _make_code(name: str, H: BitMatrix, n: int) -> ClassicalCode:
    G = H.kernel_basis().rref()[0]
    k = G.rows
    return ClassicalCode(name, n, k, min_codeword_weight(G), H, G)


def parity_code(l: int) -> ClassicalCode:
    """[l, l-1, 2] code with a single global parity check."""
    if l < 2:
        raise ValueError("parity code needs l >= 2")
    H = BitMatrix.from_ints([(1 << l) - 1], l)
    return _make_code(f"parity_{l}", H, l)


def repetition_code(c: int) -> ClassicalCode:
    """[c, 1, c] code; adjacent-pair checks form a chain."""
    if c < 1:
        raise ValueError("repetition code needs c >= 1")
    rows = [(0b11 << i) for i in range(c - 1)]
    H = BitMatrix.from_ints(rows, c)
    G = BitMatrix.from_ints([(1 << c) - 1], c)
    return ClassicalCode(f"repetition_{c}", c, 1, c, H, G)


def concatenate(outer: ClassicalCode, inner_per_bit) -> ClassicalCode:
    """Replace each outer bit with a one-logical-bit inner block.

    Blocks are laid out contiguously in outer-bit order with the
    representative bit first; outer checks are lifted onto the
    representative bit of each block.  Every inner code must have k = 1
    and a generator whose first coordinate is 1 (so the representative
    carries the encoded bit).
    """
    if len(inner_per_bit) != outer.n:
        raise ValueError("need exactly one inner code per outer bit")
    offsets = []
    pos = 0
    for inner in inner_per_bit:
        if inner.k != 1:
            raise ValueError("inner codes must encode a single bit")
        if not inner.G.get(0, 0):
            raise ValueError("inner generator must cover the representative bit")
        offsets.append(pos)
        pos += inner.n
    n = pos

    rows = []
    for j, inner in enumerate(inner_per_bit):
        for r in range(inner.H.rows):
            rows.append(inner.H.row(r) << offsets[j])
    for r in range(outer.H.rows):
        v = 0
        for j in range(outer.n):
            if outer.H.get(r, j):
                v |= 1 << offsets[j]
        rows.append(v)
    H = BitMatrix.from_ints(rows, n)

    grows = []
    for i in range(outer.k):
        v = 0
        for j, inner in enumerate(inner_per_bit):
            if outer.G.get(i, j):
                v |= inner.G.row(0) << offsets[j]
        grows.append(v)
    G = BitMatrix.from_ints(grows, n)
    name = f"{outer.name}_concat"
    return ClassicalCode(name, n, outer.k, min_codeword_weight(G), H, G)


def weight_reduce(l: int) -> ClassicalCode:
    """[2l-3, l-1, 2] chain form of the l-bit parity code.

    Introduces l-3 auxiliary bits so that the single weight-l check
    becomes l-2 checks of weight at most 3; the last check stays
    invariant under swapping the last two data bits.  Data bits occupy
    columns 0..l-1, auxiliary bits follow.
    """
    if l < 3:
        raise ValueError("weight reduction needs l >= 3")
    if l == 3:
        code = parity_code(3)
        return ClassicalCode("weight_reduced_3", 3, 2, 2, code.H, code.G)
    n = 2 * l - 3
    aux = lambda t: l + t  # noqa: E731 - local index helper
    rows = [(1 << 0) | (1 << 1) | (1 << aux(0))]
    for t in range(1, l - 3):
        rows.append((1 << aux(t - 1)) | (1 << (t + 1)) | (1 << aux(t)))
    rows.append((1 << aux(l - 4)) | (1 << (l - 2)) | (1 << (l - 1)))
    H = BitMatrix.from_ints(rows, n)
    return _make_code(f"weight_reduced_{l}", H, n)


def parent_code_5_2_3() -> ClassicalCode:
    """The [5,2,3] seed code in its canonical bit ordering.

    Equals concatenate(parity_code(3), [rep2, triv, rep2]) up to the
    documented column relabeling (see tests); the canonical ordering puts
    the two repetition pairs at columns {0,1} and {3,4} with the bare
    parity bit at column 2, giving the banded check chain below.
    """
    H = BitMatrix.from_strings(["11000", "01110", "00011"])
    G = BitMatrix.from_strings(["11100", "11011"])
    return ClassicalCode("parent_5_2_3", 5, 2, 3, H, G)


# --- hypergraph product ------------------------------------------------


def hypergraph_product(h: BitMatrix, h_second: BitMatrix | None = None) -> CssCode:
    """Hypergraph product of two classical check matrices (self-product by default).

    The first factor runs vertically (primary rows), the second
    horizontally (primary columns).  Primary qubits are labeled
    ("P", i, j) with 1-based lattice coordinates; secondary (check-by-check)
    qubits are ("S", i', j') and occupy the trailing columns.  X checks act
    on primary columns, Z checks on primary rows.  Both factors must have
    full row rank (no redundant checks).
    """
    hv = h
    hh = h if h_second is None else h_second
    mv, nv = hv.rows, hv.cols
    mh, nh = hh.rows, hh.cols
    if hv.rank() != mv or hh.rank() != mh:
        raise ValueError("hypergraph product requires full-rank check matrices")

    nprim = nv * nh
    n = nprim + mv * mh
    pidx = lambda i, j: i * nh + j  # noqa: E731
    sidx = lambda ip, jp: nprim + ip * mh + jp  # noqa: E731

    xrows = []
    for a in range(mv):
        for b in range(nh):
            v = 0
            for u in range(nv):
                if hv.get(a, u):
                    v |= 1 << pidx(u, b)
            for bp in range(mh):
                if hh.get(bp, b):
                    v |= 1 << sidx(a, bp)
            xrows.append(v)
    zrows = []
    for i in range(nv):
        for jp in range(mh):
            v = 0
            for w in range(nh):
                if hh.get(jp, w):
                    v |= 1 << pidx(i, w)
            for up in range(mv):
                if hv.get(up, i):
                    v |= 1 << sidx(up, jp)
            zrows.append(v)

    gv, pv = hv.kernel_basis().rref()
    gh, ph = hh.kernel_basis().rref()
    logicals_x = []
    logicals_z = []
    for alpha in range(gv.rows):
        for beta in range(gh.rows):
            xm = 0
            for j in range(nh):
                if gh.get(beta, j):
                    xm |= 1 << pidx(pv[alpha], j)
            logicals_x.append(xm)
            zm = 0
            for i in range(nv):
                if gv.get(alpha, i):
                    zm |= 1 << pidx(i, ph[beta])
            logicals_z.append(zm)

    coords = tuple(
        [("P", i + 1, j + 1) for i in range(nv) for j in range(nh)]
        + [("S", ip + 1, jp + 1) for ip in range(mv) for jp in range(mh)]
    )
    dv = min_codeword_weight(gv)
    dh = min_codeword_weight(gh)
    d = min(dv, dh) if dv is not None and dh is not None else None
    return CssCode(
        n=n,
        hx=BitMatrix.from_ints(xrows, n),
        hz=BitMatrix.from_ints(zrows, n),
        logicals_x=tuple(logicals_x),
        logicals_z=tuple(logicals_z),
        coords=coords,
        d=d,
        name="hgp",
        meta=tuple(sorted((("nv", nv), ("nh", nh), ("mv", mv), ("mh", mh),
                           ("kv", gv.rows), ("kh", gh.rows)))),
    )


# --- quantum Tanner transform -------------------------------------------


@dataclass(frozen=True)
class TannerChoice:
    """Ordered recombination plan for discarding the secondary lattice.

    Each step is ((i', j'), kind, retained) where (i', j') is a 1-based
    secondary coordinate, kind selects which check type gets recombined,
    and retained is the row index (within the current check list of that
    type) of the check that is kept on the qubit and then deleted.
    """

    steps: tuple[tuple[tuple[int, int], str, int], ...]


def _secondary_columns(code: CssCode) -> dict[tuple[int, int], int]:
    return {(c[1], c[2]): q for q, c in enumerate(code.coords) if c[0] == "S"}


def _recombine(xrows: list, zrows: list, q: int, coord, kind: str,
               retained: int | None = None) -> int:
    """One recombination step on secondary qubit q, in place; returns the retained row.

    Every check of the given kind incident on q is multiplied by the
    retained one (the lowest-index incident check when none is given),
    which is then deleted; every remaining check is truncated on q.
    """
    bit = 1 << q
    grp = xrows if kind == "X" else zrows
    incident = [r for r in range(len(grp)) if grp[r] & bit]
    if retained is None:
        if not incident:
            raise ValueError(f"no incident {kind} check at {coord}")
        retained = incident[0]
    elif retained not in incident:
        raise ValueError(f"retained check {retained} is not incident on {coord}")
    keep = grp[retained]
    for r in incident:
        if r != retained:
            grp[r] ^= keep
    del grp[retained]
    mask = ~bit
    for rows in (xrows, zrows):
        for r in range(len(rows)):
            rows[r] &= mask
    return retained


def quantum_tanner_transform(code: CssCode, choice: TannerChoice) -> CssCode:
    """Remove every secondary qubit by same-type check recombination.

    At each step, all checks of the chosen type incident on the chosen
    secondary qubit are multiplied by the retained check, which is then
    deleted along with the qubit; opposite-type checks are simply
    truncated on that qubit.  The output lives on the primary lattice
    with k and d unchanged.
    """
    sec_cols = _secondary_columns(code)
    if not sec_cols:
        raise ValueError("code has no secondary qubits to remove")
    seen = set()
    for (coord, kind, _r) in choice.steps:
        if coord not in sec_cols:
            raise ValueError(f"unknown secondary coordinate {coord}")
        if coord in seen:
            raise ValueError(f"secondary coordinate {coord} chosen twice")
        seen.add(coord)
    uncovered = set(sec_cols) - seen
    if uncovered:
        raise ValueError(f"uncovered secondary qubits: {sorted(uncovered)}")

    xrows = list(code.hx.data)
    zrows = list(code.hz.data)
    for (coord, kind, retained) in choice.steps:
        _recombine(xrows, zrows, sec_cols[coord], coord, kind, retained)

    drop = sorted(sec_cols.values())
    hx = BitMatrix.from_ints(xrows, code.n).delete_columns(drop)
    hz = BitMatrix.from_ints(zrows, code.n).delete_columns(drop)
    nprim = code.n - len(drop)
    prim_mask = (1 << nprim) - 1
    for m in code.logicals_x + code.logicals_z:
        if m & ~prim_mask:
            raise ValueError("logical operator touches the secondary lattice")
    out = CssCode(
        n=nprim,
        hx=hx,
        hz=hz,
        logicals_x=code.logicals_x,
        logicals_z=code.logicals_z,
        coords=tuple(c for c in code.coords if c[0] == "P"),
        d=code.d,
        name=code.name + "_qtt",
        meta=code.meta,
    )
    k = nprim - hx.rank() - hz.rank()
    if k != out.k:
        raise ValueError("transform changed the logical count")
    return out


def default_tanner_choice(code: CssCode) -> TannerChoice:
    """Checkerboard recombination plan: X at even (i'+j'), Z at odd.

    Secondary qubits are processed in row-major order and the retained
    check is the lowest-index incident row at that step, which makes the
    plan fully deterministic.
    """
    sec_cols = _secondary_columns(code)
    xrows = list(code.hx.data)
    zrows = list(code.hz.data)
    steps = []
    for coord in sorted(sec_cols):
        kind = "X" if (coord[0] + coord[1]) % 2 == 0 else "Z"
        retained = _recombine(xrows, zrows, sec_cols[coord], coord, kind)
        steps.append((coord, kind, retained))
    return TannerChoice(tuple(steps))


# --- canned codes ---------------------------------------------------------


def _lattice_mask(rows, cols, width=5) -> int:
    m = 0
    for i in rows:
        for j in cols:
            m |= 1 << ((i - 1) * width + (j - 1))
    return m


def build_25_4_3() -> CssCode:
    """The 25-qubit, 4-logical, distance-3 code on the 5x5 lattice.

    Check supports are rectangles whose width along the corresponding
    logical grain is at most 2 (X logicals run along rows, Z logicals
    along columns).  The row spaces equal the transform of the
    hypergraph product of the [5,2,3] seed code under the reference
    recombination choice.
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


# Reference recombination plan for the 25-qubit code, committed as data.
# Regenerated by default_tanner_choice(hypergraph_product(parent H)); the
# test suite pins the equality.
REFERENCE_TANNER_CHOICE_25_4_3 = TannerChoice((
    ((1, 1), "X", 0), ((1, 2), "Z", 1), ((1, 3), "X", 2),
    ((2, 1), "Z", 2), ((2, 2), "X", 4), ((2, 3), "Z", 3),
    ((3, 1), "X", 7), ((3, 2), "Z", 7), ((3, 3), "X", 9),
))


def build_34_4_3() -> CssCode:
    """Hypergraph product of the [5,2,3] seed with itself (pre-transform)."""
    code = hypergraph_product(parent_code_5_2_3().H)
    return CssCode(
        n=code.n, hx=code.hx, hz=code.hz,
        logicals_x=code.logicals_x, logicals_z=code.logicals_z,
        coords=code.coords, d=3, name="code_34_4_3", meta=code.meta,
    )


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
    prod = hypergraph_product(vert.H, horiz.H)
    code = quantum_tanner_transform(prod, default_tanner_choice(prod))
    return CssCode(
        n=code.n, hx=code.hx, hz=code.hz,
        logicals_x=code.logicals_x, logicals_z=code.logicals_z,
        coords=code.coords, d=2 * c, name=f"generalized_l{l}_c{c}",
        meta=tuple(sorted((("l", l), ("c", c), ("nv", vert.n), ("nh", horiz.n)))),
    )
