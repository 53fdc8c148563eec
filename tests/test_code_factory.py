import hashlib
import json
from itertools import accumulate

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from f2qec.code_factory import (
    ClassicalCode,
    _product,
    build_25_4_3,
    build_34_4_3,
    build_generalized,
    concatenate,
    hypergraph_product,
    min_codeword_weight,
    parent_code_5_2_3,
    parity_code,
    quantum_tanner_transform,
    repetition_code,
    weight_reduce,
)
from f2qec.css_code import validate
from f2qec.f2linalg import BitMatrix, mask_to_support

from conftest import code_distances, gauss_rank, min_codeword_weight_bruteforce, to_lists


def test_parity_code_examples():
    c3 = parity_code(3)
    assert (c3.n, c3.k, min_codeword_weight(c3.G)) == (3, 2, 2)
    assert c3.H.row_strings() == ["111"]
    c2 = parity_code(2)
    assert (c2.n, c2.k, min_codeword_weight(c2.G)) == (2, 1, 2)
    assert c2.H.row_strings() == ["11"]
    c5 = parity_code(5)
    assert (c5.n, c5.k, min_codeword_weight(c5.G)) == (5, 4, 2)
    assert c5.H.row_strings() == ["11111"]
    with pytest.raises(ValueError):
        parity_code(1)


def test_repetition_code_examples():
    c1 = repetition_code(1)
    assert (c1.n, c1.k, min_codeword_weight(c1.G)) == (1, 1, 1)
    assert c1.H.rows == 0
    c2 = repetition_code(2)
    assert c2.H.row_strings() == ["11"]
    assert (c2.n, c2.k, min_codeword_weight(c2.G)) == (2, 1, 2)
    c3 = repetition_code(3)
    assert c3.H.row_strings() == ["110", "011"]
    assert (c3.n, c3.k, min_codeword_weight(c3.G)) == (3, 1, 3)


def test_concatenate_parity_with_repetition_pairs():
    out = concatenate(parity_code(3), [repetition_code(2), repetition_code(2), repetition_code(1)])
    assert (out.n, out.k, min_codeword_weight(out.G)) == (5, 2, 3)
    # documented column relabeling onto the canonical [5,2,3] ordering:
    # canonical column j holds our column perm[j]
    perm = [1, 0, 4, 2, 3]
    reordered = out.H.permute_columns(perm)
    canon = parent_code_5_2_3()
    assert sorted(reordered.data) == sorted(canon.H.data)
    assert reordered.row_space_equal(canon.H)


def test_concatenate_trivial_inners_is_identity():
    base = parity_code(4)
    out = concatenate(base, [repetition_code(1)] * 4)
    assert out.H.data == base.H.data
    assert (out.n, out.k, min_codeword_weight(out.G)) == (base.n, base.k, min_codeword_weight(base.G))


def test_concatenate_generalized_family_parameters():
    for l, c in ((3, 2), (4, 2), (5, 3)):
        vert = concatenate(weight_reduce(l), [repetition_code(c)] * (2 * l - 3))
        assert (vert.n, vert.k, min_codeword_weight(vert.G)) == ((2 * l - 3) * c, l - 1, 2 * c)
        assert min_codeword_weight(vert.G) == min_codeword_weight_bruteforce(to_lists(vert.G))


def test_concatenate_shape_mismatch():
    with pytest.raises(ValueError):
        concatenate(parity_code(3), [repetition_code(2)])


def test_weight_reduce_small_cases():
    w3 = weight_reduce(3)
    assert (w3.n, w3.k, min_codeword_weight(w3.G)) == (3, 2, 2)
    assert w3.H.row_strings() == ["111"]
    w4 = weight_reduce(4)
    assert (w4.n, w4.k, min_codeword_weight(w4.G)) == (5, 3, 2)
    assert w4.H.rows == 2
    assert all(w4.H.row(r).bit_count() <= 3 for r in range(2))
    w5 = weight_reduce(5)
    assert (w5.n, w5.k, min_codeword_weight(w5.G)) == (7, 4, 2)
    assert w5.H.rows == 3
    assert all(w5.H.row(r).bit_count() <= 3 for r in range(3))
    assert min_codeword_weight(w5.G) == min_codeword_weight_bruteforce(to_lists(w5.G))


def test_weight_reduce_last_pair_swap_is_automorphism():
    for l in (4, 5, 6):
        code = weight_reduce(l)
        perm = list(range(code.n))
        perm[l - 2], perm[l - 1] = perm[l - 1], perm[l - 2]
        permuted = code.H.permute_columns(perm)
        assert permuted.row_space_equal(code.H)
        # the closing chain check is itself invariant
        last = max(range(code.H.rows), key=lambda r: code.H.row(r) >> (l - 2) & 1)
        assert permuted.row(last) == code.H.row(last)


# check matrices of 1..7 bits, rank-deficient ones included (repeated or dependent rows)
_check_matrices = st.integers(1, 7).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), max_size=5).map(
        lambda rows: BitMatrix.from_ints(rows, n)))


@given(_check_matrices)
@example(parent_code_5_2_3().H)
def test_parent_code_matches_generator_orthogonality(h):
    c = ClassicalCode("random", h)
    prod = c.H @ c.G.transpose()
    assert all(r == 0 for r in prod.data)
    assert gauss_rank(to_lists(c.G)) == c.G.rows == c.k
    assert c.k == c.n - gauss_rank(to_lists(h))
    assert min_codeword_weight(c.G) == min_codeword_weight_bruteforce(to_lists(c.G))


@given(_check_matrices.filter(lambda h: h.cols <= 4), st.data())
def test_concatenated_generator_spans_outer_codewords_on_representatives(h, data):
    outer = ClassicalCode("outer", h)
    inners = [repetition_code(data.draw(st.integers(1, 3))) for _ in range(outer.n)]
    out = concatenate(outer, inners)
    # row j of reps is block j's inner codeword, shifted to the block's offset
    *offsets, n = accumulate((inner.n for inner in inners), initial=0)
    reps = BitMatrix.from_ints([inner.G.row(0) << off for inner, off in zip(inners, offsets)], n)
    assert out.n == n and out.k == outer.k
    assert out.G.row_space_equal(outer.G @ reps)


def test_hypergraph_product_parameter_formula():
    cases = [
        (parent_code_5_2_3(), (34, 4, 3)),
        (parity_code(2), (5, 1, 2)),
        (parity_code(3), (10, 4, 2)),
    ]
    for classical, (n, k, d) in cases:
        code = hypergraph_product(classical.H)
        assert code.n == classical.n ** 2 + (classical.n - classical.k) ** 2 == n
        assert code.k == classical.k ** 2 == k
        # distance verified by an independent enumeration oracle
        dx, dz = code_distances(code.to_json(), d)
        assert (dx, dz) == (d, d)
        assert validate(code).ok
        prod = code.hx @ code.hz.transpose()
        assert all(r == 0 for r in prod.data)


def test_hypergraph_product_rejects_redundant_checks():
    redundant = BitMatrix.from_strings(["110", "110"])
    with pytest.raises(ValueError):
        hypergraph_product(redundant)


def test_hypergraph_product_formula_random_small_inputs():
    import random

    rng = random.Random(2)
    found = 0
    while found < 6:
        n = rng.randint(2, 5)
        m = rng.randint(1, n - 1)
        h = BitMatrix.from_rows([[rng.randint(0, 1) for _ in range(n)] for _ in range(m)])
        if h.rank() != m:
            continue
        g = h.kernel_basis()
        d_classical = min_codeword_weight_bruteforce(to_lists(g))
        if d_classical is None:
            continue
        code = hypergraph_product(h)
        k = n - m
        assert code.n == n * n + m * m
        assert code.k == k * k
        assert code_distances(code.to_json(), d_classical) == (d_classical, d_classical)
        found += 1


def _hgp_entrywise(hv, hh):
    """hx, hz and logicals of the product, entry by entry from its definition."""
    (mv, nv), (mh, nh) = (hv.rows, hv.cols), (hh.rows, hh.cols)
    prim = lambda i, j: 1 << (i * nh + j)  # noqa: E731
    sec = lambda i, j: 1 << (nv * nh + i * mh + j)  # noqa: E731
    hx = [sum(prim(u, b) for u in range(nv) if hv.get(a, u))
          + sum(sec(a, c) for c in range(mh) if hh.get(c, b))
          for a in range(mv) for b in range(nh)]
    hz = [sum(prim(i, w) for w in range(nh) if hh.get(c, w))
          + sum(sec(u, c) for u in range(mv) if hv.get(u, i))
          for i in range(nv) for c in range(mh)]
    gv, pv = hv.kernel_basis().rref()
    gh, ph = hh.kernel_basis().rref()
    lx = [sum(prim(pv[a], j) for j in range(nh) if gh.get(b, j))
          for a in range(gv.rows) for b in range(gh.rows)]
    lz = [sum(prim(i, ph[b]) for i in range(nv) if gv.get(a, i))
          for a in range(gv.rows) for b in range(gh.rows)]
    return hx, hz, lx, lz


def test_hypergraph_product_matches_entrywise_definition():
    import random

    rng = random.Random(5)
    pairs = [(parent_code_5_2_3().H, parent_code_5_2_3().H)]
    while len(pairs) < 40:
        h = []
        for _ in range(2):
            n = rng.randint(2, 6)
            m = rng.randint(1, n - 1)
            h.append(BitMatrix.from_rows([[rng.randint(0, 1) for _ in range(n)]
                                          for _ in range(m)]))
        if all(f.rank() == f.rows for f in h):
            pairs.append(tuple(h))
    for hv, hh in pairs:
        code = _product(hv, hh)  # the two-factor product that build_generalized takes
        hx, hz, lx, lz = _hgp_entrywise(hv, hh)
        assert list(code.hx.data) == hx and list(code.hz.data) == hz
        assert list(code.logicals_x) == lx and list(code.logicals_z) == lz


def test_qtt_on_five_qubit_product():
    code = hypergraph_product(parity_code(2).H)
    assert code.n == 5
    out = quantum_tanner_transform(code)
    assert out.n == 4
    assert out.k == 1
    assert (code_distances(out.to_json(), 2)) == (2, 2)
    prod = out.hx @ out.hz.transpose()
    assert all(r == 0 for r in prod.data)


@pytest.mark.parametrize("build", [
    build_25_4_3,                                                          # canned flagship
    lambda: quantum_tanner_transform(hypergraph_product(parity_code(2).H)),  # already transformed
], ids=["flagship", "transformed"])
def test_qtt_rejects_codes_without_secondary_qubits(build):
    with pytest.raises(ValueError, match="no secondary qubits"):
        quantum_tanner_transform(build())


def test_reference_choice_reproduces_flagship_row_spaces():
    hgp = build_34_4_3()
    out = quantum_tanner_transform(hgp)
    flagship = build_25_4_3()
    assert out.n == flagship.n == 25
    assert out.k == flagship.k == 4
    assert out.hx.row_space_equal(flagship.hx)
    assert out.hz.row_space_equal(flagship.hz)


def _digest(code):
    text = json.dumps(code.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_construction_is_pinned_byte_for_byte():
    # digests of the serialized codes; any change to a generator, a logical
    # representative, a coordinate or a metadata field shows up here
    assert _digest(build_34_4_3()) == "9c866e6855615b23"
    qtt = quantum_tanner_transform(build_34_4_3())
    assert _digest(qtt) == "3a621730d6d24e00"
    pinned = {(3, 1): "a621178feca685d4", (4, 1): "3ca92fb816374c89",
              (4, 2): "bc366e476f0877f6", (5, 2): "00c6bfaa34819354",
              (6, 3): "c744003afbf0225d"}
    for (l, c), digest in pinned.items():
        assert _digest(build_generalized(l, c)) == digest, (l, c)


def test_flagship_code_checks_and_logicals():
    code = build_25_4_3()
    assert (code.n, code.k, code.d) == (25, 4, 3)
    assert code.hx.rows == 10 and code.hz.rows == 11
    weights = sorted(code.hx.row(r).bit_count() for r in range(10))
    assert weights == [2, 2, 3, 3, 4, 4, 4, 4, 6, 6]
    # logical supports on the 5x5 lattice, 1-based (row, col)
    def coords(mask):
        return [(q // 5 + 1, q % 5 + 1) for q in mask_to_support(mask)]

    assert coords(code.logicals_x[0]) == [(3, 1), (3, 2), (3, 3)]
    assert coords(code.logicals_x[1]) == [(3, 1), (3, 2), (3, 4), (3, 5)]
    assert coords(code.logicals_x[2]) == [(4, 1), (4, 2), (4, 3)]
    assert coords(code.logicals_x[3]) == [(4, 1), (4, 2), (4, 4), (4, 5)]
    assert coords(code.logicals_z[0]) == [(1, 3), (2, 3), (3, 3)]
    assert coords(code.logicals_z[2]) == [(1, 3), (2, 3), (4, 3), (5, 3)]
    # every logical X sits on one lattice row, every logical Z on one column
    for m in code.logicals_x:
        assert len({q // 5 for q in mask_to_support(m)}) == 1
    for m in code.logicals_z:
        assert len({q % 5 for q in mask_to_support(m)}) == 1
    assert validate(code).ok


def test_build_generalized_parameters():
    for l, c, wmax in ((3, 1, 2), (4, 1, 2), (3, 2, 4)):
        code = build_generalized(l, c)
        assert code.n == 3 * (2 * l - 3) * c * c
        assert code.k == 2 * (l - 1)
        assert code.d == 2 * c
        assert validate(code).ok
        assert code_distances(code.to_json(), wmax) == (2 * c, 2 * c)


def test_build_generalized_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_generalized(2, 1)
    with pytest.raises(ValueError):
        build_generalized(3, 0)


def test_csscode_json_round_trip():
    code = build_25_4_3()
    from f2qec.css_code import CssCode

    again = CssCode.loads(code.dumps())
    assert again.hx == code.hx and again.hz == code.hz
    assert again.logicals_x == code.logicals_x
    assert again.coords == code.coords
    assert again.meta == code.meta


@st.composite
def _css_codes(draw):
    from f2qec.css_code import CssCode

    n = draw(st.integers(1, 12))
    masks = st.integers(0, (1 << n) - 1)
    k = draw(st.integers(0, 4))
    nrows_x, nrows_z = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    meta = draw(st.dictionaries(st.sampled_from(["l", "c", "nv", "nh"]), st.integers(0, 9)))
    return CssCode(
        n=n,
        hx=BitMatrix.from_ints(draw(st.lists(masks, min_size=nrows_x, max_size=nrows_x)), n),
        hz=BitMatrix.from_ints(draw(st.lists(masks, min_size=nrows_z, max_size=nrows_z)), n),
        logicals_x=tuple(draw(st.lists(masks, min_size=k, max_size=k))),
        logicals_z=tuple(draw(st.lists(masks, min_size=k, max_size=k))),
        coords=tuple(("P", q // 5 + 1, q % 5 + 1) for q in range(n)),
        d=draw(st.one_of(st.none(), st.integers(1, 9))),
        name=draw(st.text("abcdefgh_0123456789", max_size=12)),
        meta=tuple(sorted(meta.items())),
    )


@given(_css_codes())
def test_csscode_json_round_trip_property(code):
    from f2qec.css_code import CssCode

    assert CssCode.from_json(json.loads(json.dumps(code.to_json()))) == code
