import json
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from f2qec.f2linalg import (
    BitMatrix,
    apply_permutation,
    inverse_permutation,
    mask_to_support,
    parity,
    support_to_mask,
    vector_from_bits,
    vector_to_bits,
)

from conftest import all_span_vectors, gauss_jordan, gauss_rank, matvec, to_lists


def random_matrix(rng, rows, cols):
    return BitMatrix.from_rows([[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)])


def test_rank_identity_and_zero():
    assert BitMatrix.identity(3).rank() == 3
    assert BitMatrix.zeros(2, 5).rank() == 0


def test_rank_of_banded_parent_check_matrix():
    # 3x5 chain of checks; elimination by hand gives three independent rows
    h = BitMatrix.from_strings(["11000", "01110", "00011"])
    assert h.rank() == 3


def test_from_strings_takes_only_ascii_zero_and_one():
    assert BitMatrix.from_strings(["10", "01"]) == BitMatrix.identity(2)
    # int() keeps the low bit of '2' and reads other scripts' digits
    for rows in (["10", "02"], ["1\u0661"], ["1 "], ["10", 1]):
        with pytest.raises(ValueError, match=f"row {len(rows) - 1}"):
            BitMatrix.from_strings(rows)


def test_rref_identity_and_single_row():
    red, piv = BitMatrix.identity(3).rref()
    assert red == BitMatrix.identity(3)
    assert piv == (0, 1, 2)
    red, piv = BitMatrix.from_strings(["11"]).rref()
    assert red.row_strings() == ["11"]
    assert piv == (0,)


def test_rref_of_two_row_generator():
    g = BitMatrix.from_strings(["11100", "11011"])
    red, piv = g.rref()
    # already echelon up to identification of its pivot pair
    assert piv == (0, 2)
    assert red.rank() == 2
    assert red.row_space_equal(g)


def test_kernel_of_single_parity_row_enumerated():
    h = BitMatrix.from_strings(["111"])
    kernel = h.kernel_basis()
    # oracle: all 8 vectors
    expected = {v for v in range(8) if bin(v).count("1") % 2 == 0}
    spanned = {0}
    for r in kernel.data:
        spanned |= {s ^ r for s in spanned}
    assert spanned == expected
    assert kernel.rows == 2


def test_kernel_basis_is_built_once_per_matrix():
    # like the transpose: each call returns the one kernel of the first, so
    # the kernel's own transpose is built once too; an equal matrix built
    # anew gets an equal kernel of its own
    h = BitMatrix.from_strings(["11000", "01110", "00011"])
    kernel = h.kernel_basis()
    assert h.kernel_basis() is kernel and kernel.transpose() is h.kernel_basis().transpose()
    again = BitMatrix.from_strings(["11000", "01110", "00011"])
    assert again.kernel_basis() == kernel and again.kernel_basis() is not kernel


def test_kernel_identity_is_empty():
    assert BitMatrix.identity(4).kernel_basis().rows == 0


def test_kernel_matches_row_space_of_generator():
    h = BitMatrix.from_strings(["11000", "01110", "00011"])
    g = BitMatrix.from_strings(["11100", "11011"])
    prod = h @ g.transpose()
    assert all(r == 0 for r in prod.data)
    assert h.kernel_basis().row_space_equal(g)


def test_row_space_equal_is_equivalence():
    a = BitMatrix.identity(2)
    b = BitMatrix.from_strings(["01", "11"])  # row-permuted and summed
    c = BitMatrix.from_strings(["01"])
    assert a.row_space_equal(b)
    assert b.row_space_equal(a)
    assert not a.row_space_equal(c)
    with pytest.raises(ValueError):
        a.row_space_equal(BitMatrix.identity(3))


def test_solve_identity_and_underdetermined():
    ident = BitMatrix.identity(4)
    assert ident.transpose().solution_with_coefficients(0b1010) == 0b1010
    m = BitMatrix.from_strings(["11"])
    x = m.transpose().solution_with_coefficients(1)
    assert x in (0b01, 0b10)
    assert m.mul_vec(x) == 1


def test_solve_inconsistent_returns_none():
    m = BitMatrix.from_strings(["11", "11"])
    assert m.transpose().solution_with_coefficients(0b01) is None


@given(st.integers(1, 6), st.integers(1, 7), st.data())
def test_solve_and_rank_agree_with_bruteforce(rows, cols, data):
    bits = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
                              min_size=rows, max_size=rows))
    target = data.draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows))
    m = BitMatrix.from_rows(bits)
    assert m.rank() == gauss_rank(bits)
    columns = [list(c) for c in zip(*bits)]
    solvable = target in all_span_vectors(columns)
    x = m.transpose().solution_with_coefficients(vector_from_bits(target))
    if solvable:
        assert x is not None
        assert matvec(bits, vector_to_bits(x, cols)) == target
    else:
        assert x is None


def test_rank_nullity_and_solution_invariants():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 8)
        m = random_matrix(rng, rows, cols)
        assert m.rank() == gauss_rank(to_lists(m))
        assert m.rank() + m.kernel_basis().rows == cols
        # kernel rows are independent and annihilated
        k = m.kernel_basis()
        if k.rows:
            assert k.rank() == k.rows
            for r in k.data:
                assert m.mul_vec(r) == 0
        # any solvable syndrome is solved exactly
        target = m.mul_vec(rng.getrandbits(cols))
        x = m.transpose().solution_with_coefficients(target)
        assert x is not None and m.mul_vec(x) == target


def test_rref_rank_agrees_with_rank():
    rng = random.Random(3)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 7))
        red, piv = m.rref()
        assert len(piv) == m.rank() == red.rank()
        assert list(piv) == sorted(piv)


def test_matmul_transpose_kron_against_lists():
    rng = random.Random(11)
    a = random_matrix(rng, 3, 4)
    b = random_matrix(rng, 4, 2)
    prod = to_lists(a @ b)
    al, bl = to_lists(a), to_lists(b)
    for i in range(3):
        for j in range(2):
            assert prod[i][j] == sum(al[i][t] * bl[t][j] for t in range(4)) % 2
    att = a.transpose().transpose()
    assert att == a
    k = BitMatrix.identity(2).kron(a)
    assert k.rows == 6 and k.cols == 8
    assert to_lists(k)[0][:4] == al[0]
    assert to_lists(k)[3][4:] == al[0]


@st.composite
def _factor_pairs(draw):
    # (a, b) with a.cols == b.rows, b up to 130 columns wide
    rows, inner, cols = draw(st.integers(0, 5)), draw(st.integers(0, 6)), draw(st.integers(0, 130))
    a = draw(st.lists(st.integers(0, (1 << inner) - 1), min_size=rows, max_size=rows))
    b = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=inner, max_size=inner))
    return BitMatrix.from_ints(a, inner), BitMatrix.from_ints(b, cols)


@given(_factor_pairs())
@example((BitMatrix.zeros(0, 3), BitMatrix.from_ints([1 << 69, 5, (1 << 70) - 1], 70)))
@example((BitMatrix.from_ints([0b11, 0b10], 2), BitMatrix.zeros(2, 0)))
@example((BitMatrix.zeros(4, 0), BitMatrix.zeros(0, 65)))
@example((BitMatrix.from_ints([0b101, 0b111], 3),
          BitMatrix.from_ints([(1 << 129) - 1, 1 << 64, 1 << 128], 129)))
def test_matmul_against_the_entrywise_product(pair):
    # beside test_matmul_transpose_kron_against_lists: zero-row, zero-column
    # and zero-inner factors, and products wider than one 64-bit word
    a, b = pair
    prod = a @ b
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    assert all(prod.get(i, j) == sum(a.get(i, t) & b.get(t, j) for t in range(a.cols)) % 2
               for i in range(a.rows) for j in range(b.cols))
    with pytest.raises(ValueError, match="dimension mismatch"):
        BitMatrix.zeros(a.rows, a.cols + 1) @ b


@st.composite
def bit_matrices(draw, max_rows=6, max_cols=7):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(1, max_cols))
    data = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return BitMatrix.from_ints(data, cols)


@given(st.integers(0, (1 << 70) - 1))
def test_mask_support_round_trip_against_bits(mask):
    support = mask_to_support(mask)
    assert support == tuple(j for j in range(70) if (mask >> j) & 1)
    assert support_to_mask(support) == mask


@given(bit_matrices())
def test_transpose_against_bits(m):
    t = m.transpose()
    assert (t.rows, t.cols) == (m.cols, m.rows)
    assert all(t.get(j, i) == m.get(i, j) for i in range(m.rows) for j in range(m.cols))


@given(bit_matrices())
def test_entries_number_the_set_bits_row_by_row(m):
    columns, spans, by_column = m.entries
    stops = [stop for _, stop in spans]
    assert [start for start, _ in spans] == ([0] + stops)[:len(spans)]
    assert [columns[start:stop] for start, stop in spans] == [mask_to_support(r) for r in m.data]
    assert by_column == tuple(tuple(e for e, c in enumerate(columns) if c == j)
                              for j in range(m.cols))


@given(bit_matrices(max_rows=8))
def test_reduction_matches_textbook_elimination(m):
    rows, tags, pivots = gauss_jordan(to_lists(m))
    reduced, piv = m.rref()
    assert to_lists(reduced) == rows and list(piv) == pivots
    # reduced row i needs exactly its pivot row, so its coefficients are its tag
    for row, tag in zip(reduced.data, tags):
        if row:
            assert m.solution_with_coefficients(row) == vector_from_bits(tag)


@given(bit_matrices(max_rows=4, max_cols=4), bit_matrices(max_rows=4, max_cols=4))
def test_kron_against_bits(a, b):
    k = a.kron(b)
    assert (k.rows, k.cols) == (a.rows * b.rows, a.cols * b.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            for r in range(b.rows):
                for c in range(b.cols):
                    assert k.get(i * b.rows + r, j * b.cols + c) == a.get(i, j) & b.get(r, c)


@given(st.permutations(range(9)), st.integers(0, (1 << 9) - 1))
def test_apply_permutation_against_bits(perm, mask):
    image = apply_permutation(mask, perm)
    assert all((image >> perm[q]) & 1 == (mask >> q) & 1 for q in range(9))


@given(bit_matrices(max_cols=9), st.data())
def test_permute_columns_by_inverse_relabels_each_row(m, data):
    perm = data.draw(st.permutations(range(m.cols)))
    relabeled = m.permute_columns(inverse_permutation(perm))
    for i in range(m.rows):
        assert all(relabeled.get(i, perm[q]) == m.get(i, q) for q in range(m.cols))


def test_json_round_trip_bit_exact():
    rng = random.Random(5)
    m = random_matrix(rng, 4, 9)
    obj = json.loads(json.dumps(m.to_json()))
    assert obj["rows"] == 4 and obj["cols"] == 9
    assert all(set(s) <= {"0", "1"} for s in obj["data"])
    assert BitMatrix.from_json(obj) == m


def test_vector_helpers_round_trip():
    bits = [1, 0, 1, 1, 0]
    v = vector_from_bits(bits)
    assert vector_to_bits(v, 5) == bits
    assert parity(v, v) == (sum(bits) % 2)


def test_permute_and_delete_columns():
    m = BitMatrix.from_strings(["1100", "0011"])
    p = m.permute_columns([3, 2, 1, 0])
    assert p.row_strings() == ["0011", "1100"]
    d = m.delete_columns([1, 3])
    assert d.row_strings() == ["10", "01"]


def test_solve_single_error_syndrome_residual_in_kernel():
    from f2qec.code_factory import build_25_4_3

    hx = build_25_4_3().hx
    kernel = hx.kernel_basis()
    for q in range(25):
        s = hx.mul_vec(1 << q)
        x = hx.transpose().solution_with_coefficients(s)
        assert x is not None and hx.mul_vec(x) == s
        assert kernel.in_row_space(x ^ (1 << q))


def _frozen_values():
    """One valid value of each Frozen class, and a field change that its checks reject."""
    from f2qec import decoder, experiment, stab_sim
    from f2qec.code_factory import build_25_4_3

    code = build_25_4_3()
    circuit = stab_sim.Circuit(2, (stab_sim.prepz(0), stab_sim.cnot(0, 1)))
    bad_op = stab_sim.Instruction("SWAP", (0, 1))
    return [
        (experiment.RunConfig(), {"seed": 2 ** 48}),
        (experiment.RunConfig(), {"mode": "quantum"}),
        (stab_sim.NoiseModel(3e-5, 2e-3, 2e-3), {"p2": 2}),
        (code, {"n": 24}),
        (decoder.DecodeProblem(code.hz, (0.01,) * code.n, 0), {"priors": (0.7,) * code.n}),
        (BitMatrix(2, 3, (0b101, 0b011)), {"data": (0b101, 0b1011)}),
        (circuit, {"instructions": circuit.instructions + (bad_op,)}),
        # a negative row has bits past every column
        (BitMatrix(2, 3, (0b101, 0b011)), {"data": (0b101, -1)}),
    ]


@pytest.mark.parametrize("index", range(8))
def test_frozen_classes_check_their_fields_when_built_and_replaced(index):
    value, bad = _frozen_values()[index]
    fields = dict(zip(value._fields, value._values()))
    assert type(value)(**fields) == value and value.replace() == value
    with pytest.raises(ValueError):
        type(value)(**{**fields, **bad})
    with pytest.raises(ValueError):
        value.replace(**bad)
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], fields[value._fields[0]])


def test_equal_frozen_values_are_equal_and_hash_equal():
    from f2qec.code_factory import build_25_4_3
    from f2qec.css_code import CssCode
    from f2qec.protocol import logical_ghz_circuit
    from f2qec.stab_sim import Circuit

    code = build_25_4_3()
    circuit = logical_ghz_circuit(code, "z")[0]
    # (a value, an equal one built another way, a value that differs in one field)
    triples = [
        (BitMatrix.from_strings(["110", "011"]), BitMatrix.from_ints([0b011, 0b110], 3),
         BitMatrix.from_ints([0b011, 0b111], 3)),
        (code, CssCode.loads(code.dumps()), code.replace(name="other")),
        (circuit, Circuit.from_text(circuit.to_text()),
         Circuit(circuit.n_qubits, circuit.instructions[:-1])),
    ]
    for a, b, other in triples:
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != other and hash(a) != hash(other)
    # the cached transpose is not a field: computing it changes neither
    m = BitMatrix.identity(3)
    before = hash(m)
    m.transpose()
    assert hash(m) == before and m == BitMatrix.identity(3)
    assert repr(BitMatrix(1, 2, (0b10,))) == "BitMatrix(rows=1, cols=2, data=(2,))"
