import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2qec.code_factory import build_25_4_3, build_34_4_3, build_generalized, hypergraph_product, parity_code
from f2qec.css_code import (
    CssCode,
    distance,
    is_automorphism,
    permutation_logical_action,
    validate,
)
from f2qec.f2linalg import BitMatrix, apply_permutation, inverse_permutation
from f2qec.protocol import horizontal_fold_swap, vertical_fold_swap

from conftest import reference_min_weight, single_check_flip_witness


def brick(i, j):
    return (i - 1) * 5 + (j - 1)


def test_validate_flagship_passes(flagship_code):
    diag = validate(flagship_code)
    assert diag.ok
    assert diag.failures == []


def test_validate_flags_corrupted_check(flagship_code):
    broken_rows = list(flagship_code.hz.data)
    broken_rows[0] ^= 1 << brick(3, 3)  # now overlaps an X check oddly
    broken = CssCode(
        n=25,
        hx=flagship_code.hx,
        hz=BitMatrix.from_ints(broken_rows, 25),
        logicals_x=flagship_code.logicals_x,
        logicals_z=flagship_code.logicals_z,
        coords=flagship_code.coords,
    )
    diag = validate(broken)
    assert not diag.ok
    assert any("anticommutes" in f for f in diag.failures)


def test_validate_reports_every_failure_in_order(flagship_code):
    hz = list(flagship_code.hz.data)
    hx = list(flagship_code.hx.data)
    hz[0] ^= 1 << brick(4, 1)
    hx[3] ^= 1 << brick(3, 4)
    broken = CssCode(
        n=25,
        hx=BitMatrix.from_ints(hx, 25),
        hz=BitMatrix.from_ints(hz, 25),
        logicals_x=flagship_code.logicals_x,
        logicals_z=flagship_code.logicals_z,
    )
    assert validate(broken).failures == [
        "hx row 3 anticommutes with hz row 0",
        "hx row 3 anticommutes with hz row 5",
        "hx row 3 anticommutes with hz row 7",
        "hx row 3 anticommutes with hz row 8",
        "hx row 6 anticommutes with hz row 0",
        "logical X 2 anticommutes with a Z check",
        "logical X 3 anticommutes with a Z check",
        "logical Z 1 anticommutes with an X check",
    ]


def test_validate_small_product_code():
    code = hypergraph_product(parity_code(2).H)
    assert validate(code).ok


def test_distance_flagship_and_parent_product(flagship_code):
    assert distance(flagship_code, 3) == (3, 3)
    assert distance(build_34_4_3(), 3) == (3, 3)


def test_distance_generalized_double_repetition():
    assert distance(build_generalized(3, 2), 4) == (4, 4)


def test_distance_reports_not_found():
    code = build_25_4_3()
    assert distance(code, 2) == (None, None)


# every built member: the flagship, its pre-transform parent, generalized
# (l, 1) for l = 3..8 and the distance-4 members (3, 2) and (4, 2)
MEMBERS = ["flagship", "34_4_3", *((l, 1) for l in range(3, 9)), (3, 2), (4, 2)]


@pytest.mark.parametrize("w_max", range(5))
@pytest.mark.parametrize("member", MEMBERS, ids=str)
def test_distance_matches_the_enumeration_on_every_member(member, w_max):
    code = ({"flagship": build_25_4_3, "34_4_3": build_34_4_3}[member]() if isinstance(member, str)
            else build_generalized(*member))
    assert distance(code, w_max) == reference_min_weight(code, w_max)


@st.composite
def random_products(draw):
    """The hypergraph product of a random full-rank classical matrix, its
    qubits relabeled at random, so that its lightest logicals sit anywhere."""
    # with nonzero columns the classical distance, which is the product's, is
    # at least 2, and at least 3 when they are distinct
    rows = draw(st.integers(1, 3))
    lowest = draw(st.integers(0, 1))
    h = draw(st.lists(st.integers(lowest, (1 << rows) - 1), min_size=rows, max_size=5,
                      unique=draw(st.booleans()))
             .map(lambda cols: BitMatrix.from_ints(cols, rows).transpose())
             .filter(lambda t: t.rank() == rows))
    code = hypergraph_product(h)
    perm = draw(st.permutations(range(code.n)))
    inverse = inverse_permutation(perm)
    return code.replace(hx=code.hx.permute_columns(inverse), hz=code.hz.permute_columns(inverse),
                        logicals_x=tuple(apply_permutation(m, perm) for m in code.logicals_x),
                        logicals_z=tuple(apply_permutation(m, perm) for m in code.logicals_z))


@settings(deadline=None, max_examples=80)
@given(random_products(), st.integers(0, 4))
def test_distance_matches_the_enumeration_on_random_products(code, w_max):
    assert distance(code, w_max) == reference_min_weight(code, w_max)


@pytest.mark.parametrize("hz, want", [
    # the one weight-2 X logical is on the last two qubits
    ("11", (2, 1)),
    # the one weight-1 Z logical is on qubit 0
    ("01", (1, 1)),
    ("10", (1, 1)),
])
def test_distance_finds_logicals_at_either_end(hz, want):
    code = CssCode(2, BitMatrix.zeros(0, 2), BitMatrix.from_strings([hz]), (), ())
    assert distance(code, 2) == reference_min_weight(code, 2) == want


def test_distance_feasibility_guard(flagship_code):
    with pytest.raises(ValueError):
        distance(flagship_code, 15)


def test_vertical_fold_swap_action(flagship_code):
    act = permutation_logical_action(flagship_code, vertical_fold_swap())
    assert act.x_matrix.row_strings() == ["1100", "0100", "0011", "0001"]
    assert act.z_matrix.row_strings() == ["1000", "1100", "0010", "0011"]
    assert act.cnot_pairs() == ((0, 1), (2, 3))


def test_horizontal_fold_swap_action(flagship_code):
    act = permutation_logical_action(flagship_code, horizontal_fold_swap())
    assert act.x_matrix.row_strings() == ["1000", "0100", "1010", "0101"]
    assert act.z_matrix.row_strings() == ["1010", "0101", "0010", "0001"]
    assert act.cnot_pairs() == ((2, 0), (3, 1))


def test_identity_permutation_action(flagship_code):
    act = permutation_logical_action(flagship_code, tuple(range(25)))
    assert act.is_identity()
    assert act.cnot_pairs() == ()


def test_action_composition_of_fold_swaps(flagship_code):
    v = vertical_fold_swap()
    h = horizontal_fold_swap()
    composed = tuple(h[v[q]] for q in range(25))
    a_v = permutation_logical_action(flagship_code, v)
    a_h = permutation_logical_action(flagship_code, h)
    a_c = permutation_logical_action(flagship_code, composed)
    assert (a_v.x_matrix @ a_h.x_matrix) == a_c.x_matrix
    assert (a_v.z_matrix @ a_h.z_matrix) == a_c.z_matrix


def test_action_preserves_commutation(flagship_code):
    for perm in (vertical_fold_swap(), horizontal_fold_swap()):
        act = permutation_logical_action(flagship_code, perm)
        assert (act.x_matrix @ act.z_matrix.transpose()) == BitMatrix.identity(4)


def test_non_automorphism_rejected(flagship_code):
    perm = list(range(25))
    perm[0], perm[12] = perm[12], perm[0]  # corner <-> center breaks the checks
    assert not is_automorphism(flagship_code, perm)
    with pytest.raises(ValueError):
        permutation_logical_action(flagship_code, tuple(perm))


def test_generalized_row_patch_swap_is_fanout():
    for l in (3, 4):
        code = build_generalized(l, 1)
        nv = code.meta_get("nv")
        nh = code.meta_get("nh")
        perm = []
        for q in range(code.n):
            i, j = q // nh, q % nh
            if i == l - 2:
                i = l - 1
            elif i == l - 1:
                i = l - 2
            perm.append(i * nh + j)
        act = permutation_logical_action(code, tuple(perm))
        pairs = act.cnot_pairs()
        assert pairs is not None
        control_row = l - 2
        expected = set()
        for beta in (0, 1):
            ctrl = control_row * 2 + beta
            for alpha in range(l - 2):
                expected.add((ctrl, alpha * 2 + beta))
        assert set(pairs) == expected


def test_fold_swap_automorphism_on_lattice(flagship_code):
    assert is_automorphism(flagship_code, vertical_fold_swap())
    assert is_automorphism(flagship_code, horizontal_fold_swap())
    px = [apply_permutation(flagship_code.hx.row(r), vertical_fold_swap())
          for r in range(10)]
    assert BitMatrix.from_ints(px, 25).row_space_equal(flagship_code.hx)


@given(st.one_of(st.permutations(range(25)),
                 st.sampled_from([vertical_fold_swap(), horizontal_fold_swap(), tuple(range(25))])))
def test_is_automorphism_against_relabeled_rows(perm):
    code = build_25_4_3()

    def relabel(mask):
        return sum(1 << perm[q] for q in range(25) if (mask >> q) & 1)

    want = all(BitMatrix.from_ints([relabel(r) for r in h.data], 25).row_space_equal(h)
               for h in (code.hx, code.hz))
    assert is_automorphism(code, perm) == want


def test_single_check_flip_witnesses(flagship_code):
    wit = single_check_flip_witness(flagship_code)
    assert all(q is not None for q in wit["x"].values())
    assert all(q is not None for q in wit["z"].values())
    # weight-6 X checks sit at rows 8 and 9; their witnesses are the
    # central qubits of rows (3,2) and (3,4)
    weights = {r: flagship_code.hx.row(r).bit_count() for r in range(10)}
    heavy = sorted(r for r, w in weights.items() if w == 6)
    assert [wit["x"][r] for r in heavy] == [brick(3, 2), brick(3, 4)]
    # a flipped check decodes to exactly that single-qubit error
    for r, q in wit["x"].items():
        assert flagship_code.hx.mul_vec(1 << q) == 1 << r


def test_witness_absence_reported_not_raised():
    # the middle check of this chain has no unit syndrome column
    hx = BitMatrix.from_strings(["1100", "0110", "0011"])
    hz = BitMatrix.zeros(0, 4)
    code = CssCode(n=4, hx=hx, hz=hz, logicals_x=(0b1111,), logicals_z=(0b0001,))
    wit = single_check_flip_witness(code)
    assert wit["x"][0] == 0 and wit["x"][2] == 3
    assert wit["x"][1] is None
    assert wit["z"] == {}
