import hashlib
import random
from itertools import combinations

import pytest
from conftest import mwe_oracle, reference_min_sum, reference_osd
from hypothesis import example, given
from hypothesis import strategies as st

from f2qec.code_factory import build_25_4_3, build_generalized
from f2qec.decoder import (
    DecodeProblem,
    MinSumDecoder,
    bp_osd,
    logical_correction,
    osd_combination_sweep,
    uniform_priors,
)
from f2qec.f2linalg import BitMatrix

def brick(i, j):
    return (i - 1) * 5 + (j - 1)


@pytest.fixture(scope="module")
def code():
    return build_25_4_3()


def problem(h, syndrome, p=0.01):
    return DecodeProblem(h, uniform_priors(h.cols, p), syndrome)


def test_zero_syndrome_decodes_to_zero(code):
    for h in (code.hx, code.hz):
        res = MinSumDecoder(h, uniform_priors(h.cols)).decode(0)
        assert res.error_estimate == 0 and res.converged
        osd = osd_combination_sweep(problem(h, 0), res.posteriors)
        assert osd.error_estimate == 0
        assert mwe_oracle(problem(h, 0), 2).error_estimate == 0


def test_single_bit_errors_recovered_by_bp(code):
    for h, stab in ((code.hz, code.hx), (code.hx, code.hz)):
        for q in range(code.n):
            syn = h.mul_vec(1 << q)
            res = bp_osd(problem(h, syn))
            assert h.mul_vec(res.error_estimate) == syn
            # estimate equals the truth up to a stabilizer of the decoded type
            diff = res.error_estimate ^ (1 << q)
            assert diff == 0 or stab.in_row_space(diff)


def test_bp_failure_found_and_handed_to_osd(code):
    failure = None
    for a in range(code.n):
        for b in range(a + 1, code.n):
            syn = code.hz.mul_vec((1 << a) | (1 << b))
            if syn == 0:
                continue
            res = MinSumDecoder(code.hz, uniform_priors(code.hz.cols)).decode(syn)
            if not res.converged:
                failure = (syn, res)
                break
        if failure:
            break
    assert failure is not None, "min-sum should struggle on some two-bit syndrome"
    syn, res = failure
    osd = osd_combination_sweep(problem(code.hz, syn), res.posteriors)
    assert osd.converged and osd.method == "BP+OSD"
    assert code.hz.mul_vec(osd.error_estimate) == syn


def test_osd_depth_zero_is_syndrome_consistent(code):
    syn = code.hz.mul_vec((1 << brick(1, 3)) | (1 << brick(3, 3)))
    res = MinSumDecoder(code.hz, uniform_priors(code.hz.cols)).decode(syn)
    osd0 = osd_combination_sweep(problem(code.hz, syn), res.posteriors, depth=0)
    assert code.hz.mul_vec(osd0.error_estimate) == syn


def test_osd_sweep_never_worse_than_osd0(code):
    for q in range(0, code.n, 3):
        syn = code.hx.mul_vec(1 << q)
        if syn == 0:
            continue
        res = MinSumDecoder(code.hx, uniform_priors(code.hx.cols)).decode(syn)
        osd0 = osd_combination_sweep(problem(code.hx, syn), res.posteriors, depth=0)
        full = osd_combination_sweep(problem(code.hx, syn), res.posteriors, depth=14)
        assert full.soft_weight <= osd0.soft_weight + 1e-12


def test_osd_order_invariant_under_llr_scaling(code):
    syn = code.hz.mul_vec((1 << brick(2, 2)) | (1 << brick(4, 4)))
    res = MinSumDecoder(code.hz, uniform_priors(code.hz.cols)).decode(syn)
    a = osd_combination_sweep(problem(code.hz, syn), res.posteriors)
    scaled = tuple(2.0 * v for v in res.posteriors)
    b = osd_combination_sweep(problem(code.hz, syn), scaled)
    assert a.error_estimate == b.error_estimate


def test_mwe_oracle_weight_one_unique(code):
    # all single-qubit X errors have distinct nonzero Z-check syndromes
    # except the two stabilizer-degenerate pairs in the center column
    for h, stab in ((code.hz, code.hx), (code.hx, code.hz)):
        for q in range(code.n):
            syn = h.mul_vec(1 << q)
            assert syn != 0
            res = mwe_oracle(problem(h, syn), 1)
            diff = res.error_estimate ^ (1 << q)
            assert diff == 0 or stab.in_row_space(diff)


def test_mwe_oracle_no_solution_raises(code):
    # a syndrome needing weight >= 2 cannot be explained at w_max = 1
    target = (1 << brick(1, 1)) | (1 << brick(5, 5))
    syn = code.hz.mul_vec(target)
    with pytest.raises(ValueError):
        mwe_oracle(problem(code.hz, syn), 1)
    res = mwe_oracle(problem(code.hz, syn), 2)
    assert code.hz.mul_vec(res.error_estimate) == syn


def test_mwe_lexicographic_tie_break():
    h = BitMatrix.from_strings(["11", "11"])
    res = mwe_oracle(problem(h, 0b11), 1)
    assert res.error_estimate == 0b01  # qubit 0 wins the tie


def test_logical_correction_examples(code):
    assert logical_correction(code, 0, "z") == 0
    # X error on the top of the third column flips the first logical Z
    mask = logical_correction(code, 1 << brick(1, 3), "z")
    assert mask & 1
    # a stabilizer row never flips any logical
    assert logical_correction(code, code.hx.row(8), "z") == 0
    assert logical_correction(code, code.hz.row(9), "x") == 0


def test_bposd_matches_oracle_logical_mask_weight_two(code):
    checked = 0
    for h, stab, basis in ((code.hz, code.hx, "z"), (code.hx, code.hz, "x")):
        for a in range(code.n):
            for b in range(a, code.n):
                err = (1 << a) | (1 << b)
                syn = h.mul_vec(err)
                if syn == 0:
                    continue
                got = bp_osd(problem(h, syn))
                want = mwe_oracle(problem(h, syn), 2)
                diff = got.error_estimate ^ want.error_estimate
                same_coset = diff == 0 or stab.in_row_space(diff)
                assert same_coset or (
                    logical_correction(code, got.error_estimate, basis)
                    == logical_correction(code, want.error_estimate, basis)
                )
                assert h.mul_vec(got.error_estimate) == syn
                checked += 1
    assert checked > 500


def test_decode_problem_validation(code):
    with pytest.raises(ValueError):
        DecodeProblem(code.hz, uniform_priors(3), 0)
    with pytest.raises(ValueError):
        DecodeProblem(code.hz, (0.7,) * 25, 0)
    with pytest.raises(ValueError):
        DecodeProblem(code.hz, uniform_priors(25), 1 << 20)


@pytest.mark.parametrize("p", [0.0, 0.7, 1.0, float("nan")])
def test_min_sum_decoder_checks_its_priors_as_decode_problem_does(code, p):
    # one check for both, so every decoder the program builds has prior LLRs >= 0
    for build in (lambda priors: DecodeProblem(code.hz, priors, 0),
                  lambda priors: MinSumDecoder(code.hz, priors)):
        with pytest.raises(ValueError, match=r"outside \(0, 0\.5\]"):
            build((0.01,) * 24 + (p,))


@pytest.mark.parametrize("count", [20, 30])
def test_min_sum_decoder_needs_one_prior_per_column_as_decode_problem_does(code, count):
    # 30 priors on the 25 columns of hz used to decode, the 5 extra LLRs
    # kept, and 20 to fail inside decode with an IndexError
    for build in (lambda priors: DecodeProblem(code.hz, priors, 0),
                  lambda priors: MinSumDecoder(code.hz, priors)):
        with pytest.raises(ValueError, match=r"^one prior per column required$"):
            build(uniform_priors(count))


def test_min_sum_decoder_reusable(code):
    dec = MinSumDecoder(code.hz, uniform_priors(25))
    syn = code.hz.mul_vec(1 << 7)
    assert dec.decode(syn).error_estimate == dec.decode(syn).error_estimate


def test_decoder_outputs_are_pinned_by_digest(code):
    # every field of BP and BP+OSD, posteriors included, on weight-1 and
    # short-range weight-2 errors; any change to the float summation order
    # moves this digest
    lines = []
    for h in (code.hz, code.hx, code.hx.hstack(BitMatrix.identity(code.hx.rows))):
        errors = [1 << a for a in range(h.cols)]
        errors += [(1 << a) | (1 << b) for a in range(h.cols) for b in range(a + 1, h.cols)
                   if b - a in (1, 7)]
        for priors in ((0.01,) * h.cols, tuple(0.001 * (1 + j % 7) for j in range(h.cols))):
            bp = MinSumDecoder(h, priors, iters=10)
            for e in errors:
                s = h.mul_vec(e)
                for r in (bp.decode(s), bp_osd(DecodeProblem(h, priors, s), iters=10, depth=14)):
                    lines.append(repr((r.error_estimate, r.converged, r.method,
                                       r.soft_weight, r.posteriors)))
    assert len(lines) == 924
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest().startswith("5b4a58ac0187e7c9")


def _assert_sweep_matches_reference(h, priors, posteriors, syndrome, depth) -> bool:
    """osd_combination_sweep against reference_osd; False when the syndrome
    is outside the column space (and both raise)."""
    problem = DecodeProblem(h, priors, syndrome)
    try:
        want = reference_osd(h, priors, posteriors, syndrome, depth)
    except ValueError:
        with pytest.raises(ValueError, match="inconsistent"):
            osd_combination_sweep(problem, posteriors, depth)
        return False
    got = osd_combination_sweep(problem, posteriors, depth)
    assert (got.error_estimate, got.soft_weight) == want
    assert got.posteriors == posteriors and got.method == "BP+OSD"
    return True


def test_osd_matches_reference_on_random_small_matrices():
    # redundant rows, tied priors and tied posteriors on purpose; the
    # syndromes are arbitrary, so some are outside the column space
    rng = random.Random(7)
    raised = 0
    for _ in range(300):
        n, m = rng.randint(1, 9), rng.randint(1, 5)
        rows = [rng.getrandbits(n) for _ in range(m)]
        rows += [rows[0] ^ rows[-1]] * rng.randint(0, 1)
        h = BitMatrix.from_ints(rows, n)
        priors = tuple(rng.choice((0.01, 0.05, 0.2)) for _ in range(n))
        posteriors = tuple(float(rng.randint(-2, 3)) for _ in range(n))
        syndrome = rng.getrandbits(h.rows)
        for depth in (0, 2, 14):
            raised += not _assert_sweep_matches_reference(h, priors, posteriors, syndrome, depth)
    assert 0 < raised < 900


def test_bp_osd_outputs_on_weight_three_syndromes_are_pinned_by_digest(code):
    # every field of BP+OSD on each distinct syndrome of a weight-1..3
    # error: weight 3 is where the OSD pair candidates decide
    lines = []
    for h in (code.hz, code.hx, code.hx.hstack(BitMatrix.identity(code.hx.rows))):
        syndromes = {}
        for w in (1, 2, 3):
            for support in combinations(range(h.cols), w):
                syndromes.setdefault(h.mul_vec(sum(1 << q for q in support)), None)
        syndromes.pop(0, None)
        for priors in ((0.01,) * h.cols, tuple(0.001 * (1 + j % 7) for j in range(h.cols))):
            for s in syndromes:
                r = bp_osd(DecodeProblem(h, priors, s), iters=10, depth=14)
                lines.append(repr((r.error_estimate, r.converged, r.method,
                                   r.soft_weight, r.posteriors)))
    assert len(lines) == 3618
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest().startswith("c652c980220bbab5")


@st.composite
def _decode_cases(draw, prior=st.sampled_from((0.5, 0.2, 0.05, 0.01, 0.001))):
    """Small check matrices with redundant rows and all-zero columns, priors
    that include 0.5 (a zero LLR, so signed zeros), and syndromes that may
    lie outside the column space."""
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=5))
    rows += [rows[i] ^ rows[j] for i, j in draw(st.lists(
        st.tuples(st.integers(0, len(rows) - 1), st.integers(0, len(rows) - 1)), max_size=2))]
    dead = draw(st.integers(0, (1 << n) - 1))  # columns cleared in every row
    h = BitMatrix.from_ints([r & ~dead for r in rows], n)
    priors = tuple(draw(st.lists(prior, min_size=n, max_size=n)))
    if draw(st.booleans()):
        syndrome = h.mul_vec(draw(st.integers(0, (1 << n) - 1)))
    else:
        syndrome = draw(st.integers(0, (1 << h.rows) - 1))
    # up to 40 iterations, so BP often repeats a message state early and the
    # iterations after it are replayed from the cycle at every position
    return h, priors, syndrome, draw(st.integers(0, 40)), draw(st.integers(0, 14))


def _fields(r):
    return repr((r.error_estimate, r.converged, r.method, r.soft_weight, r.posteriors))


def _assert_matches_the_references(h, priors, syndrome, iters, depth) -> bool:
    """BP and BP+OSD against reference_min_sum and reference_osd, every field;
    False when the syndrome is outside the column space (and both raise)."""
    bp = reference_min_sum(h, priors, syndrome, iters)
    assert _fields(MinSumDecoder(h, priors, iters).decode(syndrome)) == repr(bp)
    problem = DecodeProblem(h, priors, syndrome)
    try:
        estimate, weight = reference_osd(h, priors, bp[4], syndrome, depth)
    except ValueError:
        with pytest.raises(ValueError, match="inconsistent"):
            bp_osd(problem, iters, depth)
        return False
    want = bp if bp[1] and bp[3] < weight - 1e-12 else (estimate, True, "BP+OSD", weight, bp[4])
    assert _fields(bp_osd(problem, iters, depth)) == repr(want)
    return True


# Flagship syndromes of weight-1..3 errors at prior 0.01 on which BP repeats
# a message state: the matrix, the error's support, the first iteration of
# the repeated state and the period.  A fixed point on each matrix, a 2-cycle,
# and the longest period over all such syndromes of hz and hx|I.
_REPEATING = [("hz", (0, 3), 5, 1), ("hx|I", (0,), 2, 1), ("hx|I", (5, 16), 1, 2),
              ("hz", (5, 8, 11), 10, 8)]


@pytest.mark.parametrize("name, support, first, period", _REPEATING,
                         ids=["hz-fixed-point", "hx|I-fixed-point", "hx|I-2-cycle", "hz-8-cycle"])
def test_bp_after_a_repeated_message_state_matches_the_reference(code, name, support,
                                                                 first, period):
    h = code.hz if name == "hz" else code.hx.hstack(BitMatrix.identity(code.hx.rows))
    priors = (0.01,) * h.cols
    syndrome = h.mul_vec(sum(1 << q for q in support))
    want = [reference_min_sum(h, priors, syndrome, n) for n in range(31)]
    # the reference never converges, and after iteration `first` its outputs
    # cycle with the period, each position of the cycle a different output
    assert not any(w[1] for w in want)
    cycle = want[first + 1:first + 1 + period]
    assert len(set(cycle)) == period
    assert want[first + 1:] == (cycle * 31)[:30 - first]
    for n, w in enumerate(want):
        assert _fields(MinSumDecoder(h, priors, iters=n).decode(syndrome)) == repr(w)
    n = 10**5
    assert (_fields(MinSumDecoder(h, priors, iters=n).decode(syndrome))
            == repr(cycle[(n - 1 - first) % period]))


@given(_decode_cases())
# two degree-1 checks on one column disagree: their messages sum to inf - inf
@example(case=(BitMatrix.from_ints([1, 1], 1), (0.01,), 0b01, 3, 0))
# BP's message state repeats with period 2 (outputs from iteration 3 on)
# and 4 (from iteration 0 and from iteration 4, on three columns): at these
# iteration counts a replay index one off either way returns another output
@example(case=(BitMatrix.from_ints([23, 24, 11, 16], 5), (0.05, 0.05, 0.01, 0.01, 0.2),
               0b11, 5, 2))
@example(case=(BitMatrix.from_ints([33, 37], 6), (0.05, 0.01, 0.05, 0.5, 0.5, 0.05),
               0b1, 8, 2))
@example(case=(BitMatrix.from_ints([6, 5, 1, 7], 3), (0.5, 0.001, 0.05), 0b110, 19, 2))
# degree-2 checks between prior-0.5 columns send -0.0 (syndrome bit set) and
# +0.0 (clear) to column 0, a degree-2 variable, and to columns 1 and 2,
# degree-1 variables at prior 0.5: sums of signed zeros
@example(case=(BitMatrix.from_ints([3, 5], 3), (0.5, 0.5, 0.5), 0b11, 3, 2))
@example(case=(BitMatrix.from_ints([3, 5], 3), (0.5, 0.5, 0.5), 0b01, 3, 2))
# a degree-1 variable at prior 0.5 beside a degree-3 check, which sends it -0.0
@example(case=(BitMatrix.from_ints([7, 6], 3), (0.5, 0.5, 0.05), 0b01, 4, 2))
# an all-zero column (3) and an empty row (1) beside degree-1 and -2 nodes
@example(case=(BitMatrix.from_ints([5, 0, 3], 4), (0.05, 0.5, 0.01, 0.2), 0b101, 6, 3))
# LLRs of about 1.5e-12, 0.8e-12 and 0: BP converges at once to {2}, and the
# sweep's zero pattern {2} gives way to the tied {1}, then to the tied {0},
# 1.5e-12 above BP's answer, which is therefore kept
@example(case=(BitMatrix.from_ints([7], 3), (0.5 - 3.75e-13, 0.5 - 2e-13, 0.5), 0b1, 10, 14))
def test_bp_and_bp_osd_match_the_reference_on_random_matrices(case):
    _assert_matches_the_references(*case)


# a continuous prior in (0, 0.5] beside 0.5, 0.5 - 2e-13 and 1e-12 (LLRs 0,
# 8e-13, under the 1e-12 tie margin, and 27.6)
@given(_decode_cases(prior=st.one_of(st.sampled_from((0.5, 0.5 - 2e-13, 1e-12, 0.01)),
                                     st.floats(0.0, 0.5, exclude_min=True))))
def test_bp_and_bp_osd_match_the_reference_at_any_accepted_prior(case):
    _assert_matches_the_references(*case)


@pytest.mark.parametrize("name, sizes", [("flagship hz", (4, 7, 13, 10, 2)),
                                         ("flagship hx|I", (0, 10, 24, 9, 2)),
                                         ("(3,2) hx", (6, 10, 17, 16, 3)),
                                         ("(20,1) hx", (0, 45, 50, 44, 17))])
def test_degree_groups_cover_every_entry_once(name, sizes):
    # sizes: rows of weight 2, other nonempty rows, columns of weight 1, of
    # weight 2, and others; (20,1) is the generalized l = 20 member, with
    # rows of weight 3 and 6 and columns of weight 3
    family, which = name.split()
    code = build_25_4_3() if family == "flagship" else build_generalized(
        *map(int, family.strip("()").split(",")))
    h = code.hz if which == "hz" else code.hx
    if which.endswith("|I"):
        h = h.hstack(BitMatrix.identity(h.rows))
    columns, spans, by_column = h.entries
    pairs, rows, leaves, twos, others = groups = h.degree_groups
    assert tuple(map(len, groups)) == sizes and h.degree_groups is groups
    runs = sorted([(r, (a, b)) for r, a, b in pairs]
                  + [(r, tuple(range(start, stop))) for r, start, stop in rows])
    assert runs == [(r, tuple(range(*span))) for r, span in enumerate(spans) if span[1] > span[0]]
    assert all(stop - start != 2 for _, start, stop in rows)
    cols = sorted([(j, (e,), mask) for j, e, mask in leaves]
                  + [(j, (e, f), mask) for j, e, f, mask in twos] + list(others))
    assert cols == [(j, entries, mask)
                    for j, (entries, mask) in enumerate(zip(by_column, h.transpose().data))]
    assert all(len(entries) not in (1, 2) for _, entries, _ in others)
    # every entry exactly once on each side, so no node is dropped or doubled
    for side in ([e for _, run in runs for e in run], [e for _, run, _ in cols for e in run]):
        assert sorted(side) == list(range(len(columns)))


@pytest.mark.parametrize("name", ["flagship hx|I", "(9,1) hz", "(9,1) hx|I", "(3,2) hx"])
def test_bp_osd_matches_the_references_on_code_matrices(name):
    # the decoding matrices of real codes, 35 to 62 columns: hx|I is the X
    # basis matrix with one column per check outcome, and (3,2) is the
    # 36-qubit distance-4 member
    family, which = name.split()
    code = build_25_4_3() if family == "flagship" else build_generalized(
        *map(int, family.strip("()").split(",")))
    h = code.hz if which == "hz" else code.hx
    if which.endswith("|I"):
        h = h.hstack(BitMatrix.identity(h.rows))
    rng = random.Random(name)
    errors = [1 << j for j in range(h.cols)]
    errors += [sum(1 << j for j in rng.sample(range(h.cols), w))
               for w in (2, 3, 4) for _ in range(8)]
    for priors in ((0.01,) * h.cols, tuple(0.001 * (1 + j % 7) for j in range(h.cols))):
        for e in errors:
            assert _assert_matches_the_references(h, priors, h.mul_vec(e), 10, 14)


def test_bp_osd_matches_the_references_on_matrices_wider_than_a_word():
    # 65-130 columns, so estimates and flips span more than one 64-bit word;
    # redundant rows, all-zero columns, tied priors, syndromes outside the
    # column space, and a sweep on tied integer posteriors
    rng = random.Random(11)
    consistent = []
    for _ in range(6):
        n, m = rng.randint(65, 130), rng.randint(8, 16)
        rows = [sum(1 << j for j in rng.sample(range(n), rng.randint(3, 9))) for _ in range(m)]
        rows += [rows[0] ^ rows[1], rows[2] ^ rows[3] ^ rows[4]]
        h = BitMatrix.from_ints(rows, n)
        priors = tuple(rng.choice((0.01, 0.05, 0.2)) for _ in range(n))
        syndromes = [h.mul_vec(sum(1 << j for j in rng.sample(range(n), w))) for w in (1, 2, 3, 5)]
        syndromes += [rng.getrandbits(h.rows) for _ in range(2)]
        for syndrome in syndromes:
            for iters, depth in ((10, 14), (3, 4)):
                consistent.append(_assert_matches_the_references(h, priors, syndrome,
                                                                 iters, depth))
            posteriors = tuple(float(rng.randint(-2, 3)) for _ in range(n))
            _assert_sweep_matches_reference(h, priors, posteriors, syndrome, 14)
    assert set(consistent) == {True, False}
