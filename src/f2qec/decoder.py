"""Syndrome decoding: min-sum belief propagation, ordered-statistics
post-processing with a combination sweep, and an exhaustive minimum-weight
oracle for ground truth on small codes.

The sweep takes one BitMatrix reduction per call, of the ranked check
matrix with the syndrome appended: every candidate is the zero-pattern
solution XOR the flips of its free columns, each read off that reduction.

Error estimates and syndromes are packed bit masks.  Tie-breaking is
always lowest-index-first so every decoder is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .css_code import CssCode
from .f2linalg import BitMatrix, mask_to_support, parity, support_to_mask

LLR_CLIP = 30.0


@dataclass(frozen=True)
class DecodeProblem:
    h: BitMatrix
    priors: tuple[float, ...]
    syndrome: int

    def __post_init__(self):
        if len(self.priors) != self.h.cols:
            raise ValueError("one prior per column required")
        for p in self.priors:
            if not 0.0 < p <= 0.5:
                raise ValueError(f"prior {p} outside (0, 0.5]")
        if self.syndrome >> self.h.rows:
            raise ValueError("syndrome longer than the check count")


@dataclass
class DecodeResult:
    error_estimate: int
    converged: bool
    method: str
    soft_weight: float
    posteriors: tuple[float, ...] = ()


def uniform_priors(n: int, p: float = 0.01) -> tuple[float, ...]:
    return (p,) * n


def _clip(v: float) -> float:
    return max(-LLR_CLIP, min(LLR_CLIP, v))


def _prior_llrs(priors) -> list[float]:
    return [_clip(math.log((1.0 - p) / p)) for p in priors]


class MinSumDecoder:
    """Reusable plain min-sum BP instance for one check matrix and prior vector.

    Messages live in per-check lists: slot i of check r belongs to the
    i-th variable of check_nbrs[r], and var_nbrs[j] lists (check, slot)
    in ascending check order.  Posteriors are exposed for
    ordered-statistics post-processing.
    """

    def __init__(self, h: BitMatrix, priors, iters: int = 10):
        self.h = h
        self.iters = iters
        self.priors = tuple(priors)
        self.prior_llrs = _prior_llrs(self.priors)
        self.check_nbrs = [mask_to_support(row) for row in h.data]
        self.var_nbrs = [[] for _ in range(h.cols)]
        for r, nbrs in enumerate(self.check_nbrs):
            for slot, j in enumerate(nbrs):
                self.var_nbrs[j].append((r, slot))

    def decode(self, syndrome: int) -> DecodeResult:
        prior = self.prior_llrs
        if syndrome == 0:
            return DecodeResult(0, True, "BP", 0.0, tuple(prior))
        v2c = [[prior[j] for j in nbrs] for nbrs in self.check_nbrs]
        c2v = [[0.0] * len(nbrs) for nbrs in self.check_nbrs]
        posteriors = list(prior)
        hard = 0
        for _ in range(self.iters):
            for r, msgs in enumerate(v2c):
                sign_all = -1.0 if (syndrome >> r) & 1 else 1.0
                mags = []
                for v in msgs:
                    if v < 0:
                        sign_all = -sign_all
                        mags.append(-v)
                    else:
                        mags.append(v)
                # two smallest magnitudes give every leave-one-out minimum
                min1 = min2 = float("inf")
                arg1 = -1
                for idx, v in enumerate(mags):
                    if v < min1:
                        min2 = min1
                        min1 = v
                        arg1 = idx
                    elif v < min2:
                        min2 = v
                c2v[r] = [(sign_all if v >= 0 else -sign_all) * (min2 if idx == arg1 else min1)
                          for idx, v in enumerate(msgs)]
            hard = 0
            for j, nbrs in enumerate(self.var_nbrs):
                total = _clip(prior[j] + sum(c2v[r][slot] for r, slot in nbrs))
                posteriors[j] = total
                for r, slot in nbrs:
                    v2c[r][slot] = _clip(total - c2v[r][slot])
                if total < 0:
                    hard |= 1 << j
            if self.h.mul_vec(hard) == syndrome:
                return DecodeResult(hard, True, "BP", _soft_weight(hard, prior), tuple(posteriors))
        return DecodeResult(hard, False, "BP", _soft_weight(hard, prior), tuple(posteriors))


def _soft_weight(estimate: int, llrs) -> float:
    # The OSD scoring loop keeps its own set-bit walk: via mask_to_support it ran 1.7-2.7x slower.
    total = 0.0
    v = estimate
    while v:
        j = (v & -v).bit_length() - 1
        total += llrs[j]
        v &= v - 1
    return total


def osd_combination_sweep(problem: DecodeProblem, bp_soft_output, depth: int = 14) -> DecodeResult:
    """Ordered-statistics search seeded by BP posteriors, from one reduction.

    Columns are ranked most-likely-in-error first (ascending posterior
    LLR, lowest index on ties).  One reduced row echelon form of the
    ranked matrix with the syndrome appended as a last column gives
    everything: its pivots are the solving basis (the first rank(h)
    independent ranked columns), its syndrome column the zero-pattern
    estimate, and each free column c the flip of c plus the basis columns
    summing to it.  Candidates are the zero pattern XOR each single flip,
    then XOR each pair of the `depth` most-likely flips.  They are scored
    by channel-prior log-likelihood (posteriors only order the columns);
    the minimum wins, lowest support on ties, and the returned estimate
    always satisfies the syndrome.
    """
    h = problem.h
    llrs = tuple(bp_soft_output)
    prior_llrs = _prior_llrs(problem.priors)
    order = sorted(range(h.cols), key=lambda j: (llrs[j], j))
    syndrome = BitMatrix.from_ints([(problem.syndrome >> r) & 1 for r in range(h.rows)], 1)
    reduced, pivots = h.permute_columns(order).hstack(syndrome).rref()
    if pivots and pivots[-1] == h.cols:
        raise ValueError("syndrome is inconsistent with the check matrix")
    # bit i of reduced column c: ranked column c needs basis column i
    combos = reduced.transpose().data
    basis = [1 << order[c] for c in pivots]

    def on_basis(combo: int) -> int:
        return sum(basis[i] for i in mask_to_support(combo))

    zero = on_basis(combos[h.cols])
    flips = [(1 << order[c]) | on_basis(combos[c]) for c in range(h.cols) if c not in pivots]
    candidates = [zero ^ f for f in flips]
    candidates += [zero ^ a ^ b for a, b in combinations(flips[:depth], 2)]
    best, best_w = zero, _soft_weight(zero, prior_llrs)
    for e in candidates:
        w = _soft_weight(e, prior_llrs)
        if w < best_w - 1e-12 or (abs(w - best_w) <= 1e-12
                                  and mask_to_support(e) < mask_to_support(best)):
            best, best_w = e, w
    return DecodeResult(best, True, "BP+OSD", best_w, llrs)


def bp_then_osd(bp: MinSumDecoder, problem: DecodeProblem, depth: int = 14) -> DecodeResult:
    """BP on a prebuilt decoder for problem.h, then the ordered-statistics sweep.

    A non-converged BP answer is always replaced by the sweep result; a
    converged one is kept only while no sweep candidate beats its
    channel-prior score, which keeps the combined soft weight at or
    below the plain OSD-0 solution.
    """
    res = bp.decode(problem.syndrome)
    osd = osd_combination_sweep(problem, res.posteriors, depth=depth)
    if res.converged and res.soft_weight < osd.soft_weight - 1e-12:
        return res
    return osd


def bp_osd(problem: DecodeProblem, iters: int = 10, depth: int = 14) -> DecodeResult:
    """Min-sum BP with ordered-statistics post-processing (see bp_then_osd)."""
    return bp_then_osd(MinSumDecoder(problem.h, problem.priors, iters=iters), problem, depth)


def mwe_oracle(problem: DecodeProblem, w_max: int) -> DecodeResult:
    """Exhaustive minimum-weight decoding, lexicographic tie-break."""
    h = problem.h
    if problem.syndrome == 0:
        return DecodeResult(0, True, "MWE", 0.0)
    cols = h.transpose().data
    for w in range(1, w_max + 1):
        for combo in combinations(range(h.cols), w):
            syn = 0
            for j in combo:
                syn ^= cols[j]
            if syn == problem.syndrome:
                e = support_to_mask(combo)
                llrs = [math.log((1 - p) / p) for p in problem.priors]
                return DecodeResult(e, True, "MWE", _soft_weight(e, llrs))
    raise ValueError(f"no solution of weight <= {w_max}")


def logical_correction(code: CssCode, error_estimate: int, basis: str) -> int:
    """Per-logical flip mask induced by a decoded physical error.

    In the Z readout basis the estimate is an X-type error and bit i is
    the overlap parity with logical Z_i; the X basis is dual.
    """
    if error_estimate >> code.n:
        raise ValueError("estimate longer than the qubit count")
    logicals = code.logicals_z if basis == "z" else code.logicals_x
    mask = 0
    for i, sup in enumerate(logicals):
        mask |= parity(error_estimate, sup) << i
    return mask
