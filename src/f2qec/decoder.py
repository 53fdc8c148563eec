"""Syndrome decoding: min-sum belief propagation, ordered-statistics
post-processing with a combination sweep, and an exhaustive minimum-weight
oracle for ground truth on small codes.

Error estimates and syndromes are packed bit masks.  Tie-breaking is
always lowest-index-first so every decoder is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .css_code import CssCode, mask_to_support
from .f2linalg import BitMatrix, parity

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


class MinSumDecoder:
    """Reusable plain min-sum BP instance for one check matrix and prior vector.

    Posteriors are exposed for ordered-statistics post-processing.
    """

    def __init__(self, h: BitMatrix, priors, iters: int = 10):
        self.h = h
        self.iters = iters
        self.priors = tuple(priors)
        self.prior_llrs = [_clip(math.log((1.0 - p) / p)) for p in self.priors]
        self.check_nbrs = [[j for j in range(h.cols) if h.get(r, j)] for r in range(h.rows)]
        self.var_nbrs = [[] for _ in range(h.cols)]
        for r, nbrs in enumerate(self.check_nbrs):
            for j in nbrs:
                self.var_nbrs[j].append(r)

    def decode(self, syndrome: int) -> DecodeResult:
        h = self.h
        m, n = h.rows, h.cols
        if syndrome == 0:
            return DecodeResult(0, True, "BP", 0.0, tuple(self.prior_llrs))
        v2c = {}
        for r in range(m):
            for j in self.check_nbrs[r]:
                v2c[(j, r)] = self.prior_llrs[j]
        c2v = {k: 0.0 for k in v2c}
        posteriors = list(self.prior_llrs)
        hard = 0
        for _ in range(self.iters):
            for r in range(m):
                nbrs = self.check_nbrs[r]
                msgs = [v2c[(j, r)] for j in nbrs]
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
                for idx, j in enumerate(nbrs):
                    s = sign_all if msgs[idx] >= 0 else -sign_all
                    mag = min2 if idx == arg1 else min1
                    c2v[(j, r)] = s * mag
            hard = 0
            for j in range(n):
                total = self.prior_llrs[j] + sum(c2v[(j, r)] for r in self.var_nbrs[j])
                total = _clip(total)
                posteriors[j] = total
                for r in self.var_nbrs[j]:
                    v2c[(j, r)] = _clip(total - c2v[(j, r)])
                if total < 0:
                    hard |= 1 << j
            if h.mul_vec(hard) == syndrome:
                return DecodeResult(hard, True, "BP",
                                    _soft_weight(hard, self.prior_llrs), tuple(posteriors))
        return DecodeResult(hard, False, "BP",
                            _soft_weight(hard, self.prior_llrs), tuple(posteriors))


def _soft_weight(estimate: int, llrs) -> float:
    total = 0.0
    v = estimate
    while v:
        j = (v & -v).bit_length() - 1
        total += llrs[j]
        v &= v - 1
    return total


def osd_combination_sweep(problem: DecodeProblem, bp_soft_output, depth: int = 14) -> DecodeResult:
    """Ordered-statistics search seeded by BP posteriors.

    Columns are ranked most-likely-in-error first (ascending posterior
    LLR, lowest index on ties); the first rank(h) independent columns
    form the solving basis.  Candidates are the zero pattern, all single
    flips over the free columns, and all pairs within the `depth`
    most-likely free columns.  Candidates are scored by channel-prior
    log-likelihood (posteriors only order the columns); the minimum
    wins, lowest support on ties, and the returned estimate always
    satisfies the syndrome.
    """
    h = problem.h
    llrs = list(bp_soft_output)
    prior_llrs = [_clip(math.log((1.0 - p) / p)) for p in problem.priors]
    order = sorted(range(h.cols), key=lambda j: (llrs[j], j))
    cols = h.transpose()
    basis_js = []
    reduced = []  # (pivot bit, reduced column, combination over basis positions)
    for j in order:
        v = cols.row(j)
        tag = 0
        for pivot, vec, vtag in reduced:
            if v & pivot:
                v ^= vec
                tag ^= vtag
        if v:
            reduced.append((v & -v, v, tag ^ (1 << len(basis_js))))
            basis_js.append(j)
    free_js = [j for j in order if j not in set(basis_js)]

    def candidate(free_pattern: tuple[int, ...]) -> int | None:
        rhs = problem.syndrome
        t = 0
        for j in free_pattern:
            rhs ^= cols.row(j)
            t |= 1 << j
        coeff = 0
        for pivot, vec, vtag in reduced:
            if rhs & pivot:
                rhs ^= vec
                coeff ^= vtag
        if rhs:
            return None
        e = t
        while coeff:
            pos = (coeff & -coeff).bit_length() - 1
            e |= 1 << basis_js[pos]
            coeff &= coeff - 1
        return e

    best = candidate(())
    if best is None:
        raise ValueError("syndrome is inconsistent with the check matrix")
    best_w = _soft_weight(best, prior_llrs)
    sweeps = [(j,) for j in free_js]
    sweeps += [pair for pair in combinations(free_js[:depth], 2)]
    for pattern in sweeps:
        e = candidate(pattern)
        if e is None:
            continue
        w = _soft_weight(e, prior_llrs)
        if w < best_w - 1e-12 or (abs(w - best_w) <= 1e-12
                                  and mask_to_support(e) < mask_to_support(best)):
            best, best_w = e, w
    return DecodeResult(best, True, "BP+OSD", best_w, tuple(llrs))


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
    cols = [h.mul_vec(1 << j) for j in range(h.cols)]
    for w in range(1, w_max + 1):
        for combo in combinations(range(h.cols), w):
            syn = 0
            for j in combo:
                syn ^= cols[j]
            if syn == problem.syndrome:
                e = 0
                for j in combo:
                    e |= 1 << j
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
