"""Syndrome decoding: min-sum belief propagation and ordered-statistics
post-processing with a combination sweep.  The exhaustive minimum-weight
decoder that the tests check them against lives with the tests.

BP reads the Tanner graph of its check matrix from `BitMatrix.entries`,
grouped by node degree in `BitMatrix.degree_groups`, and the column masks
from `BitMatrix.transpose()`, all built once per matrix; leaf and
degree-2 nodes need no inner loop (see `MinSumDecoder` for why that is
exact), and the stop test XORs the columns of the current estimate.  An
iteration is a function of the variable-to-check messages it starts
from, so at its first repeated message state BP returns what its last
iteration would return, with `converged` false: once the state repeats,
further iterations cost nothing.  The states of one call are kept only
for that call.

The sweep builds no matrix: it reduces the cached column masks in rank
order into a greedy basis, which gives the zero-pattern solution and the
flip of every free column, and every candidate is the zero pattern XOR
the flips of its free columns.

Error estimates and syndromes are packed bit masks.  Tie-breaking is
always lowest-index-first so every decoder is deterministic.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

from .css_code import CssCode
from .f2linalg import BitMatrix, Frozen, mask_to_support, parity

LLR_CLIP = 30.0
# the decode defaults of every entry point: BP iterations at most, the OSD
# sweep's pair depth and the uniform prior
BP_ITERS, OSD_DEPTH, PRIOR = 10, 14, 0.01


class DecodeProblem(Frozen):
    _fields = ("h", "priors", "syndrome")

    def __init__(self, h: BitMatrix, priors: tuple[float, ...], syndrome: int):
        vars(self).update(h=h, priors=priors, syndrome=syndrome)
        if len(priors) != h.cols:
            raise ValueError("one prior per column required")
        _prior_llrs(set(priors))  # the range check, once per distinct prior
        if syndrome >> h.rows:
            raise ValueError("syndrome longer than the check count")


class DecodeResult(NamedTuple):
    error_estimate: int
    converged: bool
    method: str
    soft_weight: float
    posteriors: tuple[float, ...] = ()


def uniform_priors(n: int, p: float = PRIOR) -> tuple[float, ...]:
    return (p,) * n


def _prior_llrs(priors) -> list[float]:
    # check and log each distinct prior once; no LLR is negative, so no lower clip
    llr = {}
    for p in set(priors):
        if not 0.0 < p <= 0.5:
            raise ValueError(f"prior {p} outside (0, 0.5]")
        llr[p] = min(LLR_CLIP, math.log((1.0 - p) / p))
    return list(map(llr.__getitem__, priors))


class MinSumDecoder:
    """Reusable plain min-sum BP instance for one check matrix and prior vector.

    Messages live in flat per-entry lists, numbered as `BitMatrix.entries`
    numbers the set entries of h: each check owns a contiguous run of
    entries and each variable lists its entries in ascending check order.
    That graph and its degree groups are computed once per matrix, so
    building a decoder costs only the check that there is one prior per
    column and the prior LLRs (see _prior_llrs, which also checks each
    prior).  Posteriors are exposed for ordered-statistics post-processing.

    A degree-1 variable's total is `p + c` and a degree-2 variable's
    `p + (c1 + c2)`; other variables add their messages left to right
    from 0, never with `sum()` (compensated from Python 3.12 on).  No
    prior, total or v2c message is ever -0.0, so `(0 + c1) + c2` and
    `c1 + c2` differ at most in the sign of a zero, which adding `p`
    removes.  A degree-2 check sends each side its syndrome sign times the
    other side's message, which is what the generic sign/min1/min2 loop
    gives, the sign of a zero included.  Each node writes only its own
    entries, so the group order changes no output bit.

    `decode` records the first iteration at which each variable-to-check
    message state occurs, and each iteration's estimate and posteriors.
    When a state occurs again, the iterations since its first occurrence
    repeat without converging until `iters` runs out, so `decode` returns
    at once the estimate and posteriors that its last iteration would
    return, with `converged` false; a large `iters` costs nothing once
    the state repeats.  The states and outputs are kept only for the call.
    """

    def __init__(self, h: BitMatrix, priors, iters: int = BP_ITERS):
        self.h = h
        self.iters = iters
        self.priors = tuple(priors)
        if len(self.priors) != h.cols:
            raise ValueError("one prior per column required")
        self.prior_llrs = _prior_llrs(self.priors)

    def decode(self, syndrome: int) -> DecodeResult:
        prior = self.prior_llrs
        if syndrome == 0:
            return DecodeResult(0, True, "BP", 0.0, tuple(prior))
        pairs, rows, leaves, twos, others = self.h.degree_groups
        pairs = [(a, b, -1.0 if (syndrome >> r) & 1 else 1.0) for r, a, b in pairs]
        checks = [(start, stop, -1.0 if (syndrome >> r) & 1 else 1.0)
                  for r, start, stop in rows]
        columns = self.h.entries[0]
        v2c = [prior[j] for j in columns]
        c2v = [0.0] * len(columns)
        posteriors = list(prior)
        hi, lo = LLR_CLIP, -LLR_CLIP
        hard = 0
        # an iteration is a function of the v2c it starts from; v2c holds
        # clipped differences of clipped totals, never NaN, and neither a
        # prior nor a total is ever -0.0, so tuple equality is exact
        first_seen = {}
        outputs = []
        for it in range(self.iters):
            first = first_seen.setdefault(tuple(v2c), it)
            if first < it:
                # iterations first..it-1 repeat from here on without
                # converging: return what the last iteration would
                hard, posteriors = outputs[first + (self.iters - 1 - first) % (it - first)]
                return DecodeResult(hard, False, "BP", _soft_weight(hard, prior), posteriors)
            for a, b, sign in pairs:
                c2v[a] = sign * v2c[b]
                c2v[b] = sign * v2c[a]
            for start, stop, sign in checks:
                msgs = v2c[start:stop]
                # sign picks up every incoming sign; the two smallest
                # magnitudes give every leave-one-out minimum
                min1 = min2 = math.inf
                arg1 = 0
                for idx, v in enumerate(msgs):
                    if v < 0:
                        sign = -sign
                        v = -v
                    if v < min1:
                        min2 = min1
                        min1 = v
                        arg1 = idx
                    elif v < min2:
                        min2 = v
                pos, neg = sign * min1, -sign * min1
                e = start
                for v in msgs:
                    c2v[e] = pos if v >= 0 else neg
                    e += 1
                c2v[start + arg1] = (sign if msgs[arg1] >= 0 else -sign) * min2
            hard = syn = 0
            # totals clip as max(lo, min(hi, total)) does: two degree-1 checks
            # can send opposite infinite messages, and their NaN sum clips to hi
            for j, e, column in leaves:
                c = c2v[e]
                total = prior[j] + c
                total = lo if total < lo else total if total <= hi else hi
                posteriors[j] = total
                v = total - c
                v2c[e] = hi if v > hi else lo if v < lo else v
                if total < 0:
                    hard |= 1 << j
                    syn ^= column
            for j, e, f, column in twos:
                c, d = c2v[e], c2v[f]
                total = prior[j] + (c + d)
                total = lo if total < lo else total if total <= hi else hi
                posteriors[j] = total
                v = total - c
                v2c[e] = hi if v > hi else lo if v < lo else v
                v = total - d
                v2c[f] = hi if v > hi else lo if v < lo else v
                if total < 0:
                    hard |= 1 << j
                    syn ^= column
            for j, entries, column in others:
                # left to right from 0, never sum(), as the docstring says
                s = 0
                for e in entries:
                    s += c2v[e]
                total = prior[j] + s
                total = lo if total < lo else total if total <= hi else hi
                posteriors[j] = total
                for e in entries:
                    v = total - c2v[e]
                    v2c[e] = hi if v > hi else lo if v < lo else v
                if total < 0:
                    hard |= 1 << j
                    syn ^= column
            if syn == syndrome:
                return DecodeResult(hard, True, "BP", _soft_weight(hard, prior), tuple(posteriors))
            outputs.append((hard, tuple(posteriors)))
        return DecodeResult(hard, False, "BP", _soft_weight(hard, prior), tuple(posteriors))


def _soft_weight(estimate: int, llrs) -> float:
    total = 0.0
    for j in mask_to_support(estimate):
        total += llrs[j]
    return total


def osd_combination_sweep(problem: DecodeProblem, bp_soft_output, depth: int = OSD_DEPTH) -> DecodeResult:
    """Ordered-statistics search seeded by BP posteriors, from one greedy basis.

    Columns are ranked most-likely-in-error first (ascending posterior
    LLR, lowest index on ties).  The cached column masks are reduced in
    rank order against the basis built so far: a column that stays
    nonzero joins the basis (so the basis is the first rank(h)
    independent ranked columns), and a column that reduces to zero is
    free, its flip being the column plus the basis columns summing to
    it (unique, as the basis is independent).  The syndrome, reduced the
    same way, gives the zero-pattern estimate; a nonzero remainder means
    it is outside the column space.  Candidates are the zero pattern XOR
    each single flip, then XOR each pair of the `depth` most-likely flips.
    They are scored by channel-prior log-likelihood (posteriors only order
    the columns, and a candidate that provably cannot win or tie is not
    scored); the minimum wins, lowest support on ties, and the returned
    estimate always satisfies the syndrome.
    """
    return _sweep(problem.h, problem.syndrome, bp_soft_output, depth,
                  _prior_llrs(problem.priors))


def _sweep(h: BitMatrix, syndrome: int, bp_soft_output, depth: int, prior_llrs) -> DecodeResult:
    """osd_combination_sweep on h and syndrome, scored by the given prior LLRs."""
    n = h.cols
    llrs = tuple(bp_soft_output)
    columns = h.transpose().data
    # basis entries (lead bit, reduced column, its columns of h): each
    # entry's vector is clear at the lead bits of the entries before it,
    # so one pass in insertion order clears every lead bit
    basis = []
    flips = []
    for j in sorted(range(n), key=llrs.__getitem__):
        v, support = columns[j], 1 << j
        for lead, vec, sup in basis:
            if v & lead:
                v ^= vec
                support ^= sup
        if v:
            basis.append((v & -v, v, support))
        else:
            flips.append(support)
    v, zero = syndrome, 0
    for lead, vec, sup in basis:
        if v & lead:
            v ^= vec
            zero ^= sup
    if v:
        raise ValueError("syndrome is inconsistent with the check matrix")
    candidates = [zero ^ f for f in flips]
    candidates += [zero ^ a ^ b for a, b in combinations(flips[:depth], 2)]
    # Float rounding is monotone, so a weight-k candidate scores at least
    # floor[k], k copies of the smallest prior LLR summed the same way; one
    # whose floor exceeds the best by more than the tie margin can neither
    # win nor tie, and is not scored.
    floor = [0.0]
    lowest = min(prior_llrs, default=0.0)
    for _ in range(n):
        floor.append(floor[-1] + lowest)
    best, best_w = zero, _soft_weight(zero, prior_llrs)
    for e in candidates:
        if floor[e.bit_count()] - best_w > 1e-12:
            continue
        w = _soft_weight(e, prior_llrs)
        if w < best_w - 1e-12 or (abs(w - best_w) <= 1e-12
                                  and mask_to_support(e) < mask_to_support(best)):
            best, best_w = e, w
    return DecodeResult(best, True, "BP+OSD", best_w, llrs)


def bp_then_osd(bp: MinSumDecoder, syndrome: int, depth: int = OSD_DEPTH) -> DecodeResult:
    """BP on a prebuilt decoder, then the ordered-statistics sweep on the
    decoder's own check matrix and prior LLRs: a converged BP answer scoring
    more than 1e-12 below the sweep's is kept (the sweep's swaps to tied
    candidates of lower support can chain above it), otherwise the sweep's."""
    res = bp.decode(syndrome)
    osd = _sweep(bp.h, syndrome, res.posteriors, depth, bp.prior_llrs)
    if res.converged and res.soft_weight < osd.soft_weight - 1e-12:
        return res
    return osd


def bp_osd(problem: DecodeProblem, iters: int = BP_ITERS, depth: int = OSD_DEPTH) -> DecodeResult:
    """Min-sum BP with ordered-statistics post-processing (see bp_then_osd)."""
    return bp_then_osd(MinSumDecoder(problem.h, problem.priors, iters=iters),
                       problem.syndrome, depth)


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
