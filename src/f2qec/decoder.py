"""Syndrome decoding: min-sum belief propagation and ordered-statistics
post-processing with a combination sweep.  The exhaustive minimum-weight
decoder that the tests check them against lives with the tests.

BP runs in one straight-line Python function per check matrix, generated
from h's Tanner graph with h's set entries numbered row by row: every
message, prior LLR, total and check sign is a local variable and each
node's rule, chosen by its degree, is written out (see `MinSumDecoder` for
why that is exact).  It is compiled at a matrix's first nonzero-syndrome
decode and kept in a bounded LRU memo that equal matrices share, and the
stop test XORs the column masks of the current estimate.  An iteration is a
function of the variable-to-check messages it starts from, so at its
first repeated message state BP returns what its last iteration would
return, with `converged` false: once the state repeats, further
iterations cost nothing.  The states of one call are kept only for that
call.

The sweep builds no matrix: it reduces the cached column masks in rank
order into a greedy basis, which gives the zero-pattern solution and the
flip of every free column, and every candidate is the zero pattern XOR
the flips of its free columns.

Error estimates and syndromes are packed bit masks.  Tie-breaking is
always lowest-index-first so every decoder is deterministic.
"""

from __future__ import annotations

import math
from functools import lru_cache
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

    BP runs in one function per check matrix, compiled from text at the
    matrix's first nonzero-syndrome decode, never in `__init__`, and kept
    in a bounded LRU memo that every decoder on an equal matrix shares:
    compiling costs about 4 ms for flagship hz or hx, 5.5 ms for hx|I and
    20-25 ms for the l = 20 member's matrices, which `bp_osd`, building a
    decoder per call, must not pay per call.  So building a decoder costs
    only the check that there is one prior per column and the prior LLRs
    (see _prior_llrs, which also checks each prior).  Posteriors are
    exposed for ordered-statistics post-processing.

    The function keeps every message, prior LLR, total and check sign in
    a local variable, one message per set entry of h, numbered row by row,
    and writes out each node's rule as its degree allows:
    - a check sends each entry its syndrome sign times the signs and the
      smallest magnitude of the other entries' messages.  A degree-2
      check's value is its sign times the other message, the sign of a
      zero included, and a degree-1 check's is its sign times inf; other
      checks read each smallest magnitude from prefix and suffix minima,
      which is one value whichever entry attains it, since no magnitude
      is ever NaN or -0.0.
    - a degree-1 variable's total is `p + c` and a degree-2 variable's
      `p + (c1 + c2)`; other variables add their messages left to right
      from 0, one `s += c` statement each, never with `sum()`
      (compensated from Python 3.12 on) or one nested expression (the
      parser refuses about 200 levels).  No prior, total or v2c message
      is ever -0.0, so `(0 + c1) + c2` and `c1 + c2` differ at most in
      the sign of a zero, which adding `p` removes.
    Each node writes only its own entries, so the node order changes no
    output bit.

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
        hard, converged, posteriors = _min_sum_kernel(self.h)(syndrome, prior, self.iters)
        return DecodeResult(hard, converged, "BP", _soft_weight(hard, prior), posteriors)


@lru_cache(maxsize=16)
def _min_sum_kernel(h: BitMatrix):
    """Min-sum BP on h compiled into one straight-line function
    `(syndrome, prior LLRs, iterations) -> (estimate, converged, posteriors)`,
    kept in a bounded LRU memo that equal matrices share.

    The set entries of h are numbered row by row, ascending column within
    a row.  Message e's v2c is the local `v<e>` and its c2v `c<e>`, column
    j's prior LLR `p<j>` and total `t<j>`, row r's syndrome sign `s<r>`;
    `sg`, `x`, `s`, `m`, `a<i>`, `f<i>` and `g<i>` are temporaries that
    every node reuses.  The text holds only integer literals and fixed names.
    """
    columns, by_row, by_column = [], [], [[] for _ in range(h.cols)]
    for r in h.data:
        by_row.append(range(len(columns), len(columns) + r.bit_count()))
        for j in mask_to_support(r):
            by_column[j].append(len(columns))
            columns.append(j)
    v2c = "".join(f"v{e}, " for e in range(len(columns)))
    totals = "".join(f"t{j}, " for j in range(h.cols))
    body = ["hi, lo, zero, plus, minus, inf = CONSTANTS",
            f"({''.join(f'p{j}, ' for j in range(h.cols))}) = ({totals}) = prior"]
    body += [f"v{e} = p{j}" for e, j in enumerate(columns)]
    # an iteration is a function of the v2c it starts from; v2c holds clipped
    # differences of clipped totals, never NaN, and neither a prior nor a
    # total is ever -0.0, so tuple equality is exact.  At a repeated state,
    # iterations first..it-1 repeat without converging: return what the last
    # iteration would
    loop = [f"first = first_seen.setdefault(({v2c}), it)",
            "if first < it:",
            " hard, posteriors = outputs[first + (iters - 1 - first) % (it - first)]",
            " return hard, False, posteriors"]
    for r, entries in enumerate(by_row):
        k = len(entries)
        if not k:
            continue
        body.append(f"s{r} = minus if syndrome >> {r} & 1 else plus")
        if k == 1:
            # a check on one variable sends its sign times the empty minimum, inf
            body.append(f"c{entries[0]} = s{r} * inf")
        elif k == 2:
            a, b = entries
            loop += [f"c{a} = s{r} * v{b}", f"c{b} = s{r} * v{a}"]
        else:
            # sg picks up every incoming sign and a<i> is entry i's magnitude;
            # the minimum over the entries before i is a0 or f<i>, the one
            # over those after it a<k-1> or g<i>
            pre = ["", "a0", *(f"f{i}" for i in range(2, k))]
            post = [*(f"g{i}" for i in range(k - 2)), f"a{k - 1}"]
            loop.append(f"sg = s{r}")
            for i, e in enumerate(entries):
                loop += [f"if v{e} < zero:", " sg = -sg", f" a{i} = -v{e}", "else:", f" a{i} = v{e}"]
            for i in range(2, k):
                loop.append(f"{pre[i]} = {pre[i - 1]} if {pre[i - 1]} < a{i - 1} else a{i - 1}")
            for i in range(k - 3, -1, -1):
                loop.append(f"{post[i]} = a{i + 1} if a{i + 1} < {post[i + 1]} else {post[i + 1]}")
            for i, e in enumerate(entries):
                if i == 0:
                    m = post[0]
                elif i == k - 1:
                    m = pre[i]
                else:
                    loop.append(f"m = {pre[i]} if {pre[i]} < {post[i]} else {post[i]}")
                    m = "m"
                loop.append(f"c{e} = sg * {m} if v{e} >= zero else -sg * {m}")
    loop.append("hard = syn = 0")
    for j, (entries, mask) in enumerate(zip(by_column, h.transpose().data)):
        if len(entries) == 1:
            loop.append(f"t{j} = p{j} + c{entries[0]}")
        elif len(entries) == 2:
            loop.append(f"t{j} = p{j} + (c{entries[0]} + c{entries[1]})")
        else:
            # left to right from 0, never sum(), as MinSumDecoder's docstring says
            loop += ["s = 0", *(f"s += c{e}" for e in entries), f"t{j} = p{j} + s"]
        # totals clip as max(lo, min(hi, total)) does: two degree-1 checks can
        # send opposite infinite messages, and their NaN sum clips to hi
        loop.append(f"t{j} = lo if t{j} < lo else t{j} if t{j} <= hi else hi")
        for e in entries:
            loop += [f"x = t{j} - c{e}", f"v{e} = hi if x > hi else lo if x < lo else x"]
        loop += [f"if t{j} < zero:", f" hard |= {1 << j}", f" syn ^= {mask}"]
    loop += [f"posteriors = ({totals})",
             "if syn == syndrome:",
             " return hard, True, posteriors",
             "outputs.append((hard, posteriors))"]
    body += ["hard = 0", "first_seen = {}", "outputs = []", "for it in range(iters):"]
    body += [" " + line for line in loop]
    body.append(f"return hard, False, ({totals})")
    text = "def min_sum(syndrome, prior, iters):\n" + "".join(f" {line}\n" for line in body)
    namespace = {"CONSTANTS": (LLR_CLIP, -LLR_CLIP, 0.0, 1.0, -1.0, math.inf)}
    exec(compile(text, "<min-sum kernel>", "exec"), namespace)
    return namespace.pop("min_sum")


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
