"""The T-step kernel: the one place that steps arrays by T(x) = (3x+1)/2
for odd x, x/2 for even x (a single integer steps `maps.t_map()`), and the
one overflow policy of the vectorized sweeps.
`lift` is the one place that builds residue tables mod 2^k: the jump table
here, the stopping-time sieve and the 2-adic parity table read it.

Every sweep is a descent: iterate T on a set of starts until each first
falls below a threshold (the start itself for the stopping time; Terras
1976).  A descent is one cascade at three precisions: K-step jumps on
int64 where only the verdict is asked for, single steps on int64, and
single steps on object arrays of Python ints.  Each level runs the same
driver and the same loop body, and hands the starts it cannot settle
(past a guard, or passed over by a jump) to the next finer level, which
runs them again from the start; so every number a descent returns is
exact and no caller sees an overflow.

`_descend` is that driver, and it runs chunk then pool.  It reads its
starts and thresholds through a function at(idx) of an index array, one
cache-sized chunk of indices at a time, and takes the first 32 steps of
each chunk (4 jumps, or 32 single steps where some output is named; the
output contract is stated by `descend`); the rest run on the pooled
survivors of the chunks, each time the pool reaches _POOL = 2^18 starts
and once at the end.  So a descent holds one chunk, at most _POOL pooled
starts, the indices it hands on and its outputs, however many starts it
has: no array of starts, thresholds or live columns spans them.  Its two
callers are the entries of the cascade: `descend` gathers from given
arrays, and `descend_range` computes each candidate of a range, its start
and its threshold from the candidate's index.

`descend_range` is the one range reader: every sweep over a range lo..hi
of starts, sieved or not, is one call to it, and no other module calls
`descend` or `_descend`.  Without a sieve every n is a candidate (the
naive span of `stats.verify_range`, the full blocks of
`stats.excursion_records`, `stats.below_power_density` and the
coefficient sweep of `coeffstop`).  With a `stats.ClassSieve` mod 2^k
the candidates are the members n = 2^k q + r of its surviving classes
(the sieved spans and the pruned blocks), started at step k from
T^k(n) = 3^a(r) q + T^k(r), the identity of the jump table, or at n
itself in a range where some T^k(n) could pass GUARD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

#: largest iterate an int64 step may take: 3 * GUARD + 1 <= 2^62 + 1 < 2^63
GUARD = (1 << 62) // 3


def t_step(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One T-step of every element of an int64 array whose elements are at
    most GUARD, or of an object array of Python ints; returns the new
    iterates and the odd mask of the old ones."""
    odd = (v & 1).astype(bool)
    return np.where(odd, 3 * v + 1, v) >> 1, odd


@dataclass
class Descent:
    """Per-start results of `descend`, indexed like its starts; which
    columns a call fills is the output contract of `descend`."""

    unresolved: np.ndarray              # indices still at or above threshold at step_limit
    steps: Optional[np.ndarray] = None  # first step with T^steps(n) below the threshold
    peak: Optional[np.ndarray] = None   # max T^j(n), 1 <= j <= steps (object dtype past int64)
    kappa: Optional[np.ndarray] = None  # coefficient stopping time, 0 if not reached by then


def descend(
    starts: np.ndarray,
    step_limit: int,
    threshold: Optional[np.ndarray] = None,
    *,
    outputs: tuple[str, ...] = (),
) -> Descent:
    """Iterate T on int64 starts until each first falls below its threshold
    (default: the start itself), giving up after step_limit steps.  starts
    and threshold must be int64 arrays (TypeError otherwise: 3x + 1 would
    wrap in a narrower type).  The starts are gathered chunk by chunk by
    `_descend`.

    The output contract: the `Descent` always holds the unresolved indices,
    and outputs names the columns it fills, from "steps", "peak" and
    "kappa" (a name outside these three raises ValueError).  Only the
    columns named are tracked, each for itself; every other column is None,
    and an unresolved start reads 0 in each.  steps is the first step with
    T^steps(n) below the threshold, peak is the largest T^j(n),
    1 <= j <= steps, and kappa is the first k with 3^a < 2^k, a the
    odd steps among the first k (the coefficient stopping time, 0 if no
    k <= steps qualifies; it never exceeds the stopping time).  Every
    column is int64, except that peak is an object array of Python ints
    when some peak passes int64, as only an orbit past GUARD can.

    A bare call (no outputs named) only sorts the starts into resolved
    and unresolved, and takes its steps K = 8 at a time: T^K(2^K q + r) =
    3^c(r) q + T^K(r), with c(r) the odd steps of r among its first K
    (Terras 1976; Everett 1977).  An iterate below its threshold at a jump
    boundary certifies a drop within the step limit, but a jump can pass
    over a drop, so a start still live after step_limit // K jumps is run
    again from the start by single steps, as is one whose iterate passes
    the jump guard (GUARD // 3^K) << K, up to which a jump stays at most
    GUARD + 3^K < 2^63.  A start with threshold <= 2 takes single steps
    from the outset: its orbit may end in the cycle 1, 2, which every even
    K jumps from 2 to 2, never below 2.

    The first _HEAD_STEPS = 32 steps (4 jumps of a bare call, else single
    steps) run on one chunk of _CHUNK = 2^15 starts at a time, and the
    survivors of the chunks (about 2% of a naive range, 13% of sieve
    survivors) are pooled for the rest, which runs on the pool each time it
    holds _POOL = 2^18 starts and once at the end.  Every output of a start
    depends on its own orbit alone, and every pooled start has taken the
    same steps, so the split changes no output.  The working set is one
    chunk, the pool, the indices handed to the next level and the output
    columns asked for: a bare call has none.
    """
    if threshold is None:
        threshold = starts
    if starts.dtype != np.int64 or threshold.dtype != np.int64:
        raise TypeError("descend takes int64 starts and thresholds")
    return _descend(len(starts), lambda idx: (starts[idx], threshold[idx]), step_limit, outputs)


def descend_range(lo: int, hi: int, step_limit: int, threshold: Optional[Callable] = None, *,
                  sieve=None, outputs: tuple[str, ...] = ()) -> tuple[int, Callable, Descent]:
    """Return (size, n_at, d) for the size candidates n in lo..hi, ascending:
    n_at(idx) gives the candidates at the int64 indices idx, and d =
    descend(n, step_limit, threshold(n), outputs=outputs) is indexed like
    them, by the output contract of `descend`.  threshold maps an array of
    candidates to their thresholds elementwise, and None means n itself.
    Without a sieve every n is a candidate.  With one, a `stats.ClassSieve`
    mod 2^k, the candidates are the n = 2^k q + r with r one of its S
    survivors, the rest being certified by the sieve; a member of a
    surviving class has no iterate below n (nor below a threshold at most
    n) in its first k steps (see `stats.verify_range`).  Candidate i sits
    at row q and column c of the (q, r) grid, divmod(i + first, S) from the
    row lo >> k, first the survivors of that row below lo.  A range without
    a sieve is the one class mod 2^0, with no division.

    Every candidate starts at step k, from T^k(n) = 3^a(r) q + T^k(r) (the
    identity of the jump table), with step_limit - k steps: the verdict of
    step_limit steps from n, and a peak over k < j <= steps.  In a range
    where some T^k(n) could pass GUARD (hi >> k above the least q with
    T^k(n) <= GUARD), every candidate starts at n itself with step_limit
    steps, and its peak runs over 1 <= j <= steps.  With step_limit < k
    every candidate is unresolved.  steps and kappa count from step 0, so
    a sieve refuses them (ValueError).  The candidates, starts and
    thresholds are computed chunk by chunk by `_descend`, whose working set
    is bounded whatever the range; only the output columns asked for span
    it.  An empty range has size 0."""
    if sieve is None:
        k, r, images, pow3 = 0, *(np.array([x], dtype=np.int64) for x in (0, 0, 1))
    elif {"steps", "kappa"} & set(outputs):
        raise ValueError("steps and kappa count from step 0 and take no sieve")
    else:
        k, r, images, pow3 = sieve.k, sieve.survivors, sieve.images, sieve.pow3
    S, mask = len(r), (1 << k) - 1
    q0, first = lo >> k, int(np.searchsorted(r, lo & mask))
    size = max(((hi >> k) - q0) * S + int(np.searchsorted(r, hi & mask, side="right")) - first, 0)
    from_n = hi >> k > ((GUARD - images) // pow3).min()  # some T^k(n) could pass GUARD
    limit = step_limit if from_n else max(step_limit - k, 0)

    def grid(idx):  # the row, column and candidate of the indices idx
        if S == 1:  # no division: the row is the index, from q0 + first
            q, col = idx + (q0 + first), 0
        else:
            col = idx + first
            q = col // S
            col -= q * S  # the divmod, by a floor division numpy runs far faster
            q += q0
        return q, col, (q << k) + r[col] if k else q

    def at(idx):
        q, col, n = grid(idx)
        x = n if from_n or not k else q * pow3[col] + images[col]
        return x, n if threshold is None else threshold(n)

    return size, lambda idx: grid(idx)[2], _descend(size, at, limit, outputs)


def lift(k: int, keep: Optional[Callable] = None) -> tuple[np.ndarray, ...]:
    """The classes r mod 2^k in ascending order with T^k(r), 3^a(r) (a(r)
    the odd steps among the first k) and the parity word (bit i the parity
    of T^i(r)): four int64 arrays built by lifting (Terras 1976; Everett
    1977).  n = r mod 2^j shares the first j parities of r, so T^j(n) =
    (3^a(r) n + B(r)) / 2^j, and r lifts to r and r + 2^j mod 2^(j+1) with
    T^j(r + 2^j) = T^j(r) + 3^a(r): each level takes one T-step per class.
    keep(j, r, v, p), if given, sees the classes mod 2^j with v = T^j(r) and
    p = 3^a(r) at each level j = 1..k and returns the mask of those to lift.
    Without keep every class is lifted, so r is built once, as arange(2^k).

    int64 is exact for k <= 38: T(x) + 1 <= 3(x + 1)/2, so r < 2^(j+1) has
    T^j(r) + 1 <= 2 * 3^j, and the next step's 3 T^j(r) + 1 < 6 * 3^j < 2^63.
    A larger k raises ValueError before any lifting.
    """
    if k > 38:
        raise ValueError(f"lift is exact in int64 only for k <= 38, not {k}")
    r, v, p, w = (np.array([x], dtype=np.int64) for x in (0, 0, 1, 0))
    for j in range(k):
        if keep is not None:
            r = np.concatenate((r, r + (1 << j)))
        v = np.concatenate((v, v + p))
        p = np.concatenate((p, p))
        w = np.concatenate((w, w))
        v, odd = t_step(v)
        p += (p << 1) * odd
        w |= odd << j
        if keep is not None:
            alive = keep(j + 1, r, v, p)
            r, v, p, w = r[alive], v[alive], p[alive], w[alive]
    if keep is None:
        r = np.arange(1 << k, dtype=np.int64)
    return r, v, p, w


_K = 8
_, _JUMP_ADD, _JUMP_MUL, _ = lift(_K)  # T^K(2^K q + r) = 3^a(r) q + T^K(r)
_CHUNK = 1 << 15  # starts per head chunk, whose columns stay in cache
_HEAD_STEPS = 32  # steps per chunk before the survivors are pooled (4 jumps of a bare call)
_POOL = 1 << 18  # pooled survivors at which the pool is flushed through the tail
#: the output names of a descent, each with the live columns its steps need besides idx, v, thr
_OUTPUTS = {"steps": (), "peak": ("peak",), "kappa": ("a", "kappa")}


def _descend(size: int, at: Callable, step_limit: int, outputs: tuple[str, ...],
             stride: Optional[int] = None, dtype=np.int64) -> Descent:
    """`descend` of `size` starts read through at(idx) -> (starts,
    thresholds), two int64 arrays for an int64 array idx of indices in
    0..size - 1, at one level of the cascade: stride-`_K` jumps or single
    steps (stride 1) on int64 starts, or single steps on object arrays of
    Python ints (dtype object, to which each chunk's starts are converted).
    outputs names the columns to fill, by the contract of `descend`; the
    entry level (stride None) jumps where it names none, else takes single
    steps.  at is called once per chunk of _CHUNK indices, on whose live
    columns {idx, v, thr} the first _HEAD_STEPS // stride steps run; the
    survivors of the chunks are pooled, and the rest of the steps run on
    the pool whenever it holds _POOL starts, and once more at the end, so
    an empty call is one empty chunk.  The working set is one chunk, the
    pool, the indices handed on and the output columns asked for, whatever
    the size; no array of starts or thresholds spans it unless at builds
    one.  The outputs are indexed by idx.

    The starts this level cannot settle are collected in `past` and run
    again from the start by `_descend` at the next finer level, which reads
    them through at, chunk by chunk: on int64 after jumps, on Python ints
    after int64 single steps.  At the jump level these are the starts with
    threshold <= 2, those whose iterate passes the jump guard, and those
    still live after the last jump, whose drop a jump may have passed over;
    at the int64 single-step level, those whose orbit passes GUARD."""
    if unknown := set(outputs) - _OUTPUTS.keys():
        raise ValueError(f"unknown descent outputs {sorted(unknown)}")
    stride = stride or (1 if outputs else _K)
    out = {name: np.zeros(size, dtype=dtype) for name in outputs}
    stop = step_limit // stride
    head = min(stop, _HEAD_STEPS // stride)
    past, pool, tails = [], [], []  # indices left to the next level; chunk survivors; live at stop
    for lo in range(0, max(size, 1), _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, size), dtype=np.int64)
        v, t = at(idx)
        live = {"idx": idx, "v": v.astype(dtype, copy=False), "thr": t}
        if stride > 1 and (low := t <= 2).any():
            past.append(idx[low])
            live = {name: col[~low] for name, col in live.items()}
        for name in (col for output in out for col in _OUTPUTS[output]):
            live[name] = np.zeros(len(live["idx"]), dtype=dtype if name == "peak" else np.int64)
        live = _steps(live, out, 0, head, past, stride)  # frees the chunk's first columns
        pool.append(live)
        if sum(len(chunk["idx"]) for chunk in pool) >= _POOL or lo + _CHUNK >= size:
            live = {name: np.concatenate([chunk[name] for chunk in pool]) for name in pool[0]}
            pool = []
            tails.append(_steps(live, out, head, stop, past, stride)["idx"])
    unresolved = np.concatenate(tails)  # ascending: the tails run in chunk order
    if stride > 1:  # a jump may have passed over the drop of a start still live
        past.append(unresolved)
        unresolved = unresolved[:0]
    if past:
        # each sort merges ascending runs, which a stable sort (timsort) does in near linear time
        idx = np.sort(np.concatenate(past), kind="stable")
        rerun = _descend(len(idx), lambda i: at(idx[i]), step_limit, outputs, 1,
                         object if stride == 1 else dtype)
        unresolved = np.sort(np.concatenate((unresolved, idx[rerun.unresolved])), kind="stable")
        for name in out:
            col = getattr(rerun, name)
            if col.max() > np.iinfo(np.int64).max:  # only a peak gets here
                out[name] = out[name].astype(object)
            out[name][idx] = col
    return Descent(unresolved, **out)


def _steps(live: dict, out: dict, step: int, stop: int, past: list, stride: int) -> dict:
    """Take the steps step + 1..stop of the live columns: idx, v, thr and
    the columns `_OUTPUTS` lists for the outputs.  A step is one K-step
    jump for stride _K, else one T-step.  A start leaves once its iterate
    falls below its threshold, and its outputs are written to the out
    columns at its idx.  An int64 iterate past the guard leaves too, its
    idx appended to past: GUARD for a T-step, (GUARD // 3^K) << K for a
    jump, from which a jump stays at most GUARD + 3^K < 2^63.  Returns the
    columns still live at stop; a bare call costs a step, a compare, a
    compaction and a guard test per step."""
    guard = GUARD if stride == 1 else (GUARD // 3**_K) << _K
    exact = live["v"].dtype == object
    amax, p3 = -1, 1  # largest a with 3^a < 2^step, and 3^(amax + 1), caught up at each step
    while len(live["idx"]):
        if not exact and (big := live["v"] > guard).any():
            past.append(live["idx"][big])
            live = {name: col[~big] for name, col in live.items()}
        if step == stop:
            break
        if stride == 1:
            v, odd = t_step(live["v"])
        else:  # the first operation makes a new array: v may share memory with thr
            low = live["v"] & ((1 << _K) - 1)
            v = live["v"] >> _K
            v *= _JUMP_MUL[low]
            v += _JUMP_ADD[low]
        live["v"] = v
        step += 1
        if "peak" in live:
            np.maximum(live["peak"], v, out=live["peak"])
        if "a" in live:
            live["a"] += odd
            while p3.bit_length() <= step:
                amax, p3 = amax + 1, 3 * p3
            live["kappa"][(live["kappa"] == 0) & (live["a"] <= amax)] = step
        stays = v >= live["thr"]
        if out:
            gone = np.flatnonzero(~stays)
            at = live["idx"][gone]
            for name, col in out.items():
                col[at] = step if name == "steps" else live[name][gone]
        keep = np.flatnonzero(stays)  # one index for every compaction
        live = {name: col[keep] for name, col in live.items()}
    return live
