"""The T-step kernel: the one place that steps T(x) = (3x+1)/2 for odd x,
x/2 for even x, and the one overflow policy of the vectorized sweeps.
`lift` is the one place that builds residue tables mod 2^k: the jump table
here, the stopping-time sieve and the 2-adic parity table read it.

Every sweep is a descent: iterate T on a batch of starts until each first
falls below a threshold (the start itself for the stopping time; Terras
1976).  A descent is one cascade at three precisions: K-step jumps on
int64 where only the verdict is asked for, single steps on int64, and
single steps on object arrays of Python ints.  Each level runs the same
driver and the same loop body, and hands the starts it cannot settle
(past a guard, or passed over by a jump) to the next finer level in one
batch, run again from the start; so every number a descent returns is
exact and no caller sees an overflow.

`descend_at` is the entry of the cascade, whose driver runs chunk then
pool.  It reads its starts and thresholds through a function at(idx) of
an index array, one cache-sized chunk of indices at a time, and takes the
first 32 steps of each chunk (4 jumps, or 32 single steps where peak or
kappa is asked for); the rest run on the pooled survivors of every chunk.
So a descent holds one chunk, the pool, the indices it hands on and its
outputs, whatever the batch size: no batch-long array of starts,
thresholds or live columns is built.  `descend` gathers from given
arrays, `descend_range` computes first + idx and its threshold, and
`stats._survivor_descent`, the one stream of sieve survivors (the sieved
spans of `stats.verify_range` and the pruned blocks of
`stats.excursion_records`), computes each candidate from its index.

`descend_range` is the one place where a range of starts lo..hi is cut
into batches: the naive sweep of `stats.verify_range`,
`stats.below_power_density` and the coefficient sweep of `coeffstop` each
run one loop over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

#: largest iterate an int64 step may take: 3 * GUARD + 1 <= 2^62 + 1 < 2^63
GUARD = (1 << 62) // 3


def t_step_int(x: int) -> int:
    return (3 * x + 1) // 2 if x & 1 else x // 2


def t_step(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One T-step of every element of an int64 array whose elements are at
    most GUARD, or of an object array of Python ints; returns the new
    iterates and the odd mask of the old ones."""
    odd = (v & 1).astype(bool)
    return np.where(odd, 3 * v + 1, v) >> 1, odd


@dataclass
class Descent:
    """Per-start results of `descend`, indexed like its starts.  An output
    the call did not ask for is None; an unresolved start reads 0.  Every
    column is int64, except that peak is an object array of Python ints
    when some peak passes int64, as only an orbit past GUARD can."""

    unresolved: np.ndarray              # indices still at or above threshold at step_limit
    steps: Optional[np.ndarray] = None  # first step with T^steps(n) below the threshold
    drop: Optional[np.ndarray] = None   # T^steps(n)
    peak: Optional[np.ndarray] = None   # max T^j(n), 1 <= j <= steps (object dtype past int64)
    kappa: Optional[np.ndarray] = None  # coefficient stopping time, 0 if not reached by then


def descend(
    starts: np.ndarray,
    step_limit: int,
    threshold: Optional[np.ndarray] = None,
    *,
    peak: bool = False,
    kappa: bool = False,
) -> Descent:
    """Iterate T on int64 starts until each first falls below its threshold
    (default: the start itself), giving up after step_limit steps.  Only the
    outputs asked for are tracked (peak: drop and peak; kappa: steps and
    kappa).  kappa is the first k with 3^a < 2^k, a the odd steps among the
    first k; it never exceeds the stopping time.  The starts are gathered
    chunk by chunk by `descend_at`.

    A bare call (neither peak nor kappa) only sorts the starts into resolved
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
    survivors of every chunk (about 2% of a naive range, 13% of sieve
    survivors) are pooled for the rest.  Every output of a start depends on
    its own orbit alone, and every pooled start has taken the same steps,
    so the split changes no output.  The working set is one chunk, the
    pool, the indices handed to the next level and the output columns
    asked for: a bare call has none.
    """
    if threshold is None:
        threshold = starts
    return descend_at(len(starts), lambda idx: (starts[idx], threshold[idx]), step_limit,
                      peak=peak, kappa=kappa)


def descend_at(size: int, at: Callable, step_limit: int, *, peak: bool = False,
               kappa: bool = False) -> Descent:
    """`descend` of `size` starts read through at(idx) -> (starts,
    thresholds), two int64 arrays for an int64 array idx of indices in
    0..size - 1: the entry of the cascade, by jumps for a bare call, else
    by single steps.  at is called once per chunk of _CHUNK indices, and
    once more on the indices of the starts the first level hands on, so no
    batch-long array of starts or thresholds is built unless at builds it.
    The outputs are indexed by idx."""
    return _descend(size, at, step_limit, peak, kappa, 1 if peak or kappa else _K)


#: starts per batch of `descend_range`.  The batch bounds only the output
#: columns: `descend_at` computes the starts and thresholds chunk by chunk,
#: so a bare batch holds no column per start and a kappa batch its two
#: int64 output columns (32 MiB at 2^21).  At 2^21 each benchmarked range
#: is one batch (naive verify_range(2^21) and the coefficient bound 238,670).
_BLOCK = 1 << 21


def descend_range(lo: int, hi: int, step_limit: int, threshold: Optional[Callable] = None, *,
                  kappa: bool = False) -> Iterator[tuple[int, Descent]]:
    """Yield (first, descend(n, step_limit, threshold(n), kappa=kappa)) for
    the int64 starts n of lo..hi, in ascending batches of _BLOCK numbers
    from first; a batch's `Descent` is indexed by n - first.  threshold maps
    an array of starts to their thresholds elementwise, and None means n
    itself.  The starts and thresholds are computed chunk by chunk, never
    for a whole batch.  An empty range (lo > hi) yields nothing."""
    for first in range(lo, hi + 1, _BLOCK):
        def at(idx, first=first):
            n = first + idx
            return n, n if threshold is None else threshold(n)
        yield first, descend_at(min(_BLOCK, hi + 1 - first), at, step_limit, kappa=kappa)


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
    """
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


def _chunk_then_pool(size: int, at: Callable, head: Callable, tail: Callable) -> dict:
    """Run head on the live columns {idx, v, thr} of one chunk of _CHUNK
    indices at a time, read through at, and tail on the pooled columns
    head returns; returns what tail returns.  An empty batch is one empty
    chunk."""
    pool = []
    for lo in range(0, max(size, 1), _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, size), dtype=np.int64)
        v, t = at(idx)
        pool.append(head({"idx": idx, "v": v, "thr": t}))
    return tail({name: np.concatenate([live[name] for live in pool]) for name in pool[0]})


def _descend(size: int, at: Callable, step_limit: int, peak: bool, kappa: bool, stride: int,
             dtype=np.int64) -> Descent:
    """`descend_at` at one level of the cascade: stride-`_K` jumps or
    single steps (stride 1) on int64 starts, or single steps on object
    arrays of Python ints (dtype object), the first _HEAD_STEPS // stride
    on one chunk at a time and the rest on the pooled survivors of every
    chunk.  The starts this level cannot settle are collected in `past`
    and run again from the start, in one batch, by `_descend_steps` at the
    next finer level: on int64 after jumps, on Python ints after int64
    single steps.  At the jump level these are the starts with threshold
    <= 2, those whose iterate passes the jump guard, and those still live
    after the last jump, whose drop a jump may have passed over; at the
    int64 single-step level, those whose orbit passes GUARD."""
    names = (("drop", "peak") if peak else ()) + (("steps", "kappa") if kappa else ())
    out = {name: np.zeros(size, dtype=dtype) for name in names}
    stop = step_limit // stride
    head = min(stop, _HEAD_STEPS // stride)
    past = []  # indices of the starts left to the next level

    def first(live):
        if stride > 1 and (low := live["thr"] <= 2).any():
            past.append(live["idx"][low])
            live = {name: col[~low] for name, col in live.items()}
        if peak:
            live["peak"] = np.zeros(len(live["idx"]), dtype=dtype)
        if kappa:
            live["a"] = np.zeros(len(live["idx"]), dtype=np.int64)
            live["kappa"] = np.zeros(len(live["idx"]), dtype=np.int64)
        return _steps(live, out, 0, head, past, stride)

    unresolved = _chunk_then_pool(size, at, first,
                                  lambda live: _steps(live, out, head, stop, past, stride))["idx"]
    if stride > 1:  # a jump may have passed over the drop of a start still live
        past.append(unresolved)
        unresolved = unresolved[:0]
    if past:
        # each sort merges ascending runs, which a stable sort (timsort) does in near linear time
        idx = np.sort(np.concatenate(past), kind="stable")
        v, t = at(idx)
        rerun = _descend_steps(v if stride > 1 else v.astype(object), step_limit, t, peak, kappa)
        unresolved = np.sort(np.concatenate((unresolved, idx[rerun.unresolved])), kind="stable")
        for name in out:
            col = getattr(rerun, name)
            if col.max() > np.iinfo(np.int64).max:  # only a peak gets here
                out[name] = out[name].astype(object)
            out[name][idx] = col
    return Descent(unresolved, **out)


def _descend_steps(
    starts: np.ndarray,
    step_limit: int,
    threshold: np.ndarray,
    peak: bool = False,
    kappa: bool = False,
) -> Descent:
    """`descend` by single steps of given arrays: int64 ones, or object
    arrays of Python ints for the exact run of the orbits past GUARD."""
    return _descend(len(starts), lambda idx: (starts[idx], threshold[idx]), step_limit,
                    peak, kappa, 1, starts.dtype)


def _steps(live: dict, out: dict, step: int, stop: int, past: list, stride: int) -> dict:
    """Take the steps step + 1..stop of the live columns: idx, v, thr and
    the state the outputs need (peak; a and kappa).  A step is one K-step
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
                col[at] = step if name == "steps" else live["v" if name == "drop" else name][gone]
        keep = np.flatnonzero(stays)  # one index for every compaction
        live = {name: col[keep] for name, col in live.items()}
    return live
