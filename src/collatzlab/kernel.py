"""The T-step kernel: the one place that steps T(x) = (3x+1)/2 for odd x,
x/2 for even x, and the one overflow policy of the vectorized sweeps.
`lift` is the one place that builds residue tables mod 2^k: the jump table
here, the stopping-time sieve and the 2-adic parity table read it.

Every sweep is a descent: iterate T on a batch of starts until each first
falls below a threshold (the start itself for the stopping time; Terras
1976).  `descend` runs it on int64 arrays, by K-step jumps where only the
verdict is asked for; a start above GUARD, or one whose orbit crosses it,
is run again from the start by the same single-step loop on Python ints,
so every number it returns is exact and no caller sees an overflow.
The jumps are taken chunk, then pool: the first few on one cache-sized
chunk of starts at a time, the rest on the pooled survivors of every
chunk, so a bare descent holds one chunk, the pool and one bool per start,
whatever the batch size.

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
    first k; it never exceeds the stopping time.

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

    The first _HEAD_JUMPS jumps (32 steps) run on one chunk of _CHUNK = 2^16
    starts at a time, and the survivors of every chunk (about 2% of a naive
    range, 13% of sieve survivors) are pooled for the rest.  A verdict
    depends on its own orbit alone, and every pooled start has taken the
    same jumps, so the split changes no output.  The working set is one
    chunk, the pool and one bool per start, whatever the batch size.
    """
    if threshold is None:
        threshold = starts
    if peak or kappa:
        return _descend_steps(starts, step_limit, threshold, peak, kappa)
    return Descent(_descend_jumps(starts, step_limit, threshold))


#: starts per batch of `descend_range`.  At 2^21 each benchmarked range is
#: one batch (naive verify_range(2^21) and the coefficient bound 238,670).
#: Smaller batches lower the peak resident set but run slower: with no
#: 16 MiB array freed, glibc malloc never raises its mmap and trim
#: thresholds, so it unmaps every batch's pages and faults them in again.
#: Past one batch the old sizes differ (2^22 naive, 2^20 coefficient
#: sweep): verify_range(2^23, mode="naive") keeps its time at a lower peak,
#: while _sweep_for_disagreement(5 * 10^6, 4000) runs about 8% slower in
#: the median and at twice the peak, since a kappa descent holds its
#: columns for the whole batch.
_BLOCK = 1 << 21


def descend_range(lo: int, hi: int, step_limit: int, threshold: Optional[Callable] = None, *,
                  kappa: bool = False) -> Iterator[tuple[np.ndarray, Descent]]:
    """Yield (n, descend(n, step_limit, threshold(n), kappa=kappa)) for
    the int64 starts n of lo..hi, in ascending batches of _BLOCK numbers;
    threshold maps a batch to its thresholds, and None means n itself.  An empty range (lo > hi) yields nothing."""
    for start in range(lo, hi + 1, _BLOCK):
        n = np.arange(start, min(start + _BLOCK - 1, hi) + 1, dtype=np.int64)
        thr = None if threshold is None else threshold(n)
        yield n, descend(n, step_limit, thr, kappa=kappa)


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
_CHUNK = 1 << 16  # starts per head chunk, whose columns stay in cache
_HEAD_JUMPS = 4  # jumps per chunk before the survivors are pooled


def _descend_jumps(starts: np.ndarray, step_limit: int, thr: np.ndarray) -> np.ndarray:
    """The unresolved indices of a bare `descend`, by K-step jumps: the
    first _HEAD_JUMPS on one chunk of _CHUNK starts at a time, the rest on
    the pooled survivors of every chunk."""
    single = thr <= 2
    jumps = step_limit // _K
    head = min(jumps, _HEAD_JUMPS)
    pool = []
    for lo in range(0, len(starts), _CHUNK):
        idx = lo + np.flatnonzero(~single[lo:lo + _CHUNK])
        pool.append(_jump(idx, starts[idx], thr[idx], head, single))
    if pool:
        idx, v, t = (np.concatenate(col) for col in zip(*pool))
        live = _jump(idx, v, t, jumps - head, single)[0]
        single[live] = True  # a jump may have passed over the drop of a start still live
    rerun = np.flatnonzero(single)
    return rerun[_descend_steps(starts[rerun], step_limit, thr[rerun]).unresolved]


def _jump(
    idx: np.ndarray, v: np.ndarray, t: np.ndarray, jumps: int, single: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Take up to `jumps` K-step jumps of the starts idx, at iterates v
    (a copy, stepped in place) with thresholds t, and return the columns of
    those still live.  A start whose iterate passes the jump guard is
    marked in `single` and dropped."""
    limit = (GUARD // 3**_K) << _K  # a jump from v <= limit stays <= GUARD + 3^K
    for _ in range(jumps):
        if not len(idx):
            break
        over = v > limit
        if over.any():
            single[idx[over]] = True
            idx, v, t = idx[~over], v[~over], t[~over]
        low = v & ((1 << _K) - 1)
        v >>= _K
        v *= _JUMP_MUL[low]
        v += _JUMP_ADD[low]
        stays = np.flatnonzero(v >= t)  # one index for the three compactions
        idx, v, t = idx[stays], v[stays], t[stays]
    return idx, v, t


def _descend_steps(
    starts: np.ndarray,
    step_limit: int,
    threshold: np.ndarray,
    peak: bool = False,
    kappa: bool = False,
) -> Descent:
    """`descend` by single steps: the live set is compacted as starts
    retire, and a bare call costs a step, a compare, a compaction and a
    guard test per step.  A start whose orbit passes GUARD leaves the int64
    run; those starts are run again from the start, in one batch, by this
    same loop on object arrays of Python ints, which has no guard."""
    size, exact = len(starts), starts.dtype == object
    dtype = object if exact else np.int64
    names = (("drop", "peak") if peak else ()) + (("steps", "kappa") if kappa else ())
    out = {name: np.zeros(size, dtype=dtype) for name in names}
    live = {"idx": np.arange(size), "v": starts, "thr": threshold}
    if peak:
        live["peak"] = np.zeros(size, dtype=dtype)
    if kappa:
        live["a"] = np.zeros(size, dtype=np.int64)
        live["kappa"] = np.zeros(size, dtype=np.int64)
        amax, p3 = -1, 1  # largest a with 3^a < 2^step, and 3^(amax + 1)
    past = []  # indices of orbits that went past GUARD
    step = 0
    while len(live["idx"]):
        if not exact and (big := live["v"] > GUARD).any():
            past.append(live["idx"][big])
            live = {k: s[~big] for k, s in live.items()}
        if step == step_limit:
            break
        v, odd = t_step(live["v"])
        live["v"] = v
        step += 1
        if peak:
            np.maximum(live["peak"], v, out=live["peak"])
        if kappa:
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
        live = {k: s[keep] for k, s in live.items()}

    unresolved = live["idx"]
    if past:
        idx = np.concatenate(past)
        rerun = _descend_steps(starts[idx].astype(object), step_limit, threshold[idx], peak, kappa)
        unresolved = np.sort(np.concatenate((unresolved, idx[rerun.unresolved])))
        for name in out:
            col = getattr(rerun, name)
            if col.max() > np.iinfo(np.int64).max:  # only a peak gets here
                out[name] = out[name].astype(object)
            out[name][idx] = col
    return Descent(unresolved, **out)
