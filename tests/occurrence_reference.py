"""Reference occurrence lists: every start of each distinct factor, one sorted
array per factor, and the recurrence-index estimate read off them in a loop
over factors.  The package reads the estimate off one sort of all starts by
(factor, start) (`absquares.analysis.recurrence_index_estimate`); this
per-factor split-and-sort is what the tests compare it against."""

import numpy as np


def occurrence_blocks(index, length: int) -> list[np.ndarray]:
    """All occurrence positions of each distinct factor of the given length
    in a `FactorIndex`, one sorted array per factor, factors in suffix order."""
    if length < 1 or length > index.depth:
        raise ValueError(f"factor length {length} out of range 1..{index.depth}")
    valid = np.flatnonzero(index.sa <= index.n - length)
    starts = np.flatnonzero(index.lcp[valid] < length)
    blocks = np.split(index.sa[valid], starts[1:])
    return [np.sort(b) for b in blocks]


def recurrence_by_blocks(index, length: int) -> int:
    """Least m such that every length-m window of the indexed word holds every
    distinct length-`length` factor: the leading window, the trailing one and
    each gap between consecutive starts, factor by factor."""
    total = index.n
    needed = length
    for occ in occurrence_blocks(index, length):
        needed = max(needed, int(occ[0]) + length, total - int(occ[-1]))
        if len(occ) > 1:
            needed = max(needed, int(np.diff(occ).max()) + length - 1)
    return needed
