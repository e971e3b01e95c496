"""Reference LCP array: Kasai's algorithm (Kasai et al., CPM 2001), a loop
over positions, and the common prefix of two suffixes letter by letter.  The
package reads the LCP off the doubling ranks, q letters a step, and finishes
it inside one packed q-gram from the highest set bit of an XOR
(`absquares.counting.lcp_array`); these slow loops compare single letters,
and are what the tests hold that descent to."""

import numpy as np


def kasai(data: bytes, sa) -> np.ndarray:
    """lcp[i] is the common-prefix length of the suffixes at sa[i-1] and
    sa[i] (lcp[0] = 0); sa must be the full suffix array of data."""
    n = len(data)
    lcp = np.zeros(n, dtype=np.int64)
    if n == 0:
        return lcp
    rank = np.empty(n, dtype=np.int64)
    rank[np.asarray(sa)] = np.arange(n)
    h = 0
    for i in range(n):
        r = rank[i]
        if r > 0:
            j = int(sa[r - 1])
            while i + h < n and j + h < n and data[i + h] == data[j + h]:
                h += 1
            lcp[r] = h
            if h > 0:
                h -= 1
        else:
            h = 0
    return lcp


def common_prefix(data: bytes, i: int, j: int) -> int:
    """Length of the common prefix of the suffixes of data at i and j."""
    k = 0
    while i + k < len(data) and j + k < len(data) and data[i + k] == data[j + k]:
        k += 1
    return k
