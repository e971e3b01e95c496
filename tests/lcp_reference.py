"""Reference LCP array: Kasai's algorithm (Kasai et al., CPM 2001), a loop
over positions.  The package reads the LCP off the doubling ranks
(`absquares.counting.lcp_array`); this slow, letter-by-letter loop is what
the tests compare that descent against."""

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
