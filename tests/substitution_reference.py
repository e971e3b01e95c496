"""Reference versions of `Substitution.apply` and `Substitution.is_primitive`
on raw image bytes: a join of one image per letter, and powers of the 0/1
incidence matrix.  The package translates latin-1 text through an image table
and closes letter sets instead; these are what the tests compare it against."""

import numpy as np


def apply(images: list[bytes], data: bytes) -> bytes:
    return b"".join(images[letter] for letter in data)


def incidence_matrix(images: list[bytes]) -> np.ndarray:
    """M[i, j] = occurrences of letter i in the image of letter j."""
    sigma = len(images)
    m = np.zeros((sigma, sigma), dtype=np.int64)
    for j, img in enumerate(images):
        for letter in img:
            m[letter, j] += 1
    return m


def is_primitive(images: list[bytes]) -> bool:
    """Some power of the incidence matrix is entrywise positive; powers up to
    sigma**2 suffice (Wielandt's bound is (sigma-1)**2 + 1)."""
    m = (incidence_matrix(images) > 0).astype(np.int8)
    power = m.copy()
    for _ in range(len(images) ** 2):
        if power.all():
            return True
        power = ((power @ m) > 0).astype(np.int8)
    return bool(power.all())
