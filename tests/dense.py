"""The n×n matrix behind the package's banded and block-diagonal types,
for tests that check those types against textbook dense formulas."""

import numpy as np

from segspectral.eigen import BlockDiagonal


def dense_matrix(m) -> np.ndarray:
    """A ConnectionMatrix or a BlockDiagonal as one dense matrix."""
    if isinstance(m, BlockDiagonal):
        n = int(m.sizes.sum())
        out = np.zeros((n, n))
        start = 0
        for block, size in zip(m.blocks, m.sizes.tolist()):
            out[start : start + size, start : start + size] = block[:size, :size]
            start += size
        return out
    out = np.diag(m.diag)
    for d, band in ((1, m.off1), (2, m.off2)):
        i = np.arange(band.size)
        out[i, i + d] = out[i + d, i] = band
    return out
