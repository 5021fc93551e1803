"""Complex droplet kernel K(theta), assembled from the hop formula.

The package holds the truncated kernel only in its real form
K~ = Re K + (Im K) R.  This reference builds the complex Hermitian K
directly from the physics: the particles sit at x_1 < ... < x_n with
gaps N_k = x_k - x_{k-1} in [1, n_max] (k = 2..n), the diagonal is
1 + #{k : N_k >= 2}, and particle p moving left (right) adds
-e^{+i theta}/(2 Delta) (its conjugate) between a gap vector and the one
it moves to, if that stays in the box.  Gap vectors are numbered in C
order, first gap most significant; R maps each to its reverse
(N_2..N_n) -> (N_n..N_2).
"""

import math

import numpy as np
import scipy.sparse as sp


def gap_vectors(n: int, n_max: int) -> np.ndarray:
    """All gap vectors of the box, one row each, in C order; one empty row for n = 1."""
    if n == 1:
        return np.zeros((1, 0), dtype=int)
    return np.indices((n_max,) * (n - 1)).reshape(n - 1, -1).T + 1


def reversal(n: int, n_max: int) -> np.ndarray:
    """rev[i]: the row of gap vector i with its gaps in reverse order."""
    gaps = gap_vectors(n, n_max)
    if n == 1:
        return np.zeros(1, dtype=int)
    return np.ravel_multi_index(tuple((gaps[:, ::-1] - 1).T), (n_max,) * (n - 1))


def complex_kernel(n: int, theta: float, q: float, n_max: int) -> sp.csr_matrix:
    """K(theta) as a complex CSR matrix, repeated entries summed."""
    hop = 1.0 / (q + 1.0 / q)
    left = complex(-hop * math.cos(theta), -hop * math.sin(theta))
    gaps = gap_vectors(n, n_max)
    dim = len(gaps)
    idx = np.arange(dim)
    rows = [idx]
    cols = [idx]
    vals = [1.0 + np.count_nonzero(gaps >= 2, axis=1).astype(complex)]
    for p in range(1, n + 1):
        for step, amp in ((-1, left), (+1, left.conjugate())):
            moved = gaps.copy()
            # x_p -> x_p + step changes N_p = x_p - x_{p-1} (column p - 2)
            # and N_{p+1} = x_{p+1} - x_p (column p - 1)
            if p >= 2:
                moved[:, p - 2] += step
            if p <= n - 1:
                moved[:, p - 1] -= step
            inside = np.all((moved >= 1) & (moved <= n_max), axis=1)
            if n == 1:
                target = idx[inside]
            else:
                target = np.ravel_multi_index(
                    tuple((moved[inside] - 1).T), (n_max,) * (n - 1)
                )
            rows.append(idx[inside])
            cols.append(target)
            vals.append(np.full(len(target), amp))
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    ).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat
