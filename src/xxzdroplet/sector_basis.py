"""Magnetization-sector bases for a spin-1/2 chain.

A configuration with n down spins on L sites is a strictly increasing
tuple of 1-based positions, stored as a bit mask with site p on bit
L - p.  Sector bases keep their masks in descending order, which is
the lexicographic order of the tuples, so ranking a state is one
binary search.

The module also provides the gap box used for a single droplet of n
down spins on the infinite chain (the spacings N_2..N_n between
consecutive particles, each >= 1, boxed at some n_max) and the
translation orbit of every ring state, used to block-diagonalize
cyclic chains by momentum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Builders refuse sector or gap domains larger than this.
DIMENSION_GUARD = 5_000_000


class DimensionGuardError(ValueError):
    """Requested basis exceeds the hard dimension guard."""


def sector_dimension(L: int, n: int) -> int:
    if L < 0 or n < 0 or n > L:
        raise ValueError(f"need 0 <= n <= L, got L={L}, n={n}")
    return math.comb(L, n)


def site_bit(L: int, p: int) -> int:
    """Bit of site p in a state mask: site 1 is the highest bit, L-1."""
    return 1 << (L - p)


def config_mask(config, L: int) -> int:
    """Mask of a configuration given by its down-spin positions."""
    return sum(site_bit(L, p) for p in config)


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """Ordered basis of the n-down-spin sector on L sites.

    ``masks`` holds one bit pattern per state, down spin at site p on
    bit L - p, in descending order, which is the lexicographic order
    of the position tuples.  Masks are int64 up to 62 sites and Python
    integers (object arrays) beyond.
    """

    L: int
    n: int
    masks: np.ndarray

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i: int) -> tuple[int, ...]:
        mask = int(self.masks[i])
        return tuple(p for p in range(1, self.L + 1) if mask & site_bit(self.L, p))

    def down(self, p: int) -> np.ndarray:
        """Boolean array: does each state have a down spin at site p?"""
        return ((self.masks >> (self.L - p)) & 1).astype(bool)

    def rank(self, masks) -> np.ndarray:
        """Rows of the given masks; ValueError if one is not in the sector."""
        masks = np.asarray(masks, dtype=self.masks.dtype)
        ascending = self.masks[::-1]
        pos = np.searchsorted(ascending, masks)
        if not np.all(ascending[np.minimum(pos, len(self) - 1)] == masks):
            raise ValueError(f"state outside the (L={self.L}, n={self.n}) sector")
        return len(self) - 1 - pos

    def index(self, config: tuple[int, ...]) -> int:
        """Row of ``config``; ValueError if it is not a state of the sector."""
        config = tuple(config)
        if all(1 <= p <= self.L for p in config):
            i = int(self.rank([config_mask(config, self.L)])[0])
            if self[i] == config:
                return i
        raise ValueError(
            f"{config} is not a configuration of the (L={self.L}, n={self.n}) sector"
        )


def enumerate_sector(L: int, n: int) -> SectorBasis:
    """All n-down configurations on L sites, lexicographically ordered."""
    dim = sector_dimension(L, n)
    if dim > DIMENSION_GUARD:
        raise DimensionGuardError(
            f"sector (L={L}, n={n}) has dimension {dim} > {DIMENSION_GUARD}"
        )
    # by_count[k]: descending masks of k down spins on the last l sites;
    # counts that can no longer reach n are dropped.  int64 keeps every
    # mask and shifted mask below 2**62.
    by_count = {0: np.zeros(1, dtype=np.int64 if L <= 62 else object)}
    for l in range(1, L + 1):
        top = 1 << (l - 1)
        by_count = {
            k: np.concatenate(
                ([by_count[k - 1] | top] if k - 1 in by_count else [])
                + ([by_count[k]] if k in by_count else [])
            )
            for k in range(max(0, n - (L - l)), min(n, l) + 1)
        }
    return SectorBasis(L=L, n=n, masks=by_count[n])


class GapDomain:
    """Boxed gap coordinates (N_2..N_n), 1 <= N_k <= n_max, lexicographic.

    Gap vectors are numbered without materializing them: the index is
    mixed-radix in base n_max with digits N_k - 1, most significant
    first, which is C order on the box (n_max,)^(n-1).  For n = 1 the
    domain is the single empty gap vector.
    """

    def __init__(self, n: int, n_max: int):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if n_max < 1:
            raise ValueError(f"need n_max >= 1, got {n_max}")
        dim = n_max ** (n - 1)
        if dim > DIMENSION_GUARD:
            raise DimensionGuardError(
                f"gap domain (n={n}, n_max={n_max}) has dimension "
                f"{dim} > {DIMENSION_GUARD}"
            )
        self.n = n
        self.n_max = n_max
        self.dim = dim
        # most-significant coordinate first, matching lexicographic order
        self.strides = tuple(n_max ** (n - 2 - j) for j in range(n - 1))
        self._digits = None

    def digits(self) -> np.ndarray:
        """(dim, n-1) array of N_k - 1 values, row i = gap vector i."""
        if self._digits is None:
            idx = np.arange(self.dim, dtype=np.int64)
            cols = [
                (idx // s) % self.n_max for s in self.strides
            ]
            self._digits = (
                np.stack(cols, axis=1)
                if cols
                else np.zeros((self.dim, 0), dtype=np.int64)
            )
        return self._digits


def ring_orbits(basis: SectorBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Translation orbit of every state of a ring sector.

    Returns, per state, the row of its orbit representative (the
    lexicographically smallest member, i.e. the largest mask), the
    shift l with state = translate^l(representative), and the orbit
    size.  Translation by one site is a right rotation of the mask.
    """
    L, masks = basis.L, basis.masks
    best, first = masks, np.zeros(len(basis), dtype=np.int64)
    size = np.zeros(len(basis), dtype=np.int64)
    cur = masks
    for l in range(1, L + 1):
        cur = (cur >> 1) | ((cur & 1) << (L - 1))
        up = cur > best
        best = np.where(up, cur, best)
        first[up] = l
        size[(size == 0) & (cur == masks)] = l
    # translate^first(state) is the representative
    return basis.rank(best), (size - first) % size, size
