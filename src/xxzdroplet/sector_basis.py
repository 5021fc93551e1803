"""Magnetization-sector bases for a spin-1/2 chain.

A configuration with n down spins on L sites is a strictly increasing
tuple of 1-based positions, stored as a bit mask with site p on bit
L - p.  Sector bases keep their masks in descending order, which is
the lexicographic order of the tuples, so ranking an arbitrary state
is one binary search.

Masks with n set bits, in ascending numeric order, are in colex order:
the ascending rank of a mask whose set bits are b_1 < ... < b_n is
sum_k C(b_k, k), and its row is the sector dimension minus 1 minus
that rank (``binomial_table``).  A down spin that hops across the open
bond (x, x + 1) moves one bit between b = L - x - 1 and b + 1, which
changes that rank by C(b, c), c the set bits below b; a running count
of those while the bonds are swept gives every hop's row in O(1)
(``open_bond_hops``), and the same sum ranks every state's mirror image.

The module also provides the translation orbit of every ring state,
used to block-diagonalize cyclic chains by momentum, and the mirror
image of every state under site reflection, used by those blocks and
by the reflection-even sector ground states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# enumerate_sector and build_reduced_kernel refuse larger sectors or gap boxes.
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

    def down(self, p: int) -> np.ndarray:
        """Boolean array: does each state have a down spin at site p?

        A site outside 1..L holds none.
        """
        return (self.masks & (site_bit(self.L, p) if p <= self.L else 0)) != 0

    def rank(self, masks) -> np.ndarray:
        """Rows of the given masks; ValueError if one is not in the sector."""
        masks = np.asarray(masks, dtype=self.masks.dtype)
        ascending = self.masks[::-1]
        pos = np.searchsorted(ascending, masks)
        if not np.all(ascending[np.minimum(pos, len(self) - 1)] == masks):
            raise ValueError(f"state outside the (L={self.L}, n={self.n}) sector")
        return len(self) - 1 - pos


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


def binomial_table(L: int, n: int) -> np.ndarray:
    """int64 table of C(b, c) for bits 0 <= b < L and 0 <= c <= n.

    Built per call.  Every entry a sector state looks up, a term of its
    colex rank or the rank change of a hop, is below C(L, n), so each
    entry is capped there, which keeps the table int64 at any L.
    """
    cap = math.comb(L, n)
    return np.array(
        [[min(math.comb(b, c), cap) for c in range(n + 1)] for b in range(L)],
        dtype=np.int64,
    ).reshape(L, n + 1)


def open_bond_hops(basis: SectorBasis):
    """The hops across each open bond (x, x + 1), x = 1..L-1, by rank arithmetic.

    Yields, bond by bond, (left, left_to, right, right_to): the rows whose
    down spin at site x + 1 moves to the empty site x and the rows they
    reach, then the rows whose down spin at x moves to an empty x + 1
    and theirs.  Each is ascending.  A left move raises the mask, so its
    row falls by C(b, c) with b = L - x - 1 and c the down spins right of
    site x + 1; a right move is the converse.  c is kept as a running
    count while the bonds are swept, so no row is searched for.
    """
    L, n = basis.L, basis.n
    if L < 2:
        return
    table = binomial_table(L, n)
    down_y = basis.down(1)
    below = n - down_y.astype(np.int32)  # down spins right of site x + 1
    for x in range(1, L):
        down_x, down_y = down_y, basis.down(x + 1)
        below -= down_y
        step = table[L - x - 1]
        moved = np.flatnonzero(down_x != down_y)
        to_left = down_y[moved]
        left, right = moved[to_left], moved[~to_left]
        yield left, left - step[below[left]], right, right + step[below[right]]


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


def mirror_rows(basis: SectorBasis) -> np.ndarray:
    """Row of each state's mirror image under site reflection p -> L + 1 - p.

    Site p sits on bit L - p, so the reflection reverses a mask's L bits:
    a down spin at site p lands on bit p - 1, as the k-th lowest set bit
    of the image when k down spins lie on sites 1..p.  The image's
    colex rank, sum C(p - 1, k) over its down spins, is summed over the
    sites with that running count, so no state is searched for.
    """
    L, n = basis.L, basis.n
    table = binomial_table(L, n)
    count = np.zeros(len(basis), dtype=np.int64)
    rank = np.zeros(len(basis), dtype=np.int64)
    for p in range(1, L + 1):
        down = basis.down(p)
        count += down
        rank += table[p - 1][count] * down
    return len(basis) - 1 - rank
