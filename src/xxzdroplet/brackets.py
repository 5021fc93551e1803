"""Bracket bases, Temperley-Lieb moves, and the Ising intertwiner.

A bracket system on L sites is a set of n arcs [x_i, y_i] (x_i < y_i)
such that arcs pairwise nest or are disjoint (non-crossing) and no arc
has an unpaired site strictly inside it (non-spanning).  Arcs inside a
bracket are stored sorted by right endpoint; the basis is ordered by
the sorted right endpoints, then sorted left endpoints.  These systems
label the droplet levels of the kink chain: there are
binomial(L, n) - binomial(L, n-1) of them for n <= L/2.

Each bracket maps to the Ising sector through the 2^n-term expansion

    psi(b) = prod_i ( q^{-1/2} S-_{x_i} - q^{1/2} S-_{y_i} ) |all up>,

collected column-wise into the rectangular map R.  The kink bond terms
act on these vectors through local bracket moves generated by the
Temperley-Lieb operators U_x = -(q + 1/q) h^k_{x,x+1}: a bond covered
by an arc [x, x+1] contributes the bubble scalar -(q + 1/q); a bond
touching arcs in one or two sites rewires them; a bond touching none
annihilates.  Collecting moves over all bonds gives the (generally
non-symmetric) bracket-basis matrix A with H^k R = R A exactly, so the
droplet levels can be computed either from A directly or from the
symmetric pair (R^T H^k R, R^T R) (``hw_gram_lowest``).

The quantum-group ladder operators

    S+ = sum_x q^{-2(S3_1+..+S3_{x-1})} S+_x,
    S-  = sum_x S-_x q^{2(S3_{x+1}+..+S3_L)}

commute with the kink chain; S+ annihilates every psi(b), which makes
the bracket vectors highest weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np
import scipy.sparse as sp

from .operators import (
    Anisotropy,
    BoundaryCondition,
    SparseOperator,
    build_sector_hamiltonian,
)
from .sector_basis import SectorBasis, enumerate_sector, sector_dimension, site_bit
from .spectra import EigenResult, check_dense_dim, generalized_lowest

Arc = tuple[int, int]
Bracket = tuple[Arc, ...]


def canonical_bracket(arcs) -> Bracket:
    """Arcs sorted by right endpoint."""
    return tuple(sorted((tuple(a) for a in arcs), key=lambda a: a[1]))


def bracket_sort_key(b: Bracket):
    return (tuple(sorted(y for _, y in b)), tuple(sorted(x for x, _ in b)))


@lru_cache(maxsize=None)
def _perfect_matchings(a: int, b: int) -> tuple[Bracket, ...]:
    """Non-crossing perfect matchings of consecutive sites a..b."""
    if a > b:
        return ((),)
    out = []
    for c in range(a + 1, b + 1, 2):
        for left in _perfect_matchings(a + 1, c - 1):
            for right in _perfect_matchings(c + 1, b):
                out.append(((a, c),) + left + right)
    return tuple(out)


@lru_cache(maxsize=None)
def _enum_brackets(L: int, n: int) -> tuple[Bracket, ...]:
    # place arcs right to left: site L is either free or closes [x, L]
    # with the strict interior perfectly matched
    if n == 0:
        return ((),)
    if L < 2 * n:
        return ()
    out = list(_enum_brackets(L - 1, n))
    for m in range(n):
        x = L - 1 - 2 * m
        if x < 1:
            break
        for prefix in _enum_brackets(x - 1, n - 1 - m):
            for interior in _perfect_matchings(x + 1, L - 1):
                out.append(prefix + interior + ((x, L),))
    return tuple(out)


@dataclass(frozen=True)
class HighestWeightBasis:
    L: int
    n: int
    brackets: tuple[Bracket, ...]

    @cached_property
    def row_of(self) -> dict[Bracket, int]:
        return {b: i for i, b in enumerate(self.brackets)}

    def __len__(self) -> int:
        return len(self.brackets)

    def __iter__(self):
        return iter(self.brackets)

    def index(self, b: Bracket) -> int:
        return self.row_of[canonical_bracket(b)]


def enumerate_brackets(L: int, n: int) -> HighestWeightBasis:
    """All valid n-arc bracket systems on L sites, canonically ordered."""
    if L < 0 or n < 0:
        raise ValueError(f"need L, n >= 0, got L={L}, n={n}")
    found = [canonical_bracket(b) for b in _enum_brackets(L, n)]
    found.sort(key=bracket_sort_key)
    return HighestWeightBasis(L=L, n=n, brackets=tuple(found))


def hw_dimension(L: int, n: int) -> int:
    """binomial(L, n) - binomial(L, n-1), valid for 0 <= n <= L/2."""
    return sector_dimension(L, n) - (math.comb(L, n - 1) if n >= 1 else 0)


@dataclass(frozen=True)
class TLMove:
    """Result of one Temperley-Lieb generator applied to a bracket.

    The scalar is -(q + 1/q) for the bubble [x, x+1] and 1 for every
    rewiring.
    """

    result: Bracket
    scalar: float


def _role(z: int, b: Bracket):
    for arc in b:
        if arc[0] == z:
            return "left", arc
        if arc[1] == z:
            return "right", arc
    return "free", None


def tl_apply(x: int, b: Bracket, L: int, a: Anisotropy) -> TLMove | None:
    """Apply the generator at bond (x, x+1); None when it annihilates.

    The seven actionable patterns on a valid bracket: both sites free
    (null); the bubble [x, x+1]; one endpoint overlapping at x or at
    x+1; and three two-arc rewirings (adjacent fuse, nested at left
    endpoints, nested at right endpoints).  Any other pattern certifies
    the input was not a valid bracket.
    """
    if not 1 <= x <= L - 1:
        raise ValueError(f"bond index must lie in [1, {L - 1}]: {x}")
    b = canonical_bracket(b)
    role_x, arc_x = _role(x, b)
    role_y, arc_y = _role(x + 1, b)
    minus_two_delta = -a.two_delta

    if role_x == "free" and role_y == "free":
        return None
    if arc_x == arc_y:
        # exclusion leaves only [x, x+1] itself
        return TLMove(b, minus_two_delta)

    rest = tuple(arc for arc in b if arc not in (arc_x, arc_y))
    pair: Arc = (x, x + 1)
    if role_x == "free":
        if role_y == "left":
            # [x+1, z] slides onto the bond, freeing z
            result = canonical_bracket(rest + (pair,))
            return TLMove(result, 1.0)
        raise ValueError(f"site {x} unpaired inside {arc_y}: invalid bracket")
    if role_y == "free":
        if role_x == "right":
            result = canonical_bracket(rest + (pair,))
            return TLMove(result, 1.0)
        raise ValueError(f"site {x + 1} unpaired inside {arc_x}: invalid bracket")

    if role_x == "right" and role_y == "left":
        # adjacent arcs [w, x], [x+1, z] fuse into [w, z]
        new_arc = (arc_x[0], arc_y[1])
    elif role_x == "left" and role_y == "left":
        # [x+1, z] nested in [x, v]: leftover arc [z, v]
        new_arc = (arc_y[1], arc_x[1])
    elif role_x == "right" and role_y == "right":
        # [w, x] nested in [u, x+1]: leftover arc [u, w]
        new_arc = (arc_y[0], arc_x[0])
    else:
        raise ValueError(
            f"arcs {arc_x} and {arc_y} cross at bond {x}: invalid bracket"
        )
    result = canonical_bracket(rest + (pair, new_arc))
    return TLMove(result, 1.0)


def _bond_sum(
    bonds, basis: HighestWeightBasis, a: Anisotropy, divisor: float
) -> SparseOperator:
    """Sum over the given bonds of the generator matrices, each scalar
    divided by divisor; column b collects its moved brackets in bond
    order."""
    dim = len(basis)
    rows, cols, vals = [], [], []
    for j, b in enumerate(basis):
        for x in bonds:
            move = tl_apply(x, b, basis.L, a)
            if move is None:
                continue
            rows.append(basis.index(move.result))
            cols.append(j)
            vals.append(move.scalar / divisor)
    mat = sp.coo_matrix(
        (np.array(vals, dtype=np.float64), (rows, cols)), shape=(dim, dim)
    ).tocsr()
    return SparseOperator(mat, "general")


def tl_matrix(x: int, basis: HighestWeightBasis, a: Anisotropy) -> SparseOperator:
    """Matrix of the generator at bond (x, x+1) on the bracket basis."""
    return _bond_sum((x,), basis, a, 1.0)


def build_hw_matrix(
    L: int, n: int, a: Anisotropy
) -> tuple[SparseOperator, HighestWeightBasis]:
    """Kink-chain action on the bracket basis (generally non-symmetric).

    The chain is -(q + 1/q)^-1 times the sum of the generators over
    bonds 1..L-1, so bubbles contribute +1 to the diagonal.
    """
    basis = enumerate_brackets(L, n)
    return _bond_sum(range(1, L), basis, a, -a.two_delta), basis


def build_R(
    L: int, n: int, a: Anisotropy
) -> tuple[SparseOperator, SectorBasis, HighestWeightBasis]:
    """Rectangular intertwiner from bracket basis to the (L, n) sector.

    Column b is the Ising expansion of psi(b): each of the 2^n choices
    of one endpoint per arc gives the state with down spins there, with
    weight q^{-1/2} per left and -q^{1/2} per right endpoint.  Weights
    are integer powers of sqrt(q), so equal-magnitude terms in
    downstream cancellations are the same float.  Every column 1-norm
    is exactly (q^{-1/2} + q^{1/2})^n.
    """
    sector = enumerate_sector(L, n)
    hw = enumerate_brackets(L, n)
    if len(hw) == 0:
        # n > L/2: there are no columns, so skip the 2^n endpoint choices
        return SparseOperator(sp.csr_matrix((len(sector), 0)), "general"), sector, hw
    bits = np.array(
        [0] + [site_bit(L, p) for p in range(1, L + 1)], dtype=sector.masks.dtype
    )
    # (bracket, arc) masks of each arc's left and right endpoint
    ends = np.array(hw.brackets, dtype=np.int64).reshape(len(hw), n, 2)
    left, right = bits[ends[:, :, 0]], bits[ends[:, :, 1]]
    s = math.sqrt(a.q)
    masks, vals = [], []
    for choice in product((False, True), repeat=n):
        masks.append(np.where(choice, right, left).sum(axis=1))
        n_right = sum(choice)
        coeff = (-1.0) ** n_right * s ** (2 * n_right - n)
        vals.append(np.full(len(hw), coeff))
    mat = sp.coo_matrix(
        (
            np.concatenate(vals),
            (sector.rank(np.concatenate(masks)), np.tile(np.arange(len(hw)), 2**n)),
        ),
        shape=(len(sector), len(hw)),
    ).tocsr()
    return SparseOperator(mat, "general"), sector, hw


def hw_gram_lowest(L: int, n: int, a: Anisotropy, k: int = 1) -> EigenResult:
    """E(L, n) through the intertwiner: lowest of (R^T H R) v = E (R^T R) v.

    Both R^T (H R) and R^T R are sparse products; only these two
    hw x hw matrices are densified, never R itself, and the pencil is
    solved for its k lowest levels (``generalized_lowest``).
    """
    rmap, _, hw = build_R(L, n, a)
    if len(hw) == 0:
        raise ValueError(f"empty highest-weight space for L={L}, n={n}")
    # refuse before the hw x hw products are formed
    check_dense_dim(len(hw), "generalized")
    op, _ = build_sector_hamiltonian(L, n, BoundaryCondition.kink(), a)
    r = rmap.matrix
    a_sym = (r.T @ (op.matrix @ r)).toarray()
    a_sym = (a_sym + a_sym.T) / 2.0
    gram = (r.T @ r).toarray()
    return generalized_lowest(a_sym, gram, k=k)


@dataclass(frozen=True)
class SuqGenerators:
    """Quantum-group ladder maps between adjacent sectors."""

    L: int
    anisotropy: Anisotropy

    def lowering(self, n: int) -> SparseOperator:
        """Map from the n-down sector to the (n+1)-down sector.

        Adding a down spin at free site x carries q^{#up(>x) - #down(>x)}.
        """
        return self._ladder(n, n + 1)

    def raising(self, n: int) -> SparseOperator:
        """Map from the n-down sector to the (n-1)-down sector.

        Removing the down spin at x carries q^{#down(<x) - #up(<x)}.
        """
        return self._ladder(n, n - 1)

    def _ladder(self, n: int, m: int) -> SparseOperator:
        # Sites are visited away from the end that sets the exponent,
        # +(#up - #down) over the sites passed when lowering and its
        # negative when raising, with a running count of passed downs.
        L, q = self.L, self.anisotropy.q
        src = enumerate_sector(L, n)
        dst = enumerate_sector(L, m)
        lower = m > n
        sign = 1 if lower else -1
        power = np.array([q**e for e in range(-L, L + 1)])
        passed = np.zeros(len(src), dtype=np.int64)
        rows, cols, vals = [], [], []
        sites = range(L, 0, -1) if lower else range(1, L + 1)
        for t, x in enumerate(sites):
            down = src.down(x)
            # free sites gain a down spin, occupied ones lose it
            j = np.flatnonzero(down != lower)
            rows.append(dst.rank(src.masks[j] ^ site_bit(L, x)))
            cols.append(j)
            vals.append(power[sign * (t - 2 * passed[j]) + L])
            passed += down
        mat = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(len(dst), len(src)),
        ).tocsr()
        return SparseOperator(mat, "general")


def export_triplets(op: SparseOperator, path) -> None:
    """Plain-text sparse export: 'rows cols nnz', then 'i j value' lines.

    Indices are 0-based, values printed with 17 significant digits.
    """
    coo = op.matrix.tocoo()
    with open(path, "w") as fh:
        fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{i} {j} {v:.17g}\n")
