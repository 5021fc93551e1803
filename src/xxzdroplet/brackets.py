"""Bracket bases, Temperley-Lieb moves, and the Ising intertwiner.

A bracket system on L sites is a set of n arcs [x_i, y_i] (x_i < y_i)
such that arcs pairwise nest or are disjoint (non-crossing) and no arc
has an unpaired site strictly inside it (non-spanning).  Its right
ends fix it: reading the sites from left to right, each right end
closes the nearest open site before it.  A bracket system is therefore
stored as the mask of its right ends, and an n-down sector mask is one
exactly when every right end finds an open site (the ballot
condition).  One stack scan over the sites (``_arcs``) gives every
state's arcs and that filter.  The bracket basis is the
``SectorBasis`` of the masks that pass, in sector order; its
binomial(L, n) - binomial(L, n-1) states (n <= L/2) label the droplet
levels of the kink chain.

Each bracket maps to the Ising sector through the 2^n-term expansion

    psi(b) = prod_i ( q^{-1/2} S-_{x_i} - q^{1/2} S-_{y_i} ) |all up>,

collected column-wise into the rectangular map R.  The kink bond terms
act on these vectors through local bracket moves generated by the
Temperley-Lieb operators U_x = -(q + 1/q) h^k_{x,x+1}: a bond covered
by an arc [x, x+1] contributes the bubble scalar -(q + 1/q); a bond
touching arcs in one or two sites rewires them, which moves one right
end and so flips two bits of the mask; a bond touching none
annihilates.  Collecting moves over all bonds gives the (generally
non-symmetric) bracket-basis matrix A with H^k R = R A exactly, so the
droplet levels can be computed either from A directly or through the
intertwiner (``hw_gram_lowest``): A is self-adjoint in the inner
product of G = R^T R, so ``hw_gram_lowest`` runs Lanczos on A in that
inner product, applying G as R^T (R x), and never forms G.

The quantum-group ladder operators

    S+ = sum_x q^{-2(S3_1+..+S3_{x-1})} S+_x,
    S-  = sum_x S-_x q^{2(S3_{x+1}+..+S3_L)}

commute with the kink chain; S+ annihilates every psi(b), which makes
the bracket vectors highest weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
import scipy.sparse as sp

from .operators import (
    Anisotropy,
    BoundaryCondition,
    SparseOperator,
    build_sector_hamiltonian,
)
from .sector_basis import (
    DIMENSION_GUARD,
    DimensionGuardError,
    SectorBasis,
    enumerate_sector,
    sector_dimension,
    site_bit,
)
from .spectra import EigenResult, lanczos_lowest


def _arcs(basis: SectorBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left and right ends of every state's arcs, and the ballot filter.

    The down spins of a state are read as right ends.  Scanning the
    sites from left to right, each right end closes the nearest open
    site before it; the state is a bracket system when every right end
    finds one.  Returns (left, right, ok), the ends as (states, n)
    arrays of sites with the arcs sorted by right end.
    """
    L, n, dim = basis.L, basis.n, len(basis)
    left = np.zeros((dim, n), dtype=np.int64)
    right = np.zeros((dim, n), dtype=np.int64)
    # open sites of each state, top of the stack at depth - 1; the
    # spare column keeps n = L indexable
    stack = np.zeros((dim, L - n + 1), dtype=np.int64)
    depth = np.zeros(dim, dtype=np.int64)
    closed = np.zeros(dim, dtype=np.int64)
    ok = np.ones(dim, dtype=bool)
    for p in range(1, L + 1):
        down = basis.down(p)
        j = np.flatnonzero(down)
        ok[j] &= depth[j] > 0
        top = np.maximum(depth[j] - 1, 0)
        left[j, closed[j]] = stack[j, top]
        right[j, closed[j]] = p
        closed[j] += 1
        depth[j] = top
        j = np.flatnonzero(~down)
        stack[j, depth[j]] = p
        depth[j] += 1
    return left, right, ok


def enumerate_brackets(L: int, n: int) -> SectorBasis:
    """All n-arc bracket systems on L sites as right-end masks, in sector order."""
    sector = enumerate_sector(L, n)
    return SectorBasis(L=L, n=n, masks=sector.masks[_arcs(sector)[2]])


def hw_dimension(L: int, n: int) -> int:
    """binomial(L, n) - binomial(L, n-1), valid for 0 <= n <= L/2."""
    return sector_dimension(L, n) - (math.comb(L, n - 1) if n >= 1 else 0)


def _site_bits(basis: SectorBasis) -> np.ndarray:
    """Mask bit of each site 1..L at its index; index 0 holds no bit."""
    L = basis.L
    return np.array(
        [0] + [site_bit(L, p) for p in range(1, L + 1)], dtype=basis.masks.dtype
    )


def _bond_sum(
    bonds, basis: SectorBasis, a: Anisotropy, divisor: float
) -> SparseOperator:
    """Sum over the given bonds of the generator matrices, each scalar
    divided by divisor; column b collects its moved brackets in bond
    order.

    At bond (x, x+1) the arc [x, x+1] is a bubble with scalar
    -(q + 1/q) and two free sites annihilate.  Every other move has
    scalar 1 and replaces one right end: x by x+1 when x is a right
    end, or by x's partner when x+1 is one too; otherwise the partner
    of the left end at x+1 by x+1.
    """
    dim = len(basis)
    left, right, _ = _arcs(basis)
    rows = np.arange(dim)[:, None]
    partner = np.zeros((dim, basis.L + 2), dtype=np.int64)
    partner[rows, left] = right
    partner[rows, right] = left
    x = np.asarray(bonds, dtype=np.int64)
    # (state, bond) arrays; a valid bracket has y_right only with x_right
    px, py = partner[:, x], partner[:, x + 1]
    bubble = px == x + 1
    x_right = (0 < px) & (px < x)
    y_right = (0 < py) & (py < x)
    moved = x_right | (py > x + 1)
    old = np.where(x_right, x, py)[moved]
    new = np.where(y_right, px, x + 1)[moved]
    cols = np.broadcast_to(rows, px.shape)
    bits = _site_bits(basis)
    target = cols.copy()
    target[moved] = basis.rank(basis.masks[cols[moved]] ^ bits[old] ^ bits[new])
    keep = bubble | moved
    vals = np.where(bubble, -a.two_delta, 1.0)[keep] / divisor
    mat = sp.coo_matrix(
        (vals, (target[keep], cols[keep])), shape=(dim, dim)
    ).tocsr()
    return SparseOperator(mat, "general")


def tl_matrix(x: int, basis: SectorBasis, a: Anisotropy) -> SparseOperator:
    """Matrix of the generator at bond (x, x+1) on the bracket basis."""
    if not 1 <= x <= basis.L - 1:
        raise ValueError(f"bond index must lie in [1, {basis.L - 1}]: {x}")
    return _bond_sum((x,), basis, a, 1.0)


def build_hw_matrix(
    L: int, n: int, a: Anisotropy
) -> tuple[SparseOperator, SectorBasis]:
    """Kink-chain action on the bracket basis (generally non-symmetric).

    The chain is -(q + 1/q)^-1 times the sum of the generators over
    bonds 1..L-1, so bubbles contribute +1 to the diagonal.
    """
    basis = enumerate_brackets(L, n)
    return _bond_sum(range(1, L), basis, a, -a.two_delta), basis


def build_R(
    L: int, n: int, a: Anisotropy
) -> tuple[SparseOperator, SectorBasis, SectorBasis]:
    """Rectangular intertwiner from bracket basis to the (L, n) sector.

    Column b is the Ising expansion of psi(b): each of the 2^n choices
    of one endpoint per arc gives the state with down spins there, with
    weight q^{-1/2} per left and -q^{1/2} per right endpoint.  Weights
    are integer powers of sqrt(q), so equal-magnitude terms in
    downstream cancellations are the same float.  Every column 1-norm
    is exactly (q^{-1/2} + q^{1/2})^n.  R holds binomial(L, n) -
    binomial(L, n-1) times 2^n entries, and more than DIMENSION_GUARD
    raise DimensionGuardError before the sector is enumerated.
    """
    entries = hw_dimension(L, n) << n if 2 * n <= L else 0
    if entries > DIMENSION_GUARD:
        raise DimensionGuardError(
            f"intertwiner (L={L}, n={n}) has {entries} entries > {DIMENSION_GUARD}"
        )
    sector = enumerate_sector(L, n)
    left, right, ok = _arcs(sector)
    hw = SectorBasis(L=L, n=n, masks=sector.masks[ok])
    if len(hw) == 0:
        # n > L/2: there are no columns, so skip the 2^n endpoint choices
        return SparseOperator(sp.csr_matrix((len(sector), 0)), "general"), sector, hw
    # (bracket, arc) masks of each arc's left and right endpoint
    bits = _site_bits(sector)
    left, right = bits[left[ok]], bits[right[ok]]
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


class _GramProduct:
    """G = R^T R applied as two sparse products; G itself is never formed.

    At L = 22..28, n = 4 and L = 24, n = 5 the two products took 0.14
    to 0.41 times as long as one product with the formed G, which holds
    5 to 8 times R's entries (shared 2-core Xeon).
    """

    def __init__(self, r):
        self.r, self.rt = r, r.T.tocsr()

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.rt @ (self.r @ x)


def hw_gram_lowest(L: int, n: int, a: Anisotropy, k: int = 1) -> EigenResult:
    """E(L, n) through the intertwiner: the k lowest levels of the
    kink chain H over the span of R's columns.

    H R = R A for the bracket-basis matrix A, and G = R^T R is positive
    definite, so A is self-adjoint in the inner product <x, y> = x^T G y.
    ``lanczos_lowest`` runs on A (``_bond_sum`` on the intertwiner's own
    bracket basis, so the sector is enumerated once for R and once for
    H) in the G inner product, with G applied as R^T (R x), at every
    highest-weight dimension.  The reported vectors y have |R y| = 1,
    the residuals are those of H at R y (the run's own G-norm residuals,
    which they replace, are never taken), and the method is
    ``gram-lanczos``.  Neither R nor G is densified.
    """
    if 2 * n > L:
        raise ValueError(f"empty highest-weight space for L={L}, n={n}")
    rmap, _, hw = build_R(L, n, a)
    op, _ = build_sector_hamiltonian(L, n, BoundaryCondition.kink(), a)
    r = rmap.matrix
    bracket = _bond_sum(range(1, L), hw, a, -a.two_delta)
    res = lanczos_lowest(bracket, k=k, gram=_GramProduct(r))
    ry = r @ res.vectors
    res.residuals = np.linalg.norm(op.matrix @ ry - ry * res.values, axis=0)
    res.method = "gram-lanczos"
    return res


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
