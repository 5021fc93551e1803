"""Hamiltonians for the ferromagnetic XXZ chain in the Ising basis.

Conventions.  The anisotropy is parametrized by q in (0, 1] through
Delta = (q + 1/q)/2; alpha = (1 - q^2)/(1 + q^2) satisfies
alpha^2 + Delta^-2 = 1.  Every bond carries the normalized term

    h = 1/4 - S3 S3 - (S1 S1 + S2 S2)/Delta,

so aligned pairs cost nothing and the chain Hamiltonian is nonnegative
with ground energy exactly 0.  Four boundary conditions are supported:

* ``open``      -- bonds 1..L-1, no extra terms;
* ``kink``      -- each bond additionally carries
                   -(alpha/2)(S3_x - S3_{x+1}); the per-bond kink term
                   is an orthogonal projector, and the boundary fields
                   telescope to -(alpha/2)(S3_1 - S3_L);
* ``droplet``   -- open bonds plus the global diagonal field
                   (delta/2)(1 - S3_1 - S3_L);
* ``cyclic``    -- open bonds plus the wrap bond (L, 1), also carrying
                   the 1/4 shift so the all-up ring has energy 0.

The chain operators are assembled over a magnetization sector
(conserved down-spin number) as scipy CSR matrices wrapped in
SparseOperator.

The reduced kernel describes a single n-droplet on the infinite chain
at total momentum theta in gap coordinates (N_2..N_n): the diagonal
counts 1 + #{k : N_k >= 2} and each particle hops left/right with
amplitude -e^{+-i theta}/(2 Delta).  Truncation to the box
[1, n_max]^{n-1} drops out-of-box hops (Dirichlet), which keeps the
kernel Hermitian and makes its lowest eigenvalue decrease monotonically
to the infinite-volume energy as n_max grows.  The box is a plain array
shape, (n_max,)^(n-1): gap vectors are numbered in its C order, first
gap most significant, N_k - 1 along axis k - 2, and for n = 1 it holds
the single empty gap vector.  Reversing the gaps, N_k <-> N_{n+2-k}
(the box with its axes reversed, R), maps the box onto itself and turns
each left hop into the mirror right hop, so R K R = conj K exactly.
The kernel is therefore held in the real symmetric form
K~ = Re K + (Im K) R, which has the spectrum of K and is K at
theta = 0.  It is a constant-coefficient stencil on the box, so
``ReducedKernel`` is matrix-free: a diagonal tensor plus one shifted
slice per hop, the imaginary parts acting on the reversed operand,
applied bit for bit as the CSR matrices of Re K and Im K would be;
``to_csr`` assembles K~ for the dense paths and the cross-checks.  At
theta = 0 the kernel is real and unchanged by R; its off-diagonal
entries are all negative on a connected box, so the ground state is
simple and positive, hence reversal-even, and the even block of about
half the dimension (``reversal_even_block``, built from the CSR matrix,
so for dense solves only) has it exactly.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .sector_basis import (
    DIMENSION_GUARD,
    DimensionGuardError,
    SectorBasis,
    enumerate_sector,
    ring_orbits,
    site_bit,
)

BOUNDARY_TAGS = ("open", "kink", "droplet", "cyclic")


@dataclass(frozen=True)
class Anisotropy:
    """Anisotropy data derived from q in (0, 1]."""

    q: float

    def __post_init__(self):
        if not (0.0 < self.q <= 1.0):
            raise ValueError(f"need 0 < q <= 1, got q={self.q}")

    @property
    def two_delta(self) -> float:
        return self.q + 1.0 / self.q

    @property
    def delta(self) -> float:
        return self.two_delta / 2.0

    @property
    def alpha(self) -> float:
        q2 = self.q * self.q
        return (1.0 - q2) / (1.0 + q2)

    @property
    def hop(self) -> float:
        """Magnitude 1/(2 Delta) of the transverse matrix element."""
        return 1.0 / self.two_delta


@dataclass(frozen=True)
class BoundaryCondition:
    tag: str
    delta: float | None = None

    def __post_init__(self):
        if self.tag not in BOUNDARY_TAGS:
            raise ValueError(f"unknown boundary tag {self.tag!r}")
        if self.tag == "droplet":
            if self.delta is None or not math.isfinite(self.delta):
                raise ValueError("droplet boundary needs a finite delta")
            if self.delta < 1.0:
                # below delta = 1 the boundary field no longer dominates
                # the droplet energy scale; results may not converge
                warnings.warn(
                    f"droplet field delta={self.delta} < 1; "
                    "boundary pinning is weak",
                    stacklevel=2,
                )
        elif self.delta is not None:
            raise ValueError(f"delta is only meaningful for droplet, not {self.tag}")

    @classmethod
    def open(cls) -> "BoundaryCondition":
        return cls("open")

    @classmethod
    def kink(cls) -> "BoundaryCondition":
        return cls("kink")

    @classmethod
    def droplet(cls, delta: float) -> "BoundaryCondition":
        return cls("droplet", delta)

    @classmethod
    def cyclic(cls) -> "BoundaryCondition":
        return cls("cyclic")


@dataclass
class SparseOperator:
    """CSR matrix plus a symmetry tag.

    symmetry is one of 'symmetric' (real), 'hermitian' (complex: the
    ring momentum blocks, solved densely only), or 'general' (no
    structure assumed; may be rectangular).
    """

    matrix: sp.csr_matrix
    symmetry: str

    def __post_init__(self):
        if self.symmetry not in ("symmetric", "hermitian", "general"):
            raise ValueError(f"unknown symmetry tag {self.symmetry!r}")
        self.matrix = sp.csr_matrix(self.matrix)
        self.matrix.sum_duplicates()
        self.matrix.sort_indices()

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def dim(self) -> int:
        r, c = self.matrix.shape
        if r != c:
            raise ValueError(f"operator is rectangular: {self.matrix.shape}")
        return r

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def rowsum_norm(self) -> float:
        """Max row 1-norm; an upper bound for the spectral radius."""
        return float(np.abs(self.matrix).sum(axis=1).max())

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


def matvec(op: SparseOperator | ReducedKernel, v: np.ndarray) -> np.ndarray:
    """Apply op to v.

    CSR rows are kept with ascending column indices, and the matrix-free
    kernel sums its terms in the same order, so each row is accumulated
    in a fixed order and repeated calls are bit-identical.
    """
    v = np.asarray(v)
    if v.shape[0] != op.shape[1]:
        raise ValueError(f"operand length {v.shape[0]} != {op.shape[1]}")
    return op.matrix @ v


def _bonds(L: int, n_bonds: int) -> list[tuple[int, int]]:
    """Bonds (x, x+1) for x = 1..n_bonds; x = L is the wrap bond (L, 1)."""
    return [(x, x % L + 1) for x in range(1, n_bonds + 1)]


def build_sector_hamiltonian(
    L: int, n: int, bc: BoundaryCondition, a: Anisotropy
) -> tuple[SparseOperator, SectorBasis]:
    """Chain Hamiltonian restricted to the n-down sector.

    Returns the operator together with the basis that orders its rows.
    Assembled bond by bond over the state masks: a bond whose two sites
    differ costs 1/2 (plus the kink term) and hops by flipping both
    bits.  Droplet fields are a global diagonal; the cyclic wrap bond
    is a plain bond including the 1/4 shift.  Real symmetric; hop
    entries are written once per direction with the same literal
    amplitude, so symmetry is exact.
    """
    basis = enumerate_sector(L, n)
    dim = len(basis)
    idx = np.arange(dim)
    diag = np.zeros(dim)
    rows, cols, vals = [], [], []
    n_bonds = L if bc.tag == "cyclic" else L - 1
    for x, y in _bonds(L, n_bonds):
        down_x, down_y = basis.down(x), basis.down(y)
        differ = down_x != down_y
        term = np.where(differ, 0.5, 0.0)
        if bc.tag == "kink":
            # -(alpha/2)(S3_x - S3_y); S3 = 1/2 - down, exact in halves
            term += -(a.alpha / 2.0) * (down_y.astype(float) - down_x.astype(float))
        diag += term
        flip = site_bit(L, x) | site_bit(L, y)
        rows.append(idx[differ])
        cols.append(basis.rank(basis.masks[differ] ^ flip))
        vals.append(np.full(len(rows[-1]), -a.hop))
    if bc.tag == "droplet":
        # (delta/2)(1 - S3_1 - S3_L), and 1 - S3_1 - S3_L counts the
        # down spins on the two end sites
        diag += (bc.delta / 2.0) * (
            basis.down(1).astype(float) + basis.down(L).astype(float)
        )
    mat = sp.coo_matrix(
        (
            np.concatenate(vals + [diag]),
            (np.concatenate(rows + [idx]), np.concatenate(cols + [idx])),
        ),
        shape=(dim, dim),
    ).tocsr()
    return SparseOperator(mat, "symmetric"), basis


def _ring_phases(L: int, k: int) -> np.ndarray:
    """Table of e^{2 pi i k l / L}, l = 0..L-1, with exact conjugate pairs."""
    table = np.empty(L, dtype=np.complex128)
    for m in range(L // 2 + 1):
        val = np.exp(2j * np.pi * m / L)
        table[m] = val
        table[(L - m) % L] = np.conj(val)
    return table[(k * np.arange(L)) % L]


def build_momentum_block(L: int, n: int, k: int, a: Anisotropy) -> SparseOperator:
    """Momentum-k block of the cyclic sector Hamiltonian.

    Basis states are phase-summed orbits |o, k> = s^{-1/2} *
    sum_l e^{-i theta l} T^l |rep_o| with theta = 2 pi k / L; only
    orbits whose size s satisfies k s = 0 mod L admit the phase.  The
    union of all block spectra over k is the full sector spectrum.
    Rows follow the admissible orbits in the order of their
    representatives, the lexicographically smallest members.
    """
    if not 0 <= k < L:
        raise ValueError(f"momentum index must lie in [0, {L - 1}]: {k}")
    basis = enumerate_sector(L, n)
    rep, shift, size = ring_orbits(basis)
    reps = np.flatnonzero(rep == np.arange(len(basis)))
    # only orbits with k * size = 0 mod L admit the phase; the
    # phase-summed projection of any other orbit vanishes identically
    admissible = reps[(k * size[reps]) % L == 0]
    col = np.full(len(basis), -1)
    col[admissible] = np.arange(len(admissible))
    phases = _ring_phases(L, k)
    sqrt_size = np.sqrt(size)
    dim = len(admissible)
    diag = np.zeros(dim)
    rows, cols, vals = [], [], []
    for x, y in _bonds(L, L):
        differ = (basis.down(x) != basis.down(y))[admissible]
        diag += np.where(differ, 0.5, 0.0)
        src = np.flatnonzero(differ)
        flip = site_bit(L, x) | site_bit(L, y)
        moved = basis.rank(basis.masks[admissible[src]] ^ flip)
        keep = col[rep[moved]] >= 0
        src, moved = src[keep], moved[keep]
        rows.append(col[rep[moved]])
        cols.append(src)
        vals.append(
            -a.hop * phases[shift[moved]] * sqrt_size[admissible[src]]
            / sqrt_size[moved]
        )
    # sum every (row, col) entry in the order its terms were produced,
    # hops first and the diagonal last
    idx = np.arange(dim)
    keys, at = np.unique(
        np.concatenate(rows + [idx]) * dim + np.concatenate(cols + [idx]),
        return_inverse=True,
    )
    data = np.zeros(len(keys), dtype=np.complex128)
    np.add.at(data, at, np.concatenate(vals + [diag.astype(np.complex128)]))
    block = sp.csr_matrix((data, (keys // dim, keys % dim)), shape=(dim, dim))
    # the phase table rounds; averaging restores exact Hermiticity
    block = block + block.conj().T
    block.data /= 2.0
    block.eliminate_zeros()
    return SparseOperator(block, "hermitian")


def _kernel_moves(n: int, theta: float, a: Anisotropy) -> list[tuple]:
    """The 2n single-particle hops as (coordinate lowered, raised, re, im).

    Particle p moving left lowers N_p and raises N_{p+1}; a coordinate
    of None means the move changes only one gap (an end particle).  The
    amplitude -e^{+-i theta}/(2 Delta) is given by its real and
    imaginary parts; a right move has the conjugate of a left one.
    """
    width = n - 1
    re = -a.hop * math.cos(theta)
    im = -a.hop * math.sin(theta)
    moves = [(None, 0, re, im), (width - 1, None, re, im)]
    moves += [(p - 2, p - 1, re, im) for p in range(2, n)]
    moves += [(0, None, re, -im), (None, width - 1, re, -im)]
    moves += [(p - 1, p - 2, re, -im) for p in range(2, n)]
    return moves


@dataclass(eq=False)
class ReducedKernel:
    """Truncated droplet kernel at fixed particle number and momentum.

    This is the real form K~ = Re K + (Im K) R, with R the gap reversal,
    held matrix-free: a diagonal tensor on the gap box (n_max,)^(n-1)
    and two real hop sets of (offset, faces, amplitude).  ``hops`` holds
    the real parts of the amplitudes and acts on the operand x;
    ``reversed_hops`` holds the nonzero imaginary parts and acts on R x.
    A hop adds amplitude times its operand shifted by ``offset`` flat
    positions (column minus row) onto every row except those on its
    ``faces``, given as (axis, index) pairs: the rows whose move would
    leave the box.  The kernel is its own ``matrix``: ``kernel @ x``
    applies it to a real vector or (dim, k) block.  ``to_csr``
    assembles the same matrix explicitly, for the dense paths and the
    cross-checks.
    """

    anisotropy: Anisotropy
    n: int
    theta: float
    n_max: int
    diagonal: np.ndarray
    hops: tuple
    reversed_hops: tuple

    symmetry = "symmetric"
    dtype = np.dtype(np.float64)

    @property
    def dim(self) -> int:
        return self.n_max ** (self.n - 1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    @property
    def matrix(self) -> "ReducedKernel":
        return self

    def _terms(self) -> tuple[list, list]:
        # the stored entries of a CSR row of Re K and of Im K, each in
        # ascending column order: hops sorted by offset, with the
        # diagonal of Re K at offset 0
        def by_offset(terms):
            return sorted(terms, key=lambda t: t[0])

        return (
            by_offset(self.hops + ((0, (), self.diagonal),)),
            by_offset(self.reversed_hops),
        )

    @property
    def nnz(self) -> int:
        """Stored entries of ``to_csr()``, counted from the stencil.

        A term reaches every row but those on its faces, so each face
        leaves n_max - 1 of the n_max indices along its axis.  Exact at
        theta = 0; otherwise Re K and Im K R are counted apart, an upper
        bound, since CSR stores one entry where both reach the same one.
        """
        width = self.n - 1
        re, im = self._terms()
        return sum(
            (self.n_max - 1) ** len(faces) * self.n_max ** (width - len(faces))
            for _, faces, _ in re + im
        )

    def rowsum_norm(self) -> float:
        """Max row 1-norm, equal bit for bit to the CSR one at theta = 0.

        scipy sums a CSR row with ``np.add.reduceat``: its first entry
        plus numpy's pairwise sum of the rest, which a running sum over
        the stencil does not reproduce.  A row's entries, in column
        order, depend only on which of its gaps are 1 or n_max, so one
        row of each kind is listed and reduced the same way.  At theta
        != 0 the entries of Im K R follow those of Re K, each counted
        apart, so where both reach one entry the sum is an upper bound.
        """
        kinds = sorted({0, min(1, self.n_max - 1), self.n_max - 1})
        re, im = self._terms()
        sums = []
        for row in itertools.product(kinds, repeat=self.n - 1):
            entries = [
                np.abs(amp[row] if isinstance(amp, np.ndarray) else amp)
                for _, faces, amp in re + im
                if all(row[axis] != index for axis, index in faces)
            ]
            sums.append(np.add.reduceat(np.array(entries), [0])[0])
        return float(max(sums))

    def reverse(self, x: np.ndarray) -> np.ndarray:
        """R x as a C-ordered copy: each row's gaps reversed, N_k <-> N_{n+2-k}.

        x is a vector or a (dim, k) block; its box is read with the gap
        axes reversed, so R costs one transposed copy.
        """
        width = self.n - 1
        box = x.reshape((self.n_max,) * width + x.shape[1:])
        axes = tuple(range(width - 1, -1, -1)) + tuple(range(width, box.ndim))
        return np.ascontiguousarray(box.transpose(axes)).reshape(x.shape)

    def __matmul__(self, x) -> np.ndarray:
        """K~ x: Re K applied to x plus Im K applied to R x.

        Each of the two products sums its terms into each row in
        ascending column order, the order of a CSR row product, so the
        result matches the CSR matrix of Re K times x plus that of Im K
        times R x bit for bit; at theta = 0 that is ``to_csr().matrix @
        x``.  The operand must be real.
        """
        x = np.asarray(x)
        dim = self.dim
        if x.shape[0] != dim:
            raise ValueError(f"operand length {x.shape[0]} != {dim}")
        if x.dtype.kind == "c":
            raise TypeError("the real-form kernel acts on real operands")
        x2 = np.ascontiguousarray(x.reshape(dim, -1), dtype=np.float64)
        # scratch for the products, reused by every term
        prod = np.empty(x2.shape)
        re, im = self._terms()
        y = self._product(re, x2, prod)
        if im:
            y += self._product(im, self.reverse(x2), prod)
        return y.reshape(x.shape)

    def _product(self, terms: list, x2: np.ndarray, prod: np.ndarray) -> np.ndarray:
        # Each term's product is formed over a contiguous flat range and
        # zeroed on the hop's faces before it is added; a sum started
        # from +0 never becomes -0, so adding +0 leaves those rows' bits
        # unchanged.
        dim = self.dim
        y = np.zeros(x2.shape)
        prod_box = prod.reshape((self.n_max,) * (self.n - 1) + x2.shape[1:])
        for offset, faces, amp in terms:
            lo, hi = max(0, -offset), dim - max(0, offset)
            if lo >= hi:
                continue
            if isinstance(amp, np.ndarray):
                amp = amp.reshape(dim, 1)[lo:hi]
            rows, cols = slice(lo, hi), slice(lo + offset, hi + offset)
            np.multiply(amp, x2[cols], out=prod[rows])
            for axis, index in faces:
                prod_box[(slice(None),) * axis + (index,)] = 0.0
            acc = y[rows]
            acc += prod[rows]
        return y

    def to_dense(self) -> np.ndarray:
        return self.to_csr().to_dense()

    def to_csr(self) -> SparseOperator:
        """K~ as an explicit CSR matrix, assembled from the digits.

        Re K and Im K R are assembled apart, each summing its own
        repeated entries (the n = 2 hops, whose imaginary parts cancel),
        and then added; at theta = 0 there is no Im K R.  Only for small
        kernels: the COO triplets of all 2n moves and the digit arrays
        cost far more memory than the stencil.
        """
        dim, n, n_max = self.dim, self.n, self.n_max
        idx = np.arange(dim, dtype=np.int64)
        if n == 1:
            # no gap coordinates; both hops are in the single entry
            diag, moves = self.diagonal.reshape(1), []
        else:
            digits = np.unravel_index(idx, (n_max,) * (n - 1))
            diag = 1.0 + sum(d >= 1 for d in digits).astype(np.float64)
            moves = _kernel_moves(n, self.theta, self.anisotropy)
            rev = self.reverse(idx)
        real = [(idx, idx, diag)]
        imag = []
        for j_down, j_up, re, im in moves:
            mask = np.ones(dim, dtype=bool)
            shift = 0
            if j_down is not None:
                mask &= digits[j_down] >= 1
                shift -= n_max ** (n - 2 - j_down)
            if j_up is not None:
                mask &= digits[j_up] <= n_max - 2
                shift += n_max ** (n - 2 - j_up)
            src = idx[mask]
            real.append((src, src + shift, np.full(src.shape, re)))
            if im != 0.0:
                imag.append((src, rev[src + shift], np.full(src.shape, im)))

        def assemble(triplets):
            rows, cols, vals = (np.concatenate(part) for part in zip(*triplets))
            return sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()

        mat = assemble(real)
        if imag:
            mat = mat + assemble(imag)
        return SparseOperator(mat, "symmetric")


def build_reduced_kernel(
    n: int, theta: float, a: Anisotropy, n_max: int
) -> ReducedKernel:
    """Gap-coordinate kernel of an n-droplet at momentum theta, in real form.

    Each of the 2n single-particle hops appears with amplitude
    -e^{+-i theta}/(2 Delta); moves leaving the box are dropped.  Its
    real part goes to ``hops`` and its imaginary part, when nonzero, to
    ``reversed_hops``, so at theta = 0 there are none of the latter.
    For n = 2 the left and right hops of the two particles land on the
    same entries and are merged into one hop per direction, as CSR sums
    them; their imaginary parts cancel, so that kernel is real at every
    theta.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    dim = n_max ** (n - 1)
    if dim > DIMENSION_GUARD:
        raise DimensionGuardError(
            f"gap box (n={n}, n_max={n_max}) has dimension {dim} > {DIMENSION_GUARD}"
        )
    if n == 1:
        # no gap coordinates; both hops act on the single state
        diagonal = np.array(1.0 - 2.0 * a.hop * math.cos(theta))
        return ReducedKernel(a, n, theta, n_max, diagonal, (), ())

    width = n - 1
    box = (n_max,) * width
    tight = (np.arange(n_max) >= 1).astype(np.float64)
    diagonal = np.ones(box)
    for j in range(width):
        diagonal += tight.reshape((n_max,) + (1,) * (width - 1 - j))
    hops: list[list] = []
    for j_down, j_up, re, im in _kernel_moves(n, theta, a):
        offset, faces = 0, []
        if j_down is not None:
            offset -= n_max ** (width - 1 - j_down)
            faces.append((j_down, 0))
        if j_up is not None:
            offset += n_max ** (width - 1 - j_up)
            faces.append((j_up, n_max - 1))
        same = [h for h in hops if h[:2] == [offset, tuple(faces)]]
        if same:
            same[0][2] += re
            same[0][3] += im
        else:
            hops.append([offset, tuple(faces), re, im])
    return ReducedKernel(
        a, n, theta, n_max, diagonal,
        hops=tuple((offset, faces, re) for offset, faces, re, _ in hops),
        reversed_hops=tuple(
            (offset, faces, im) for offset, faces, _, im in hops if im != 0.0
        ),
    )


def reversal_even_block(kernel: ReducedKernel) -> tuple[SparseOperator, sp.csr_matrix]:
    """The theta = 0 kernel on the gap-reversal-even subspace.

    Reversing the gaps, N_k <-> N_{n+2-k}, maps the box onto itself and
    leaves the real kernel unchanged.  Each reversal orbit (one gap
    vector or two) gives one basis vector: 1/sqrt(2) on both states of
    a pair, 1 on a fixed point, indexed by the orbit's larger member.
    Returns the block B = P^T K P, exactly symmetric, and the isometry
    P (dim x m) that lifts a block vector to the full box.
    """
    if kernel.theta != 0.0:
        raise ValueError("the gap reversal preserves the kernel only at theta = 0")
    dim = kernel.dim
    idx = np.arange(dim, dtype=np.int64)
    # rev[i] is the row of gap vector i reversed
    rev = kernel.reverse(idx)
    reps = np.flatnonzero(rev >= idx)
    m = len(reps)
    orbit = np.empty(dim, dtype=np.int64)
    orbit[reps] = np.arange(m)
    orbit[rev[reps]] = np.arange(m)
    weight = np.where(rev[reps] == reps, 1.0, math.sqrt(0.5))
    lift = sp.csr_matrix((weight[orbit], (idx, orbit)), shape=(dim, m))
    # K commutes with the reversal, so B_ij = (w_j / w_i) times the sum
    # of K over row r_i and the columns of orbit j
    sub = kernel.to_csr().matrix[reps]
    rows = np.repeat(np.arange(m), np.diff(sub.indptr))
    cols = orbit[sub.indices]
    block = sp.csr_matrix(
        (sub.data * weight[cols] / weight[rows], (rows, cols)), shape=(m, m)
    )
    # the two weight ratios round differently; averaging makes B exact
    block = block + block.T
    block.data /= 2.0
    return SparseOperator(block, "symmetric"), lift
