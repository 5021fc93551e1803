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
(conserved down-spin number) as real scipy CSR matrices wrapped in
SparseOperator.  The momentum blocks of the cyclic chain are complex
Hermitian in the phase-summed orbit basis; ring reflection times
complex conjugation maps each block onto itself, so it is held in a
real symmetric form with the same spectrum (``build_momentum_block``).

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
applied slab by slab and bit for bit as the CSR matrices of Re K and
Im K would be;
``to_csr`` renders those same terms as the CSR matrix of K~, for the
dense paths and the cross-checks.  At
theta = 0 the kernel is real and unchanged by R; its off-diagonal
entries are all negative on a connected box, so the ground state is
simple and positive, hence reversal-even.

The open, droplet and cyclic sector Hamiltonians commute with site
reflection p -> L + 1 - p (``sector_basis.mirror_rows``) and have
negative off-diagonal entries on a connected sector, so their ground
states are even under it too; the kink fields are odd under it.  An
operator whose ground state is even in this way carries the involution
as its ``mirror``: the sector builder sets the reflection, and the
theta = 0 kernel's ``to_csr`` sets R.  ``even_block`` restricts a CSR
operator to the even subspace of such an involution, about half the
dimension, and ``spectra.lowest`` solves ground states there.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .sector_basis import (
    DIMENSION_GUARD,
    DimensionGuardError,
    SectorBasis,
    enumerate_sector,
    mirror_rows,
    open_bond_hops,
    ring_orbits,
    site_bit,
)

BOUNDARY_TAGS = ("open", "kink", "droplet", "cyclic")
# Operand bytes per slab of the droplet kernel's product: with the slab's
# result, term scratch and neighbouring layers this stays within a 2 MiB
# L2 cache.  On a shared 2-core Xeon the n = 4, n_max = 80 product (dim
# 512,000) took 3.1 ms against 4.5 ms at 2**17, 3.2 ms at 2**19 and
# 8.9 ms unblocked (median of 41).
SLAB_BYTES = 2**18


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
    """Real CSR matrix plus a symmetry tag and, optionally, a mirror.

    symmetry is 'symmetric' or 'general' (no structure assumed; may be
    rectangular).  Complex data raises ValueError.  ``mirror``, when
    set, is an index involution under which the operator's ground state
    is even; only the builders that prove that evenness set it.  It is
    given as the array or as a function of no arguments that returns
    it, called on the first read of ``mirror``, so an operator whose
    ground state is never solved does not pay for it.
    """

    matrix: sp.csr_matrix
    symmetry: str
    _mirror: np.ndarray | Callable[[], np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        if self.symmetry not in ("symmetric", "general"):
            raise ValueError(f"unknown symmetry tag {self.symmetry!r}")
        self.matrix = sp.csr_matrix(self.matrix)
        if self.matrix.dtype.kind == "c":
            raise ValueError(f"operators are real, got {self.matrix.dtype} data")
        self.matrix.sum_duplicates()
        self.matrix.sort_indices()

    @property
    def mirror(self) -> np.ndarray | None:
        if callable(self._mirror):
            self._mirror = self._mirror()
        return self._mirror

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
        """Max row 1-norm; an upper bound for the spectral radius.

        Each nonempty row's |entries| are summed by ``np.add.reduceat``
        from its first entry, as scipy's ``abs(A).sum(axis=1)`` does, so
        the bits are that expression's, without forming |A|; an empty
        row sums to 0.
        """
        indptr = self.matrix.indptr
        nonempty = np.flatnonzero(np.diff(indptr))
        sums = np.zeros(len(indptr) - 1)
        sums[nonempty] = np.add.reduceat(np.abs(self.matrix.data), indptr[nonempty])
        return float(sums.max())

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


def matvec(op: SparseOperator | ReducedKernel, v: np.ndarray) -> np.ndarray:
    """Apply op to v: ``op.matrix @ v``, into a fresh array.

    CSR rows are kept with ascending column indices, and the matrix-free
    kernel sums its terms in the same order, so each row is accumulated
    in a fixed order and repeated calls are bit-identical.
    """
    v = np.asarray(v)
    if v.shape[0] != op.shape[1]:
        raise ValueError(f"operand length {v.shape[0]} != {op.shape[1]}")
    return op.matrix @ v


def build_sector_hamiltonian(
    L: int, n: int, bc: BoundaryCondition, a: Anisotropy
) -> tuple[SparseOperator, SectorBasis]:
    """Chain Hamiltonian restricted to the n-down sector.

    Returns the operator together with the basis that orders its rows.
    A bond whose two sites differ costs 1/2 (plus the kink term) and
    hops by moving the down spin across it.  Droplet fields are a global
    diagonal; the cyclic wrap bond is a plain bond including the 1/4
    shift.  Real symmetric; every hop entry is the same literal -1/(2
    Delta), so symmetry is exact.  The open, droplet and cyclic
    operators carry the site reflection (``mirror_rows``) as their
    mirror, computed on its first read; the kink fields are odd under
    it, so kink carries none.

    The CSR arrays are written directly, in canonical order.  A hop
    across an open bond finds its row by rank arithmetic
    (``open_bond_hops``), the wrap bond's by search.  A row's columns
    ascend as its moves to the left by increasing bond, its diagonal
    (stored even when zero), then its moves to the right by decreasing
    bond; the wrap bond's move to the left comes first and its move to
    the right last.  (On a ring of L <= 2 two bonds reach one entry, and
    the operator's canonical form sums them.)  A bond's diagonal term
    depends only on whether it is a wall, and on which kind, and walls
    alternate in kind along the chain, starting with the kind that site
    1 sets; so a row's diagonal, the terms summed bond by bond in bond
    order, is one of the partial sums of that alternating sequence.
    """
    basis = enumerate_sector(L, n)
    dim = len(basis)
    # the hops of each bond as (left, left_to, right, right_to), the wrap
    # bond's first, as ``open_bond_hops`` yields them
    hops = list(open_bond_hops(basis))
    if bc.tag == "cyclic" and L > 1:
        flip = site_bit(L, L) | site_bit(L, 1)
        first, last = basis.down(1), basis.down(L)
        left, right = np.flatnonzero(last > first), np.flatnonzero(first > last)
        left_to = basis.rank(basis.masks[left] ^ flip)
        hops.insert(0, (left, left_to, right, basis.rank(basis.masks[right] ^ flip)))
    # stored entries of each row before and after its diagonal
    moves = [np.empty(0, dtype=np.int64)]
    before = np.bincount(np.concatenate(moves + [h[0] for h in hops]), minlength=dim)
    after = np.bincount(np.concatenate(moves + [h[2] for h in hops]), minlength=dim)
    # -(alpha/2)(S3_x - S3_y) with S3 = 1/2 - down: -alpha/2 on a wall
    # with the down spin at x + 1, +alpha/2 on one with it at x
    rise = fall = 0.5
    if bc.tag == "kink":
        rise += -(a.alpha / 2.0) * 1.0
        fall += -(a.alpha / 2.0) * -1.0
    partial = np.zeros((2, L + 1))
    for down_first, kinds in ((0, (rise, fall)), (1, (fall, rise))):
        total = 0.0
        for walls in range(L):
            total += kinds[walls % 2]
            partial[down_first, walls + 1] = total
    diag = partial[basis.down(1).astype(np.int64), before + after]
    if bc.tag == "droplet":
        # (delta/2)(1 - S3_1 - S3_L), and 1 - S3_1 - S3_L counts the
        # down spins on the two end sites
        diag += (bc.delta / 2.0) * (
            basis.down(1).astype(float) + basis.down(L).astype(float)
        )
    indptr = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(before + after + 1, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.full(indptr[-1], -a.hop)
    # each row fills from both ends: the moves to the left forward from
    # its start, the moves to the right backward from its end, the wrap
    # bond's first and then the open bonds in increasing order
    head, tail = indptr[:-1].copy(), indptr[1:] - 1
    for left, left_to, right, right_to in hops:
        indices[head[left]] = left_to
        head[left] += 1
        indices[tail[right]] = right_to
        tail[right] -= 1
    # past the moves to the left, head is each row's diagonal
    indices[head] = np.arange(dim)
    data[head] = diag
    mat = sp.csr_matrix((data, indices, indptr), shape=(dim, dim))
    mirror = None if bc.tag == "kink" else functools.partial(mirror_rows, basis)
    return SparseOperator(mat, "symmetric", mirror), basis


def _unit_root(u: int, L: int) -> complex:
    """e^{i pi u / (4 L)} for 0 <= u < 8 L, from its first-octant angle.

    Conjugation, negation and swapping the two parts map the first
    octant onto the other seven, so the values keep those symmetries
    exactly: quarter turns are exactly 1, i, -1 and -i, and an eighth
    turn has equal parts.  Sums of phases that cancel on the circle
    then cancel in floating point too.
    """
    if u > 4 * L:
        return _unit_root(8 * L - u, L).conjugate()
    if u > 2 * L:
        return -_unit_root(4 * L - u, L).conjugate()
    if u > L:
        z = _unit_root(2 * L - u, L)
        return complex(z.imag, z.real)
    if u == L:
        return complex(math.sqrt(0.5), math.sqrt(0.5))
    y = math.pi * u / (4 * L)
    return complex(math.cos(y), math.sin(y))


def _ring_phases(L: int, k: int) -> np.ndarray:
    """Table of e^{2 pi i k l / L}, l = 0..L-1, exact at quarter turns
    and with exact conjugate pairs (``_unit_root``)."""
    table = np.array([_unit_root(8 * m, L) for m in range(L)])
    return table[(k * np.arange(L)) % L]


def _summed_csr(triplets: list, dim: int) -> sp.csr_matrix:
    """CSR matrix of (rows, cols, vals) triplets, each entry's terms summed
    in the order they appear."""
    rows, cols, vals = (np.concatenate(part) for part in zip(*triplets))
    keys, at = np.unique(rows * dim + cols, return_inverse=True)
    data = np.zeros(len(keys))
    np.add.at(data, at, vals)
    return sp.csr_matrix((data, (keys // dim, keys % dim)), shape=(dim, dim))


def build_momentum_block(L: int, n: int, k: int, a: Anisotropy) -> SparseOperator:
    """Momentum-k block of the cyclic sector Hamiltonian, in real form.

    Basis states are phase-summed orbits |o, k> = s^{-1/2} *
    sum_l e^{-i theta l} T^l |rep_o| with theta = 2 pi k / L; only
    orbits whose size s satisfies k s = 0 mod L admit the phase.  The
    union of all block spectra over k is the full sector spectrum.
    Rows follow the admissible orbits in the order of their
    representatives, the lexicographically smallest members.

    Ring reflection, site p -> L + 1 - p, followed by complex
    conjugation sends |o, k> to e^{i theta m} |o', k>, where o' is the
    mirror orbit and m in [0, s) the shift of the mirrored
    representative; o and o' share m.  Each state is taken with the
    phase e^{i theta m / 2}, which turns that map into a permutation P
    of the orbits, so the Hermitian block B satisfies P B P = conj B.
    It is held in the real symmetric form B~ = Re B + (Im B) P, which
    has the spectrum of B and is B at k = 0.
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
    mirrored = mirror_rows(basis)[admissible]
    partner, mirror_shift = col[rep[mirrored]], shift[mirrored]
    half_phases = _ring_phases(2 * L, k)  # e^{i theta l / 2}
    sqrt_size = np.sqrt(size)
    inv_sqrt_size = 1.0 / sqrt_size
    dim = len(admissible)
    diag = np.zeros(dim)
    real, imag = [], []

    def hop(states: np.ndarray, reached: np.ndarray) -> None:
        # hops out of the given sector rows; those of admissible
        # representatives enter the block, with their walls' 1/2
        src = col[states]
        kept = src >= 0
        src, moved = src[kept], reached[kept]
        diag[src] += 0.5
        keep = col[rep[moved]] >= 0
        src, moved = src[keep], moved[keep]
        row = col[rep[moved]]
        phase = half_phases[
            (2 * shift[moved] + mirror_shift[src] - mirror_shift[row]) % (2 * L)
        ]
        weight = sqrt_size[admissible[src]]
        real.append((row, src, -a.hop * phase.real * weight * inv_sqrt_size[moved]))
        im = -a.hop * phase.imag * weight * inv_sqrt_size[moved]
        nonzero = im != 0.0
        imag.append((row[nonzero], partner[src[nonzero]], im[nonzero]))

    # the open bonds by rank arithmetic, then the wrap bond (L, 1) by
    # search; an entry's terms come from distinct bonds, summed in bond
    # order
    for left, left_to, right, right_to in open_bond_hops(basis):
        hop(left, left_to)
        hop(right, right_to)
    states = np.flatnonzero(basis.down(L) != basis.down(1))
    flip = site_bit(L, L) | site_bit(L, 1)
    hop(states, basis.rank(basis.masks[states] ^ flip))
    idx = np.arange(dim)
    # hops first and the diagonal last; Re B and (Im B) P are summed apart
    block = _summed_csr(real + [(idx, idx, diag)], dim) + _summed_csr(imag, dim)
    # the orbit-size ratios and the phase table round; averaging
    # restores exact symmetry
    block = block + block.T
    block.data /= 2.0
    block.eliminate_zeros()
    return SparseOperator(block, "symmetric")


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
    leave the box.  For n >= 2 the diagonal is 1 + #{gaps >= 2}, an
    integer of at most n, stored as uint8 (an eighth of a float box);
    its conversion to float inside each product is exact, so the
    products keep their bits.  The kernel is its own ``matrix``:
    ``kernel @ x`` applies it to a real vector or (dim, k) block into
    a fresh array, and ``product`` into a caller's output.  A product
    works through the box in slabs of whole layers along the first gap
    axis (``slabs``, about SLAB_BYTES of the operand each), so its
    scratch is one slab and its passes over the terms stay in cache;
    besides x and the result it holds a box vector only for R x at
    theta != 0.  ``to_csr`` renders the same terms as an explicit CSR
    matrix, for the dense paths and the cross-checks.
    """

    anisotropy: Anisotropy
    n: int
    theta: float
    n_max: int
    diagonal: np.ndarray
    hops: tuple
    reversed_hops: tuple

    symmetry = "symmetric"
    # read as ``matrix.dtype`` by the benchmark tracer
    # (perfbench/spans.py), which sizes the Krylov block by it
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
        """K~ x into a fresh array: ``product`` with its own buffers.

        The operand must be real; a vector or a (dim, k) block.
        """
        x = np.asarray(x)
        dim = self.dim
        if x.shape[0] != dim:
            raise ValueError(f"operand length {x.shape[0]} != {dim}")
        if x.dtype.kind == "c":
            raise TypeError("the real-form kernel acts on real operands")
        x2 = np.ascontiguousarray(x.reshape(dim, -1), dtype=np.float64)
        return self.product(x2, np.empty(x2.shape)).reshape(x.shape)

    def slabs(self, columns: int = 1) -> list[slice]:
        """The flat row ranges that ``product`` works through, in order.

        Each is whole layers along the first gap axis (n_max^(n-2) rows,
        or the single row for n = 1), as many as hold about SLAB_BYTES of
        an operand of ``columns`` float64 columns, and at least one; the
        last takes what remains.
        """
        layer = self.n_max ** max(self.n - 2, 0)
        step = layer * max(1, SLAB_BYTES // (8 * max(columns, 1) * layer))
        return [slice(r, min(r + step, self.dim)) for r in range(0, self.dim, step)]

    def product(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """K~ x written into out, which is returned: Re K x plus Im K R x.

        x is a real float64 vector or (dim, k) block and out an array of
        its shape; what out held does not matter.  The rows are formed
        slab by slab (``slabs``), so that a slab's operand, terms and
        result stay in cache, with one term scratch and, at theta != 0,
        one Im K part of a slab's size.  Each of the two products sums
        its terms into each row in ascending column order, the order of
        a CSR row product, so the result matches the CSR matrix of Re K
        times x plus that of Im K times R x bit for bit; at theta = 0
        that is ``to_csr().matrix @ x``.  At theta != 0, R x is a box
        vector of its own.
        """
        x2, y = (a.reshape(self.dim, -1) for a in (x, out))
        re, im = self._terms()
        slabs = self.slabs(x2.shape[1])
        prod = np.empty((slabs[0].stop,) + x2.shape[1:])
        if im:
            rx, part = self.reverse(x2), np.empty(prod.shape)
        for rows in slabs:
            self._accumulate(re, x2, y[rows], prod, rows.start)
            if im:
                acc = part[: rows.stop - rows.start]
                y[rows] += self._accumulate(im, rx, acc, prod, rows.start)
        return out

    def _accumulate(
        self,
        terms: list,
        x2: np.ndarray,
        acc: np.ndarray,
        prod: np.ndarray,
        start: int,
    ) -> np.ndarray:
        # Rows start .. start + len(acc) of the terms' sum, written into
        # acc in the order of ``terms``.  Each term's product is formed in
        # prod over a contiguous range and zeroed on the hop's faces
        # before it is added; a sum started from +0 never becomes -0, so
        # adding +0 leaves those rows' bits unchanged.
        dim, size = self.dim, len(acc)
        inner = (self.n_max,) * max(self.n - 2, 0)
        layer = math.prod(inner)
        first = start // layer
        acc.fill(0.0)
        box = prod[:size].reshape((size // layer,) + inner + x2.shape[1:])
        for offset, faces, amp in terms:
            lo, hi = max(start, -offset), min(start + size, dim - offset)
            if lo >= hi:
                continue
            rows, cols = slice(lo - start, hi - start), slice(lo + offset, hi + offset)
            if isinstance(amp, np.ndarray):
                # the diagonal is converted exactly into prod and multiplied
                # there, the bits of amp * x without the 64 KiB buffer that
                # a product of mixed types casts through
                np.copyto(prod[rows], amp.reshape(dim, 1)[lo:hi])
                prod[rows] *= x2[cols]
            else:
                np.multiply(amp, x2[cols], out=prod[rows])
            for axis, index in faces:
                if axis:
                    box[(slice(None),) * axis + (index,)] = 0.0
                elif first <= index < first + len(box):
                    box[index - first] = 0.0
            acc[rows] += prod[rows]
        return acc

    def to_csr(self) -> SparseOperator:
        """K~ as an explicit CSR matrix, rendered from the stencil's terms.

        Each term places its amplitude at (row, row + offset) for every
        row off its faces; a reversed hop's column goes through
        ``reverse``.  Re K and Im K R are assembled apart and then added,
        so an entry that both reach holds the sum of their amplitudes;
        at theta = 0 there is no Im K R, and for n >= 3 the gap reversal
        is the operator's mirror (for n <= 2 it is the identity).
        """
        dim = self.dim
        idx = np.arange(dim, dtype=np.int64)
        box = idx.reshape((self.n_max,) * (self.n - 1))

        def render(terms, column: np.ndarray):
            rows, cols, vals = [], [], []
            for offset, faces, amp in terms:
                inside = np.ones(box.shape, dtype=bool)
                for axis, index in faces:
                    inside[(slice(None),) * axis + (index,)] = False
                src = box[inside]
                rows.append(src)
                cols.append(column[src + offset])
                vals.append(np.broadcast_to(amp, box.shape)[inside])
            return sp.coo_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=(dim, dim),
            ).tocsr()

        re, im = self._terms()
        mat = render(re, idx)
        if im:
            mat = mat + render(im, self.reverse(idx))
        even = self.theta == 0.0 and self.n >= 3
        return SparseOperator(mat, "symmetric", self.reverse(idx) if even else None)


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
    # 1 + #{gaps >= 2} <= n, exact in uint8 (n - 1 <= 22 under the guard)
    tight = (np.arange(n_max) >= 1).astype(np.uint8)
    diagonal = np.ones(box, dtype=np.uint8)
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


def _commutes(
    mat: sp.csr_matrix, mirror: np.ndarray, reps: np.ndarray, sub: sp.csr_matrix
) -> bool:
    """Whether M A M = A, entry for entry, for the permutation M of mirror
    (of mat's index dtype).

    It holds when row mirror[i] of A is row i with its columns mirrored
    for each orbit representative i, whose rows ``sub`` holds: mirroring
    that equality gives the one of row mirror[i].  The mirrored rows,
    their columns sorted, are compared with ``sub``.  A stored zero
    counts as absent, as under a sparse ``!=``, so where the arrays
    differ they are compared again without their zeros.  Every stored
    entry of A is in ``sub`` or in the mirrored rows, so a NaN anywhere
    fails, as it never equals itself.
    """
    swapped = mat[mirror[reps]]
    swapped.indices = mirror[swapped.indices]
    swapped.has_sorted_indices = False
    swapped.sort_indices()
    pairs = [(a.indptr, a.indices, a.data) for a in (sub, swapped)]
    if all(np.array_equal(x, y) for x, y in zip(*pairs)):
        return True
    kept = []
    for ptr, cols, vals in pairs:
        stored = vals != 0.0
        count = np.concatenate(([0], np.cumsum(stored)))
        kept.append((count[ptr], cols[stored], vals[stored]))
    return all(np.array_equal(x, y) for x, y in zip(*kept))


def even_block(
    op: SparseOperator, mirror: np.ndarray
) -> tuple[SparseOperator, sp.csr_matrix]:
    """op on the even subspace of an index involution that it commutes with.

    ``mirror[i]`` is the row that row i maps to: the gap reversal of a
    kernel box, or the mirror image of a sector state under site
    reflection.  It must be an involution that leaves op's CSR matrix
    unchanged entry for entry; otherwise ValueError.  Each orbit (one
    row or a pair) gives one basis vector, 1/sqrt(2) on both rows of a
    pair and 1 on a fixed point, indexed by the orbit's lower row.
    Returns the block B = P^T A P, exactly symmetric, and the isometry P
    (dim x m) that lifts a block vector to op's rows.

    The commutation check and the block share one gather of the orbit
    representatives' rows; the check compares them with their mirrored
    rows, sorting within rows only, and P, one entry per row, is written
    as it stands.
    """
    mat = op.matrix
    dim = op.dim
    mirror = np.asarray(mirror, dtype=np.int64)
    if mirror.shape != (dim,) or (dim and (mirror.min() < 0 or mirror.max() >= dim)):
        raise ValueError(f"mirror must map the {dim} rows onto themselves")
    # the column indices' dtype: the gathers below then need no cast
    mirror = mirror.astype(mat.indices.dtype)
    idx = np.arange(dim, dtype=mirror.dtype)
    if not np.array_equal(mirror[mirror], idx):
        raise ValueError("mirror is not an involution")
    reps = np.flatnonzero(mirror >= idx)
    sub = mat[reps]
    if not _commutes(mat, mirror, reps, sub):
        raise ValueError("the operator does not commute with the mirror")
    m = len(reps)
    orbit = np.empty(dim, dtype=mirror.dtype)
    orbit[reps] = idx[:m]
    orbit[mirror[reps]] = idx[:m]
    weight = np.where(mirror[reps] == reps, 1.0, math.sqrt(0.5))
    lift = sp.csr_matrix(
        (weight[orbit], orbit, np.arange(dim + 1, dtype=orbit.dtype)), shape=(dim, m)
    )
    # A commutes with the mirror, so B_ij = (w_j / w_i) times the sum
    # of A over row r_i and the columns of orbit j
    cols = orbit[sub.indices]
    block = sp.csr_matrix(
        (
            sub.data * weight[cols] / np.repeat(weight, np.diff(sub.indptr)),
            cols,
            sub.indptr,
        ),
        shape=(m, m),
    )
    block.sum_duplicates()
    # the two weight ratios round differently; averaging makes B exact
    block = block + block.T
    block.data /= 2.0
    return SparseOperator(block, "symmetric"), lift
