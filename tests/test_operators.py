"""Sector Hamiltonians, momentum blocks, and truncated droplet kernels."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import sector_oracle as oracle
from kernel_oracle import complex_kernel, reversal
from xxzdroplet.bethe import minimum_energy
from xxzdroplet.operators import (
    Anisotropy,
    BoundaryCondition,
    SparseOperator,
    _ring_phases,
    build_momentum_block,
    build_reduced_kernel,
    build_sector_hamiltonian,
    even_block,
    matvec,
)
from xxzdroplet.sector_basis import (
    DimensionGuardError,
    enumerate_sector,
    ring_orbits,
    sector_dimension,
)
from xxzdroplet.spectra import dense_spectrum

Q_GRID = (0.1, 0.3, 0.5, 0.8, 0.95, 1.0)


def test_anisotropy_derived_quantities():
    a = Anisotropy(0.5)
    assert a.delta == 1.25
    assert a.alpha == 0.6
    assert a.hop == 0.4
    assert Anisotropy(1.0).alpha == 0.0
    assert Anisotropy(1.0).delta == 1.0
    for q in Q_GRID:
        a = Anisotropy(q)
        assert abs(a.alpha**2 + 1.0 / a.delta**2 - 1.0) < 1e-14


def test_anisotropy_rejects_bad_q():
    for q in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            Anisotropy(q)


def test_boundary_condition_validation():
    assert BoundaryCondition.kink().tag == "kink"
    with pytest.raises(ValueError):
        BoundaryCondition("twisted")
    with pytest.raises(ValueError):
        BoundaryCondition.droplet(float("inf"))
    with pytest.raises(ValueError):
        BoundaryCondition("kink", delta=1.0)
    with pytest.warns(UserWarning):
        BoundaryCondition.droplet(0.5)


def test_droplet_field_values():
    # (delta/2)(1 - m_1 - m_L) is the droplet diagonal minus the open one
    a = Anisotropy(0.5)
    for delta, config, field in [
        (1.0, (1,), 0.5), (1.0, (4,), 0.5), (1.0, (1, 4), 1.0),
        (1.0, (2, 3), 0.0), (2.0, (1, 4), 2.0),
    ]:
        n = len(config)
        drop, basis = build_sector_hamiltonian(
            4, n, BoundaryCondition.droplet(delta), a
        )
        free, _ = build_sector_hamiltonian(4, n, BoundaryCondition.open(), a)
        i = oracle.sector(4, n)[1][config]
        assert basis.masks[i] == oracle.mask(config, 4)
        assert drop.matrix[i, i] - free.matrix[i, i] == field


def test_kink_two_site_matrix_frozen():
    op, basis = build_sector_hamiltonian(2, 1, BoundaryCondition.kink(), Anisotropy(0.5))
    assert basis.masks.tolist() == [oracle.mask(c, 2) for c in ((1,), (2,))]
    expected = np.array([[0.8, -0.4], [-0.4, 0.2]])
    assert np.allclose(op.to_dense(), expected, atol=1e-15)
    vals = np.linalg.eigvalsh(expected)
    assert abs(vals[0]) < 1e-15 and abs(vals[1] - 1.0) < 1e-15


@pytest.mark.parametrize("q", (0.3, 0.5, 0.9))
def test_kink_bond_is_projector(q):
    # h^2 = h on every two-site sector, the alpha^2 + 1/Delta^2 = 1 identity
    a = Anisotropy(q)
    for n in range(3):
        h = build_sector_hamiltonian(2, n, BoundaryCondition.kink(), a)[0].to_dense()
        assert np.abs(h @ h - h).max() < 1e-14


def test_ring_single_magnon_frozen():
    op, _ = build_sector_hamiltonian(4, 1, BoundaryCondition.cyclic(), Anisotropy(0.5))
    vals = np.linalg.eigvalsh(op.to_dense())
    assert np.allclose(vals, [0.2, 1.0, 1.0, 1.8], atol=1e-14)


def test_ground_sector_energies_are_zero():
    # all-up state has energy 0 for open/kink/cyclic and droplet
    a = Anisotropy(0.4)
    for bc in (
        BoundaryCondition.open(),
        BoundaryCondition.kink(),
        BoundaryCondition.cyclic(),
        BoundaryCondition.droplet(1.0),
    ):
        op, _ = build_sector_hamiltonian(6, 0, bc, a)
        assert abs(op.to_dense()[0, 0]) < 1e-15


@pytest.mark.parametrize("tag", ("open", "kink", "cyclic"))
def test_sector_operators_exactly_symmetric(tag):
    a = Anisotropy(0.7)
    bc = BoundaryCondition(tag)
    for L, n in [(6, 2), (7, 3), (8, 4)]:
        mat = build_sector_hamiltonian(L, n, bc, a)[0].matrix
        assert (mat != mat.T).nnz == 0


def test_row_sum_bound():
    # max row 1-norm <= n (1 + 1/Delta) for all four boundary fields
    for q in (0.3, 0.5, 0.9):
        a = Anisotropy(q)
        bound_rate = 1.0 + 1.0 / a.delta
        for bc in (
            BoundaryCondition.open(),
            BoundaryCondition.kink(),
            BoundaryCondition.cyclic(),
            BoundaryCondition.droplet(1.0),
        ):
            for L in (4, 6, 8):
                for n in range(L + 1):
                    op, _ = build_sector_hamiltonian(L, n, bc, a)
                    assert op.rowsum_norm() <= n * bound_rate + 1e-12


def test_momentum_blocks_frozen_single_magnon():
    a = Anisotropy(0.5)
    expected = {0: 0.2, 1: 1.0, 2: 1.8, 3: 1.0}
    for k, e in expected.items():
        op = build_momentum_block(4, 1, k, a)
        assert op.dim == 1
        assert abs(op.to_dense()[0, 0].real - e) < 1e-14


@pytest.mark.parametrize("L,n", [(4, 2), (6, 2), (6, 3), (8, 2)])
def test_momentum_blocks_tile_the_sector_spectrum(L, n):
    a = Anisotropy(0.5)
    full, _ = build_sector_hamiltonian(L, n, BoundaryCondition.cyclic(), a)
    sector_vals = np.linalg.eigvalsh(full.to_dense())
    rep, _, size = ring_orbits(enumerate_sector(L, n))
    sizes = size[rep == np.arange(len(rep))]
    block_vals = []
    for k in range(L):
        op = build_momentum_block(L, n, k, a)
        dense = op.to_dense()
        assert dense.dtype == np.float64
        assert np.array_equal(dense, dense.T)
        # one row per orbit that admits the phase, k * size = 0 mod L
        assert op.dim == np.count_nonzero((k * sizes) % L == 0)
        block_vals.extend(np.linalg.eigvalsh(dense))
    block_vals = np.sort(np.asarray(block_vals))
    assert block_vals.shape == sector_vals.shape
    assert np.abs(block_vals - sector_vals).max() < 1e-12


def test_ring_phases_exact_at_quarter_and_eighth_turns():
    for L in (4, 8, 12, 16, 24):
        table = _ring_phases(L, 1)
        quarter = table[:: L // 4]
        assert quarter.tolist() == [1, 1j, -1, -1j]
        assert np.array_equal(table[1:], table[:0:-1].conj())
        if L % 8 == 0:
            eighth = table[L // 8]
            assert eighth.real == eighth.imag == math.sqrt(0.5)


def test_momentum_blocks_store_no_rounding_noise():
    # phases that cancel on the circle cancel exactly, so no block
    # stores an entry at rounding level (5,194 of them before the
    # phase table was made exact at quarter and eighth turns)
    a = Anisotropy(0.5)
    noise = 0
    for L in range(2, 15):
        for n in range(L + 1):
            for k in range(L):
                data = build_momentum_block(L, n, k, a).matrix.data
                noise += int(np.count_nonzero(np.abs(data) < 1e-12))
    assert noise == 0


def test_momentum_block_validation():
    with pytest.raises(ValueError):
        build_momentum_block(4, 1, 4, Anisotropy(0.5))
    with pytest.raises(ValueError):
        build_momentum_block(4, 1, -1, Anisotropy(0.5))


def test_sparse_operator_refuses_complex():
    # every operator is real; complex data is refused, not converted
    for symmetry in ("symmetric", "general"):
        with pytest.raises(ValueError, match="real"):
            SparseOperator(sp.csr_matrix(np.array([[1.0 + 0.0j]])), symmetry)
    with pytest.raises(ValueError, match="symmetry tag"):
        SparseOperator(sp.csr_matrix(np.eye(2)), "hermitian")


def test_reduced_kernel_single_particle():
    a = Anisotropy(0.5)
    k0 = build_reduced_kernel(1, 0.0, a, 10)
    assert k0.dim == 1
    assert abs(k0.to_csr().to_dense()[0, 0] - 0.2) < 1e-15
    kp = build_reduced_kernel(1, math.pi / 2, a, 10)
    assert abs(kp.to_csr().to_dense()[0, 0] - 1.0) < 1e-15


def test_reduced_kernel_two_particle_frozen():
    # n_max = 2 box: diag (1, 2), both hop pairs stack to -2/(2 Delta)
    a = Anisotropy(0.5)
    kernel = build_reduced_kernel(2, 0.0, a, 2)
    expected = np.array([[1.0, -0.8], [-0.8, 2.0]])
    assert np.allclose(kernel.to_csr().to_dense(), expected, atol=1e-15)


def test_reduced_kernel_diagonal_counts_tight_gaps():
    a = Anisotropy(0.5)
    kernel = build_reduced_kernel(3, 0.0, a, 4)
    dense = kernel.to_csr().to_dense()
    for i, digits in enumerate(np.ndindex(kernel.n_max, kernel.n_max)):
        expected = 1.0 + np.count_nonzero(np.array(digits) >= 1)
        assert abs(dense[i, i] - expected) < 1e-15


def test_reduced_kernel_sign_structure_and_symmetry():
    a = Anisotropy(0.3)
    kernel = build_reduced_kernel(3, 0.0, a, 6)
    dense = kernel.to_csr().to_dense()
    assert np.abs(dense - dense.T).max() == 0.0
    off = dense - np.diag(np.diag(dense))
    assert off.max() <= 0.0
    assert kernel.rowsum_norm() <= 3 * (1.0 + 1.0 / a.delta) + 1e-12


def test_reduced_kernel_truncation_monotone_from_above():
    a = Anisotropy(0.5)
    target = minimum_energy(0.5, 2)
    last = math.inf
    for n_max in (2, 4, 8, 16, 32):
        kernel = build_reduced_kernel(2, 0.0, a, n_max)
        val = float(dense_spectrum(kernel.to_csr(), k=1).values[0])
        assert val <= last + 1e-14
        assert val >= target - 1e-12
        last = val
    assert abs(last - target) < 1e-6


@pytest.mark.parametrize("n, n_max", [(3, 30), (4, 10)])
def test_reversal_even_block(n, n_max):
    kernel = build_reduced_kernel(n, 0.0, Anisotropy(0.5), n_max)
    block, lift = even_block(kernel.to_csr(), reversal(n, n_max))
    assert block.dim == (n_max ** (n - 1) + n_max ** math.ceil((n - 1) / 2)) // 2
    dense = block.to_dense()
    assert np.abs(dense - dense.T).max() == 0.0
    p = lift.toarray()
    assert np.abs(p.T @ p - np.eye(block.dim)).max() < 1e-15
    assert np.abs(dense - p.T @ kernel.to_csr().to_dense() @ p).max() < 1e-14
    full = dense_spectrum(kernel.to_csr(), k=1).values[0]
    assert abs(dense_spectrum(block, k=1).values[0] - full) < 1e-12
    with pytest.raises(ValueError):
        even_block(
            build_reduced_kernel(n, 0.1, Anisotropy(0.5), 4).to_csr(),
            reversal(n, 4),
        )


@pytest.mark.parametrize("q", (0.3, 0.5, 0.8))
def test_builders_set_mirrors_that_even_block_accepts(q):
    # only operators whose ground state is provably even carry a mirror:
    # open, droplet and cyclic sectors under site reflection, and the
    # theta = 0 kernel under gap reversal once n >= 3
    a = Anisotropy(q)
    for L in range(11):
        for n in range(L + 1):
            reflection = oracle.site_reflection(L, n)
            for tag, delta in (("open", None), ("droplet", 1.0), ("cyclic", None)):
                op, _ = build_sector_hamiltonian(L, n, BoundaryCondition(tag, delta), a)
                assert np.array_equal(op.mirror, reflection)
                even_block(op, op.mirror)
            op, _ = build_sector_hamiltonian(L, n, BoundaryCondition.kink(), a)
            assert op.mirror is None
            for k in range(L):
                assert build_momentum_block(L, n, k, a).mirror is None
    for n in range(1, 6):
        for n_max in (1, 2, 3, 4):
            for theta in (0.0, 0.4, -math.pi / n):
                op = build_reduced_kernel(n, theta, a, n_max).to_csr()
                if theta == 0.0 and n >= 3:
                    assert np.array_equal(op.mirror, reversal(n, n_max))
                    even_block(op, op.mirror)
                else:
                    assert op.mirror is None


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 5),
    n_max=st.integers(1, 12),
    q=st.floats(0.05, 1.0),
    theta=st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)),
    seed=st.integers(0, 2**32 - 1),
)
def test_stencil_matches_csr(n, n_max, q, theta, seed):
    # the matrix-free kernel applies Re K to x plus Im K to R x with the
    # bits of their CSR matrices, for vectors and (dim, 2) blocks in
    # either memory order.  Without imaginary hops (theta = 0, n <= 2)
    # that is to_csr() bit for bit, with the same stored-entry count and
    # row-sum norm.  Otherwise to_csr() sums Re K and Im K R where they
    # share an entry, so it agrees to rounding, and nnz and the row-sum
    # norm, counted apart, are upper bounds (the norm up to rounding)
    kernel = build_reduced_kernel(n, theta, Anisotropy(q), n_max)
    op = kernel.to_csr()
    oracle = complex_kernel(n, theta, q, n_max)
    rev = reversal(n, n_max)
    rng = np.random.default_rng(seed)
    for shape in ((kernel.dim,), (kernel.dim, 2)):
        x = rng.standard_normal(shape)
        for operand in (x, np.asfortranarray(x)):
            y = kernel @ operand
            if n > 1:
                # (for n = 1 both hops land on the diagonal, whose three
                # terms the oracle sums in another order)
                parts = oracle.real @ operand + oracle.imag @ operand[rev]
                assert y.tobytes() == parts.tobytes()
            if kernel.reversed_hops:
                scale = kernel.rowsum_norm() * np.abs(operand).max()
                assert np.abs(y - op.matrix @ operand).max() <= 1e-15 * scale
            else:
                assert y.tobytes() == (op.matrix @ operand).tobytes()
    if kernel.reversed_hops:
        assert kernel.nnz >= op.nnz
        assert kernel.rowsum_norm() >= op.rowsum_norm() * (1.0 - 1e-15)
    else:
        assert kernel.nnz == op.nnz
        assert kernel.rowsum_norm() == op.rowsum_norm()


@pytest.mark.parametrize("theta", (0.0, 0.3))
@pytest.mark.parametrize(
    "n, n_max", [(1, 5), (2, 70_001), (3, 301), (4, 53), (5, 19)]
)
def test_stencil_matches_csr_across_slabs(n, n_max, theta):
    # boxes that the product works through in several slabs and a
    # shorter last one, for vectors and (dim, 2) blocks alike (n = 1 has
    # no gap axes: one slab of its one row).  Each row keeps its sum in
    # ascending column order, so the product is to_csr() bit for bit
    # without imaginary hops and the oracle's two parts with them, in
    # either memory order of the operand
    kernel = build_reduced_kernel(n, theta, Anisotropy(0.5), n_max)
    for columns in (1, 2):
        rows = [s.stop - s.start for s in kernel.slabs(columns)]
        assert sum(rows) == kernel.dim
        if n > 1:
            assert len(rows) > 2 and rows[-1] < rows[0] == max(rows)
    if kernel.reversed_hops:
        parts = complex_kernel(n, theta, 0.5, n_max)
        rev = reversal(n, n_max)

        def reference(x):
            return parts.real @ x + parts.imag @ x[rev]
    else:
        reference = kernel.to_csr().matrix.__matmul__
    rng = np.random.default_rng(n_max)
    for shape in ((kernel.dim,), (kernel.dim, 2)):
        x = rng.standard_normal(shape)
        for operand in (x, np.asfortranarray(x)):
            assert (kernel @ operand).tobytes() == reference(operand).tobytes()
    assert (kernel @ np.empty((kernel.dim, 0))).shape == (kernel.dim, 0)


@pytest.mark.parametrize("theta", (0.0, 0.4))
@pytest.mark.parametrize("n", range(1, 6))
def test_kernel_product_into_a_buffer(n, theta):
    # ``@`` writes K~ x into a fresh array, leaving x as it was, with the
    # bits of the CSR matrix where that is exact (to_csr sums Re K and
    # Im K R where they share an entry, so with imaginary hops the
    # reference is the oracle's two parts).  matvec is ``op.matrix @ v``
    # on both operator kinds
    q, n_max = 0.5, 7
    kernel = build_reduced_kernel(n, theta, Anisotropy(q), n_max)
    assert kernel.diagonal.dtype == (np.uint8 if n > 1 else np.float64)
    op = kernel.to_csr()
    parts = complex_kernel(n, theta, q, n_max)
    rev = reversal(n, n_max)
    rng = np.random.default_rng(n)
    for shape in ((kernel.dim,), (kernel.dim, 2)):
        x = rng.standard_normal(shape)
        kept = x.copy()
        if kernel.reversed_hops:
            ref = parts.real @ x + parts.imag @ x[rev]
        else:
            ref = op.matrix @ x
        assert (kernel @ x).tobytes() == ref.tobytes()
        assert np.array_equal(x, kept)
        for target in (kernel, op):
            assert matvec(target, x).tobytes() == (target.matrix @ x).tobytes()


@pytest.mark.parametrize("n", range(1, 6))
def test_kernel_at_minus_theta_is_reversal_permuted(n):
    # R K R = conj K, so the real form at -theta is R K~(theta) R: the
    # CSR matrices agree entry for entry.  The matrix-free products agree
    # to rounding only, because permuting the operand changes the order
    # in which each row's terms are summed
    a = Anisotropy(0.5)
    rng = np.random.default_rng(n)
    for n_max in (1, 2, 3, 5):
        rev = reversal(n, n_max)
        for theta in (0.3, 1.1, 0.9 * math.pi / n, 2.5):
            kp = build_reduced_kernel(n, theta, a, n_max)
            km = build_reduced_kernel(n, -theta, a, n_max)
            plus = kp.to_csr().matrix[rev][:, rev].sorted_indices()
            minus = km.to_csr().matrix.sorted_indices()
            for part in ("indptr", "indices", "data"):
                assert getattr(plus, part).tobytes() == getattr(minus, part).tobytes()
            x = rng.standard_normal((kp.dim, 2))
            scale = kp.rowsum_norm() * np.abs(x).max()
            assert np.abs(km @ x[rev] - (kp @ x)[rev]).max() <= 1e-15 * scale


def test_reduced_kernel_guards():
    with pytest.raises(ValueError):
        build_reduced_kernel(0, 0.0, Anisotropy(0.5), 5)
    with pytest.raises(ValueError):
        build_reduced_kernel(2, 0.0, Anisotropy(0.5), 0)
    with pytest.raises(DimensionGuardError):
        build_reduced_kernel(4, 0.0, Anisotropy(0.5), 200)


def test_large_sector_build_refused():
    with pytest.raises(DimensionGuardError):
        build_sector_hamiltonian(40, 20, BoundaryCondition.open(), Anisotropy(0.5))
    assert sector_dimension(40, 20) > 5_000_000
