"""Eigensolvers, positivity certificates, and tail extrapolation."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import sector_oracle as oracle
from kernel_oracle import reversal
from xxzdroplet import spectra
from xxzdroplet.bethe import bethe_energy, bethe_vector, certify_eigenpair, xi_factors
from xxzdroplet.cli import dispersion_records
from xxzdroplet.operators import (
    Anisotropy,
    BoundaryCondition,
    ReducedKernel,
    SparseOperator,
    build_reduced_kernel,
    build_sector_hamiltonian,
    even_block,
)
from xxzdroplet.sector_basis import DimensionGuardError
from xxzdroplet.spectra import (
    ConvergenceError,
    NotPositiveDefiniteError,
    dense_spectrum,
    fit_limit,
    generalized_lowest,
    kernel_lowest,
    lanczos_lowest,
    lowest,
    pf_check,
    spectral_radius,
    wielandt_check,
)


def random_symmetric(rng, dim, density=0.2):
    dense = rng.standard_normal((dim, dim))
    dense[rng.random((dim, dim)) > density] = 0.0
    dense = (dense + dense.T) / 2.0
    return SparseOperator(sp.csr_matrix(dense), "symmetric")


def test_rowsum_norm():
    op = SparseOperator(sp.csr_matrix(np.array([[1.0, -2.0], [0.5, 0.0]])), "general")
    assert op.rowsum_norm() == 3.0


def test_dense_spectrum_frozen():
    mat = np.array([[2.0, 1.0], [1.0, 2.0]])
    res = dense_spectrum(SparseOperator(sp.csr_matrix(mat), "symmetric"), k=2)
    assert np.allclose(res.values, [1.0, 3.0], atol=1e-14)
    res1 = dense_spectrum(SparseOperator(sp.csr_matrix(mat), "symmetric"), k=1)
    assert res1.values.shape == (1,)
    assert res1.residuals[0] < 1e-14


def test_dense_spectrum_general_real():
    # non-symmetric but similar to symmetric: spectrum must come out real
    mat = np.array([[2.0, -0.8], [-0.4, 1.0]])
    res = dense_spectrum(SparseOperator(sp.csr_matrix(mat), "general"), k=2)
    disc = math.sqrt((2.0 - 1.0) ** 2 + 4 * 0.32)
    assert np.allclose(res.values, [(3.0 - disc) / 2, (3.0 + disc) / 2], atol=1e-14)


def test_dense_guard(monkeypatch):
    op = SparseOperator(sp.identity(4001, format="csr"), "symmetric")
    with pytest.raises(DimensionGuardError):
        dense_spectrum(op, k=1)
    monkeypatch.setattr(spectra, "DENSE_GUARD", 1)
    with pytest.raises(DimensionGuardError):
        generalized_lowest(np.eye(2), np.eye(2))


def test_lanczos_agrees_with_dense():
    rng = np.random.default_rng(7)
    for dim in (80, 200):
        op = random_symmetric(rng, dim)
        lan = lanczos_lowest(op, k=3)
        den = dense_spectrum(op, k=3)
        assert np.abs(lan.values - den.values).max() < 1e-9
        assert lan.method == "lanczos"


def test_lanczos_small_operators_sweep():
    # Lanczos has no dense branch: at every dimension from 1 it must find
    # the lowest levels, also where the all-ones start closes the Krylov
    # space on an excited level (0/1 and sparse nonnegative entries)
    rng = np.random.default_rng(2024)
    for dim in range(1, 41):
        for family in ("sparse-nonnegative", "zero-one"):
            for _ in range(3):
                if family == "zero-one":
                    dense = (rng.random((dim, dim)) < 0.5).astype(float)
                else:
                    dense = rng.random((dim, dim))
                    dense[rng.random((dim, dim)) < 0.7] = 0.0
                dense = np.triu(dense) + np.triu(dense, 1).T
                op = SparseOperator(sp.csr_matrix(dense), "symmetric")
                scale = max(1.0, op.rowsum_norm())
                for k in (1, 2):
                    res = lanczos_lowest(op, k=k)
                    ref = dense_spectrum(op, k=k)
                    assert res.method == "lanczos"
                    assert len(res.values) == min(k, dim)
                    assert np.abs(res.values - ref.values).max() <= 1e-9 * scale


def test_lanczos_handles_degenerate_operator():
    # Krylov space of the identity collapses immediately; restarts must
    # still deliver k orthonormal basis vectors
    op = SparseOperator(sp.identity(100, format="csr"), "symmetric")
    res = lanczos_lowest(op, k=3)
    assert res.method == "lanczos"
    assert res.vectors.dtype == np.float64
    assert np.allclose(res.values, 1.0, atol=1e-12)
    assert np.allclose(res.vectors.T @ res.vectors, np.eye(3), atol=1e-12)


def test_lanczos_basis_move_keeps_bits(monkeypatch):
    # a run that outgrows the first reserved rows gives the same bits
    # the moved run goes first, so its block cannot be memory that still
    # holds the reference run's rows
    op = random_symmetric(np.random.default_rng(5), 200)
    with monkeypatch.context() as m:
        m.setattr(spectra, "LANCZOS_FIRST_ROWS", 4)
        moved = lanczos_lowest(op, k=3)
    ref = lanczos_lowest(op, k=3)
    assert ref.iterations > 4
    assert np.array_equal(moved.values, ref.values)
    assert np.array_equal(moved.vectors, ref.vectors)


@pytest.mark.parametrize(
    "start",
    [np.zeros(100), np.ones(99), np.full(100, np.nan), np.r_[np.inf, np.ones(99)]],
    ids=["zero", "wrong-length", "nan", "inf"],
)
def test_lanczos_rejects_bad_start(monkeypatch, start):
    op = SparseOperator(sp.diags(np.arange(100.0), format="csr"), "symmetric")

    def no_block(*args, **kwargs):
        raise AssertionError("Krylov block allocated for a bad start")

    # numpy.empty is patched process-wide for the call: the block is the
    # first allocation a valid start would reach
    monkeypatch.setattr(np, "empty", no_block)
    with pytest.raises(ValueError):
        lanczos_lowest(op, start=start)


def test_lanczos_eigenvector_start_restarts(monkeypatch):
    # beta = 0 at the first step closes the Krylov space at once; the
    # restart block then runs as Lanczos from the restart direction would
    # alone, and the run stops when that block has converged too
    op = random_symmetric(np.random.default_rng(13), 200)
    dense = dense_spectrum(op, k=1)
    calls = []
    restart = spectra._restart_direction

    def counted(rows, attempt):
        calls.append(attempt)
        return restart(rows, attempt)

    monkeypatch.setattr(spectra, "_restart_direction", counted)
    start = dense.vectors[:, 0]
    res = lanczos_lowest(op, k=1, start=start)
    assert calls == [1]
    block = lanczos_lowest(
        op, k=1, start=restart(start[None, :] / np.linalg.norm(start), 1)
    )
    assert res.method == "lanczos" and res.iterations == 1 + block.iterations
    assert abs(res.values[0] - dense.values[0]) < 1e-12
    assert res.residuals[0] < 1e-12


def test_lanczos_excited_eigenvector_start():
    op = SparseOperator(sp.diags(np.arange(100.0), format="csr"), "symmetric")
    res = lanczos_lowest(op, k=1, start=np.eye(100)[50])
    assert abs(res.values[0]) < 1e-10


def test_lanczos_ring_top_state_start():
    # the all-ones default start is the ring's top eigenvector (value 2);
    # the space closes on it and the restart block finds the bottom, -2
    ring = sp.diags([1.0, 1.0], [-1, 1], shape=(100, 100), format="lil")
    ring[0, 99] = ring[99, 0] = 1.0
    op = SparseOperator(ring.tocsr(), "symmetric")
    res = lanczos_lowest(op, k=1)
    assert res.method == "lanczos"
    assert abs(res.values[0] + 2.0) < 1e-10
    assert res.residuals[0] < 1e-8


def test_lanczos_closed_restart_block_counts_copies():
    # all-ones closes on the three distinct levels 0, 1, 2; each restart
    # block then closes on the levels left to it, and the run stops once
    # the k-th lowest value found is no higher than that block's lowest
    op = SparseOperator(
        sp.diags(np.repeat([0.0, 1.0, 2.0], 40), format="csr"), "symmetric"
    )
    res = lanczos_lowest(op, k=3)
    assert res.method == "lanczos"
    assert np.abs(res.values).max() < 1e-12
    assert np.allclose(res.vectors.T @ res.vectors, np.eye(3), atol=1e-12)


def test_lanczos_stopping_test_solves_k_levels(monkeypatch):
    # every per-iteration stopping test asks for the k lowest pairs only;
    # the one full tridiagonal solve is the last call
    calls = []
    solve = scipy.linalg.eigh_tridiagonal

    def recorded(d, e, **kwargs):
        calls.append(kwargs)
        return solve(d, e, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", recorded)
    op = random_symmetric(np.random.default_rng(5), 200)
    res = lanczos_lowest(op, k=3)
    assert res.method == "lanczos" and len(calls) == res.iterations - 1
    assert all(c == {"select": "i", "select_range": (0, 2)} for c in calls[:-1])
    assert calls[-1] == {}


def test_lanczos_rejects_general():
    op = SparseOperator(sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])), "general")
    with pytest.raises(ValueError):
        lanczos_lowest(op)
    # the guard trips before the Krylov block, 128 rows of 2^20 entries
    # (1 GiB), is allocated
    op = SparseOperator(sp.identity(2**20, format="csr"), "general")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="real symmetric"):
            lanczos_lowest(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "symmetry, dtype", [("hermitian", complex), ("symmetric", complex)]
)
def test_lanczos_rejects_non_real_symmetric(symmetry, dtype):
    # a complex operator never reaches the Krylov block, 128 rows of 2^20
    # complex entries (2 GiB): SparseOperator refuses it at construction
    matrix = sp.identity(2**20, dtype=dtype, format="csr")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="symmetry tag|operators are real"):
            lanczos_lowest(SparseOperator(matrix, symmetry))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_lanczos_deterministic():
    rng = np.random.default_rng(11)
    op = random_symmetric(rng, 150)
    v1 = lanczos_lowest(op, k=2).values
    v2 = lanczos_lowest(op, k=2).values
    assert np.array_equal(v1, v2)


def hard_spectrum(dim=1000):
    # three separated low levels below a bulk clustered at its lower edge:
    # the lowest converges early, the third only after about 270 steps
    u = np.linspace(0.0, 1.0, dim - 3)
    levels = np.r_[-1.0, 0.0, 0.01, 0.03 + 9.97 * u**2]
    return SparseOperator(sp.diags(levels, format="csr"), "symmetric")


def test_lanczos_hard_spectrum_has_no_ghosts():
    # without reorthogonalization the converged lowest level comes back
    # as spurious copies (a run with none returns -1, -1, -1 here)
    op = hard_spectrum()
    res = lanczos_lowest(op, k=3)
    ref = dense_spectrum(op, k=3)
    assert res.iterations >= 200
    assert np.abs(res.values - ref.values).max() <= 1e-10 * op.rowsum_norm()
    assert np.diff(res.values).min() > 0.005
    assert np.abs(np.linalg.norm(res.vectors, axis=0) - 1.0).max() <= 1e-14


def test_lanczos_full_passes_are_rare(monkeypatch):
    # a full pass against every row runs only where the estimated loss of
    # orthogonality calls for one, not at every iteration
    calls = []
    reorthogonalize = spectra._reorthogonalize

    def counted(rows, w):
        calls.append(len(rows))
        return reorthogonalize(rows, w)

    monkeypatch.setattr(spectra, "_reorthogonalize", counted)
    res = lanczos_lowest(hard_spectrum(), k=3)
    assert res.iterations >= 100
    assert 0 < len(calls) <= res.iterations // 5


@pytest.mark.parametrize(
    "bc",
    [
        BoundaryCondition("open"),
        BoundaryCondition("droplet", 1.0),
        BoundaryCondition("cyclic"),
        BoundaryCondition("kink"),
    ],
    ids=lambda bc: bc.tag,
)
def test_lowest_lanczos_residual_within_tolerance(monkeypatch, bc):
    # every k = 1 sector solve for L <= 14 forced onto Lanczos: the
    # explicit residual stays within the stopping test's bound on the
    # operator Lanczos ran on (the reflection-even block where the sector
    # has a mirror, whose row sums can exceed the sector's), and the value
    # agrees with the dense solve; a kink sector's ground level is 0, its
    # SU_q(2) highest-weight ground state
    for L in range(1, 15):
        for n in range(L + 1):
            op, _ = build_sector_hamiltonian(L, n, bc, Anisotropy(0.5))
            if bc.tag == "kink":
                solved, ref = op, 0.0
            else:
                solved = even_block(op, op.mirror)[0]
                ref = lowest(op, 1).values[0]
            with monkeypatch.context() as m:
                m.setattr(spectra, "DENSE_GUARD", 1)
                res = lowest(op, 1)
            assert res.residuals[0] <= spectra.LANCZOS_TOL * solved.rowsum_norm()
            assert abs(res.values[0] - ref) <= 1e-12, (L, n)


@pytest.mark.parametrize("n, n_max", [(3, 30), (4, 10)])
@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_kernel_lanczos_residual_within_tolerance(monkeypatch, n, n_max, theta):
    kernel = build_reduced_kernel(n, theta, Anisotropy(0.5), n_max)
    ref = scipy.linalg.eigvalsh(kernel.to_csr().to_dense(), subset_by_index=[0, 0])
    monkeypatch.setattr(spectra, "DENSE_GUARD", 1)
    res = kernel_lowest(kernel, 1)
    assert res.method == "lanczos"
    assert res.residuals[0] <= spectra.LANCZOS_TOL * kernel.rowsum_norm()
    assert abs(res.values[0] - ref[0]) <= 1e-12


@pytest.mark.parametrize(
    "n, n_max, method", [(3, 30, "dense"), (4, 10, "dense"), (3, 64, "lanczos")]
)
def test_kernel_lowest_even_block(n, n_max, method):
    # the solver follows the full kernel's dimension (4096 > DENSE_GUARD
    # goes to Lanczos although its block is only 2080); q = 0.8 keeps
    # the far tail of the ground state above rounding, so its sign shows
    kernel = build_reduced_kernel(n, 0.0, Anisotropy(0.8), n_max)
    res = kernel_lowest(kernel, 1)
    # without its mirror, lowest solves the full kernel
    full = lowest(SparseOperator(kernel.to_csr().matrix, "symmetric"), 1)
    assert res.method == full.method == method
    assert abs(res.values[0] - full.values[0]) < 1e-12
    v = res.vectors[:, 0] * np.sign(res.vectors[:, 0].sum())
    assert v.min() > 0.0
    assert_reversal_symmetric(v, kernel)
    resid = np.linalg.norm(kernel.to_csr().matrix @ v - res.values[0] * v)
    assert res.residuals[0] == resid and resid < 1e-8
    if method == "lanczos":
        # its half box (32^2 = 1024) is small enough for the dense path,
        # so Lanczos starts cold from all-ones on the full kernel: the
        # same run as on the CSR matrix, bit for bit, up to the even part
        # taken of the Ritz vector
        cold = lanczos_lowest(kernel.to_csr(), k=1)
        assert res.iterations == cold.iterations
        assert np.array_equal(res.values, cold.values)
        assert np.array_equal(res.vectors, even_part(cold.vectors, kernel))


def reversed_gaps(v, kernel):
    # the gap box is C-ordered, so reversing the gaps reverses the axes
    box = v.reshape((kernel.n_max,) * (kernel.n - 1) + v.shape[1:])
    axes = tuple(range(kernel.n - 2, -1, -1)) + tuple(range(kernel.n - 1, box.ndim))
    return box, box.transpose(axes)


def assert_reversal_symmetric(v, kernel):
    box, rev = reversed_gaps(v, kernel)
    assert np.array_equal(box, rev)


def even_part(vectors, kernel):
    box, rev = reversed_gaps(vectors, kernel)
    return ((box + rev) / 2.0).reshape(vectors.shape)


@pytest.mark.parametrize(
    "n, n_max, max_iterations", [(3, 200, 5), (4, 40, 45), (5, 18, 55)]
)
def test_kernel_lowest_half_truncation_ladder(n, n_max, max_iterations):
    # each case has at least one rung: its half box is above DENSE_GUARD.
    # At q = 0.5 the far corner of the ground state lies below rounding
    # (cold runs too end near -1e-10 there), so positivity is checked
    # to 1e-8, the eigenvector accuracy a 1e-10 residual allows
    assert (-(-n_max // 2)) ** (n - 1) > spectra.DENSE_GUARD
    kernel = build_reduced_kernel(n, 0.0, Anisotropy(0.5), n_max)
    res = kernel_lowest(kernel, 1)
    block, _ = even_block(kernel.to_csr(), reversal(n, n_max))
    cold = lanczos_lowest(block, k=1)
    assert res.method == "lanczos"
    # iteration counts are deterministic, so this guards the warm start
    # without timing: the cold runs take 73, 81 and 73 iterations
    assert res.iterations <= max_iterations < cold.iterations
    assert abs(res.values[0] - cold.values[0]) < 1e-12
    v = res.vectors[:, 0] * np.sign(res.vectors[:, 0].sum())
    assert v.min() > -1e-8 and v[0] > 0.1
    assert_reversal_symmetric(v, kernel)
    resid = np.linalg.norm(
        kernel.to_csr().matrix @ res.vectors - res.vectors * res.values, axis=0
    )
    assert np.array_equal(res.residuals, resid) and resid[0] < 1e-8


@pytest.mark.parametrize(
    "bc",
    [
        BoundaryCondition.open(),
        BoundaryCondition.droplet(1.0),
        BoundaryCondition.cyclic(),
    ],
    ids=lambda bc: bc.tag,
)
@pytest.mark.parametrize("L, method", [(15, "dense"), (16, "lanczos")])
def test_even_lowest_sector_ground_state(bc, L, method):
    # lowest solves the ground state of a sector that carries a mirror
    # on its even block.  n = 5: dim 3,003 (dense, block 1,512) and
    # 4,368 (Lanczos, block 2,184, which is below DENSE_GUARD itself);
    # the reference is the full-sector Lanczos ground state
    op, _ = build_sector_hamiltonian(L, 5, bc, Anisotropy(0.5))
    mirror = oracle.site_reflection(L, 5)
    res = lowest(op, 1)
    ref = lanczos_lowest(op, k=1)
    assert res.method == method
    assert abs(res.values[0] - ref.values[0]) < 1e-12
    v = res.vectors[:, 0] * np.sign(res.vectors[:, 0].sum())
    assert v.shape == (op.dim,) and np.array_equal(v, v[mirror])
    assert abs(abs(v @ ref.vectors[:, 0]) - 1.0) < 1e-12
    resid = np.linalg.norm(
        op.matrix @ res.vectors - res.vectors * res.values, axis=0
    )
    assert np.array_equal(res.residuals, resid) and resid[0] < 1e-8


def test_even_block_refuses_a_mirror_it_does_not_commute_with():
    # the kink fields are odd under site reflection, so lowest refuses
    # a kink sector handed that mirror
    op, _ = build_sector_hamiltonian(
        8, 3, BoundaryCondition.kink(), Anisotropy(0.5)
    )
    mirrored = SparseOperator(op.matrix, "symmetric", oracle.site_reflection(8, 3))
    with pytest.raises(ValueError, match="commute"):
        lowest(mirrored, 1)
    with pytest.raises(ValueError, match="involution"):
        even_block(op, np.roll(np.arange(op.dim), 1))


def refuse_csr(kernel):
    raise AssertionError(f"CSR of a dim {kernel.dim} kernel")


def test_kernel_lowest_runs_without_csr(monkeypatch):
    # the Lanczos route, ladder rungs and certification included, never
    # assembles a matrix, and it is the CSR Lanczos run bit for bit:
    # n = 3 starts cold, and n = 4 from its half box (20^3 = 8000 >
    # DENSE_GUARD)
    kernels = [
        build_reduced_kernel(3, 0.0, Anisotropy(0.5), 70),
        build_reduced_kernel(4, 0.0, Anisotropy(0.5), 40),
    ]
    monkeypatch.setattr(ReducedKernel, "to_csr", refuse_csr)
    records = dispersion_records(4, 0.5, 1, 40)
    results = [kernel_lowest(kernel, 1) for kernel in kernels]
    starts = [spectra._half_truncation_start(kernel) for kernel in kernels]
    monkeypatch.undo()
    row = next(r for r in records if r.method == "kernel-lanczos")
    assert (row.energy, row.residual) == (
        results[1].values[0], results[1].residuals[0]
    )
    assert starts[0] is None and starts[1] is not None
    for kernel, res, start in zip(kernels, results, starts):
        op = kernel.to_csr()
        ref = lanczos_lowest(op, k=1, start=start)
        assert res.method == ref.method == "lanczos"
        assert res.iterations == ref.iterations
        assert np.array_equal(res.values, ref.values)
        assert np.array_equal(res.vectors, even_part(ref.vectors, kernel))
        resid = np.linalg.norm(
            op.matrix @ res.vectors - res.vectors * res.values, axis=0
        )
        assert np.array_equal(res.residuals, resid)
        # the even part's residual is no larger, up to rounding
        assert resid[0] <= ref.residuals[0] + 1e-15


def test_kernel_lowest_theta_ladder(monkeypatch):
    # theta != 0 above DENSE_GUARD: Lanczos on the real form starts from
    # the half box's ground state at the same theta (30^3 = 27,000 >
    # DENSE_GUARD, itself started cold), without assembling a matrix.
    # The cold run takes 75 iterations; iteration counts are
    # deterministic, so this guards the warm start without timing
    kernel = build_reduced_kernel(4, math.pi / 12, Anisotropy(0.5), 60)
    monkeypatch.setattr(ReducedKernel, "to_csr", refuse_csr)
    start = spectra._half_truncation_start(kernel)
    res = kernel_lowest(kernel, 1)
    cold = lanczos_lowest(kernel, k=1)
    monkeypatch.undo()
    assert start is not None
    assert res.method == "lanczos"
    assert res.iterations <= 15 < cold.iterations
    assert abs(res.values[0] - cold.values[0]) < 1e-13
    assert res.residuals[0] <= spectra.LANCZOS_TOL * kernel.rowsum_norm()


def test_kernel_memory_without_csr():
    # the stencil holds one diagonal box (4 MB at dim 512,000); the CSR
    # build of this kernel traces about 258 MiB
    q, n, n_max = 0.5, 4, 80
    tracemalloc.start()
    try:
        kernel = build_reduced_kernel(n, 0.0, Anisotropy(q), n_max)
        report = certify_eigenpair(xi_factors(q, n, 0.0), kernel)
        kernel @ np.ones(kernel.dim)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 32 * 2**20


@pytest.mark.parametrize(
    "n, theta, k", [(1, 0.0, 1), (2, 0.0, 1), (3, 0.3, 1), (3, 0.0, 2)]
)
def test_kernel_lowest_full_kernel_cases(n, theta, k):
    # n <= 2 (reversal is the identity), theta != 0 below DENSE_GUARD
    # and excited levels keep the full-kernel solve bit for bit
    kernel = build_reduced_kernel(n, theta, Anisotropy(0.5), 20)
    res = kernel_lowest(kernel, k)
    ref = lowest(kernel.to_csr(), k)
    assert res.method == ref.method
    assert np.array_equal(res.values, ref.values)
    assert np.array_equal(res.residuals, ref.residuals)


def test_generalized_lowest_matches_full_pencil():
    rng = np.random.default_rng(21)
    for dim in (5, 40, 120):
        a = rng.standard_normal((dim, dim))
        a = (a + a.T) / 2.0
        m = rng.standard_normal((dim, dim))
        g = m @ m.T + dim * np.eye(dim)
        full_values, full_vectors = scipy.linalg.eigh(a, g)
        res = generalized_lowest(a, g, k=2)
        assert res.method == "generalized-cholesky"
        assert np.abs(res.values - full_values[:2]).max() < 1e-12
        # eigenvectors are G-normalized by both; fix the sign, then compare
        signs = np.sign(np.sum(res.vectors * full_vectors[:, :2], axis=0))
        assert np.abs(res.vectors * signs - full_vectors[:, :2]).max() < 1e-12


def test_generalized_lowest():
    a = np.diag([1.0, 2.0, 3.0])
    g = np.eye(3)
    res = generalized_lowest(a, g, k=2)
    assert np.allclose(res.values, [1.0, 2.0], atol=1e-14)
    with pytest.raises(NotPositiveDefiniteError):
        generalized_lowest(a, np.diag([1.0, -1.0, 1.0]))


def test_spectral_radius(monkeypatch):
    op = SparseOperator(sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])), "symmetric")
    rho, iters = spectral_radius(op)
    assert abs(rho - 3.0) < 1e-10
    assert iters >= 2
    zero = SparseOperator(sp.csr_matrix((3, 3)), "symmetric")
    assert spectral_radius(zero)[0] == 0.0
    monkeypatch.setattr(spectra, "POWER_MAXITER", 2)
    with pytest.raises(ConvergenceError):
        spectral_radius(op)


def test_pf_check_on_shifted_kernel():
    q, n, n_max = 0.5, 2, 110
    a = Anisotropy(q)
    kernel = build_reduced_kernel(n, 0.0, a, n_max)
    shifted = SparseOperator(
        (sp.identity(kernel.dim, format="csr") * n - kernel.to_csr().matrix).tocsr(),
        "symmetric",
    )
    sol = xi_factors(q, n, 0.0)
    vec = bethe_vector(sol, n_max)
    value = n - bethe_energy(q, n, 0.0)
    report = pf_check(shifted, vec, value)
    assert report.passed, report.summary()
    assert report.entrywise_nonnegative and report.vector_positive
    assert abs(report.spectral_radius - value) < 1e-8


def test_pf_check_flags_violations():
    mat = sp.csr_matrix(np.array([[1.0, -0.5], [-0.5, 1.0]]))
    report = pf_check(SparseOperator(mat, "symmetric"), np.ones(2), 0.5)
    assert not report.passed
    assert "negative" in report.message
    pos = sp.csr_matrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    report = pf_check(SparseOperator(pos, "symmetric"), np.array([1.0, -1.0]), 0.5)
    assert not report.passed and not report.vector_positive


def test_wielandt_restriction():
    rng = np.random.default_rng(23)
    for _ in range(10):
        dim = int(rng.integers(5, 60))
        dense = np.abs(rng.standard_normal((dim, dim)))
        dense = (dense + dense.T) / 2.0
        op = SparseOperator(sp.csr_matrix(dense), "symmetric")
        subset = rng.choice(dim, size=int(rng.integers(1, dim + 1)), replace=False)
        rep = wielandt_check(op, subset)
        assert rep.passed
        assert rep.radius_sub <= rep.radius_full + 1e-10


def test_wielandt_explicit_subkernel_and_validation():
    dense = np.array([[1.0, 0.5], [0.5, 1.0]])
    op = SparseOperator(sp.csr_matrix(dense), "symmetric")
    sub = SparseOperator(sp.csr_matrix(dense * 0.5), "symmetric")
    rep = wielandt_check(op, [0, 1], sub)
    assert rep.passed and rep.slack > 0
    with pytest.raises(ValueError):
        wielandt_check(op, [])
    with pytest.raises(ValueError):
        wielandt_check(op, [0, 5])
    big = SparseOperator(sp.csr_matrix(dense * 2.0), "symmetric")
    with pytest.raises(ValueError):
        wielandt_check(op, [0, 1], big)
    neg = SparseOperator(sp.csr_matrix(np.array([[-1.0]])), "symmetric")
    with pytest.raises(ValueError):
        wielandt_check(neg, [0])


def test_fit_limit_exact_on_geometric_tail():
    pts = [(k, 1.0 / 6.0 + 0.3 * 0.4**k) for k in range(1, 9)]
    limit, residual = fit_limit(pts)
    assert abs(limit - 1.0 / 6.0) < 1e-12
    assert residual < 1e-12


def test_fit_limit_algebraic_tail():
    # 1/L^2 tails are the slowest case in practice; the iterated table
    # must still land within a few parts in 1e4
    pts = [(L, 0.25 + 1.7 / L**2) for L in range(4, 17)]
    limit, _ = fit_limit(pts)
    assert abs(limit - 0.25) < 5e-4


def test_fit_limit_never_above_observed_minimum():
    pts = [(k, 0.5 + 0.2 * 0.5**k) for k in range(1, 7)]
    limit, _ = fit_limit(pts)
    assert limit <= min(e for _, e in pts)


def test_fit_limit_constant_tail():
    assert fit_limit([(1, 2.0), (2, 2.0), (3, 2.0), (4, 2.0)]) == (2.0, 0.0)


def test_fit_limit_flags_non_monotone():
    assert fit_limit([(1, 1.0), (2, 0.5), (3, 0.8), (4, 0.4)]) is None


def test_fit_limit_flags_non_contracting():
    # differences -0.2 then -0.4: the ratio 2 is not contracting
    assert fit_limit([(1, 4.0), (2, 3.9), (3, 3.7), (4, 3.3)]) is None


def test_fit_limit_input_validation():
    with pytest.raises(ValueError):
        fit_limit([(1, 1.0), (2, 0.9)])
    with pytest.raises(ValueError):
        fit_limit([(1, 1.0), (2, 0.9), (4, 0.85)])
    with pytest.raises(ValueError):
        fit_limit([(2, 1.0), (1, 0.9), (0, 0.85)])
