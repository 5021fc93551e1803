"""Eigensolvers, positivity certificates, and tail extrapolation."""

import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import sector_oracle as oracle
from kernel_oracle import reversal
from xxzdroplet import bethe, spectra
from xxzdroplet.bethe import bethe_energy, bethe_vector, certify_eigenpair, xi_factors
from xxzdroplet.brackets import build_hw_matrix, build_R, hw_gram_lowest
from xxzdroplet.cli import dispersion_records
from xxzdroplet.operators import (
    SLAB_BYTES,
    Anisotropy,
    BoundaryCondition,
    ReducedKernel,
    SparseOperator,
    build_momentum_block,
    build_reduced_kernel,
    build_sector_hamiltonian,
    even_block,
)
from xxzdroplet.sector_basis import DimensionGuardError
from xxzdroplet.spectra import (
    ConvergenceError,
    dense_spectrum,
    fit_limit,
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


def test_rowsum_norm_matches_scipy_bits():
    # reduceat over indptr, without forming |A|, has the bits of scipy's
    # abs(A).sum(axis=1).max(): on a sector operator, a momentum block, a
    # kernel CSR, an even block and matrices with empty rows
    a = Anisotropy(0.37)
    sector, _ = build_sector_hamiltonian(13, 5, BoundaryCondition.droplet(1.3), a)
    rng = np.random.default_rng(3)
    sparse = rng.standard_normal((40, 30)) * (rng.random((40, 30)) < 0.2)
    sparse[[0, 7, 39]] = 0.0
    ops = [
        sector,
        build_momentum_block(12, 4, 3, a),
        build_reduced_kernel(3, 0.7, a, 17).to_csr(),
        build_reduced_kernel(4, 0.0, a, 9).to_csr(),
        even_block(sector, sector.mirror)[0],
        SparseOperator(sp.csr_matrix(sparse), "general"),
        SparseOperator(sp.csr_matrix((5, 5)), "general"),
    ]
    for op in ops:
        want = float(np.abs(op.matrix).sum(axis=1).max())
        assert np.float64(op.rowsum_norm()).tobytes() == np.float64(want).tobytes()


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


def test_dense_guard():
    op = SparseOperator(sp.identity(4001, format="csr"), "symmetric")
    with pytest.raises(DimensionGuardError):
        dense_spectrum(op, k=1)


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


def test_lanczos_lets_the_start_go(monkeypatch):
    # the start is copied into row 0 and normalized there; a start the
    # caller does not keep (kernel_lowest's padded half-box vector) is
    # freed before the first product
    op = hard_spectrum()
    refs, alive = [], []

    def start():
        v = np.linspace(1.0, 2.0, op.dim)
        refs.append(weakref.ref(v))
        return v

    matmul = sp.csr_matrix.__matmul__

    def spy(self, x):
        alive.append(refs[0]() is not None)
        return matmul(self, x)

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", spy)
    res = lanczos_lowest(op, k=1, start=start())
    assert len(alive) == res.iterations and not any(alive)


def test_lanczos_eigenvector_start_restarts(monkeypatch):
    # beta = 0 at the first step closes the Krylov space at once; the
    # restart block then runs as Lanczos from the restart direction would
    # alone, and the run stops when that block has converged too
    op = random_symmetric(np.random.default_rng(13), 200)
    dense = dense_spectrum(op, k=1)
    calls = []
    restart = spectra._restart_direction

    def counted(rows, attempt, gram):
        calls.append(attempt)
        return restart(rows, attempt, gram)

    monkeypatch.setattr(spectra, "_restart_direction", counted)
    start = dense.vectors[:, 0]
    res = lanczos_lowest(op, k=1, start=start)
    assert calls == [1]
    block = lanczos_lowest(
        op, k=1, start=restart([start[None, :] / np.linalg.norm(start)], 1)
    )
    assert res.method == "lanczos" and res.iterations == 1 + block.iterations
    assert abs(res.values[0] - dense.values[0]) < 1e-12
    assert res.residuals[0] < 1e-12


def test_lanczos_converged_start_names_the_closure():
    # the even Bethe vector of n = 3, n_max = 200, q = 0.5 is the kernel's
    # ground state to rounding: Lanczos from it closes its Krylov space at
    # step 0 and restarts on the complement, which reaches the cap.  The
    # run still raises, with the right value at bound 0, and the message
    # says that the start closed the space, where and at what value
    q, n, n_max = 0.5, 3, 200
    kernel = build_reduced_kernel(n, 0.0, Anisotropy(q), n_max)
    f = bethe_vector(xi_factors(q, n, 0.0), n_max)
    start = even_part(f[:, None], kernel)[:, 0]
    with pytest.raises(
        ConvergenceError,
        match=r"the start closed its Krylov space at step 0 with value 0\.4666",
    ) as caught:
        lanczos_lowest(kernel, 1, start=start)
    err = caught.value
    assert err.iterations == spectra.LANCZOS_MAXITER
    assert abs(err.values[0] - bethe_energy(q, n, 0.0)) <= 1e-14
    assert err.bounds[0] == 0.0


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
    # every stopping test asks LAPACK for the k lowest levels only.  The
    # single-vector iteration (k = 1) bisects its tridiagonal at every
    # iteration and solves it in full once, at exit; the block iteration
    # (k = 3) solves its banded matrix for levels 1..3 and never a
    # tridiagonal
    bisections, full, banded = [], [], []
    stebz = spectra._STEBZ
    solve = scipy.linalg.eigh_tridiagonal
    band_solve = scipy.linalg.eig_banded

    def recorded_stebz(d, e, select, vl, vu, il, iu, tol, order):
        bisections.append((select, il, iu))
        return stebz(d, e, select, vl, vu, il, iu, tol, order)

    def recorded(d, e, **kwargs):
        full.append(kwargs)
        return solve(d, e, **kwargs)

    def recorded_banded(band, **kwargs):
        banded.append((kwargs["select"], kwargs["select_range"]))
        return band_solve(band, **kwargs)

    monkeypatch.setattr(spectra, "_STEBZ", recorded_stebz)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", recorded)
    monkeypatch.setattr(scipy.linalg, "eig_banded", recorded_banded)
    op = random_symmetric(np.random.default_rng(5), 200)
    res = lanczos_lowest(op, k=1)
    # the tests the schedule runs and those a pass replays: fewer than
    # one per iteration (the first, on a 1 x 1 tridiagonal, needs no
    # bisection), and the last is the stopping step's
    assert res.method == "lanczos" and 0 < len(bisections) < res.iterations - 1
    assert set(bisections) == {(2, 1, 1)}
    assert full == [{}] and banded == []
    bisections.clear()
    full.clear()
    res = lanczos_lowest(op, k=3)
    assert res.method == "lanczos" and bisections == [] and full == []
    assert banded and set(banded) == {("i", (0, 2))}


def schedule(monkeypatch, stride):
    # a fixed stopping-test schedule: every step for stride 1, the
    # reference; a long stride makes the run pass its stopping step
    monkeypatch.setattr(spectra, "_next_test", lambda steps, *rest: steps + stride)


def assert_same_run(got, want):
    assert got.method == want.method and got.iterations == want.iterations
    assert got.values.tobytes() == want.values.tobytes()
    assert got.vectors.tobytes() == want.vectors.tobytes()
    assert got.residuals.tobytes() == want.residuals.tobytes()


def test_replayed_schedule_matches_a_test_at_every_step(monkeypatch):
    # the k = 1 run tests where its schedule says and replays the skipped
    # tests when one passes, the space closes or the cap is reached, so it
    # stops where a test at every step stops: the same values, vectors,
    # residuals and iterations on even sector blocks, kernels (the n = 4
    # kernel at theta = 0 runs from its Bethe start, which fails its
    # one-product test at n_max = 22, and theta != 0 runs matrix-free),
    # the Gram route, the restart case and a capped run.  So does a
    # schedule that tests every seventh step only, whose passing test
    # mostly comes after the stopping step
    a = Anisotropy(0.5)
    droplet, _ = build_sector_hamiltonian(14, 4, BoundaryCondition.droplet(1.0), a)
    opened, _ = build_sector_hamiltonian(16, 5, BoundaryCondition.open(), a)
    diagonal = SparseOperator(sp.diags(np.arange(100.0), format="csr"), "symmetric")
    capped = random_symmetric(np.random.default_rng(5), 200)
    runs = [
        lambda: lanczos_lowest(even_block(droplet, droplet.mirror)[0]),
        lambda: lanczos_lowest(even_block(opened, opened.mirror)[0]),
        lambda: kernel_lowest(build_reduced_kernel(4, 0.0, a, 22), 1),
        lambda: kernel_lowest(build_reduced_kernel(3, 0.3, a, 70), 1),
        lambda: hw_gram_lowest(17, 3, a),
        lambda: lanczos_lowest(diagonal, start=np.eye(100)[50]),
    ]
    got, errors = {}, {}
    for stride in (None, 7, 1):
        if stride is not None:
            schedule(monkeypatch, stride)
        got[stride] = [run() for run in runs]
        with monkeypatch.context() as m:
            m.setattr(spectra, "LANCZOS_MAXITER", 12)
            with pytest.raises(ConvergenceError) as err:
                lanczos_lowest(capped)
        errors[stride] = err.value
    for stride in (None, 7):
        for result, want in zip(got[stride], got[1]):
            assert_same_run(result, want)
        err, ref = errors[stride], errors[1]
        assert err.iterations == ref.iterations == 12
        assert err.values.tobytes() == ref.values.tobytes()
        assert err.bounds.tobytes() == ref.bounds.tobytes()
        assert str(err) == str(ref)
    restarted = got[1][-1]
    assert restarted.iterations > 50 and abs(restarted.values[0]) < 1e-10


def test_stopping_test_runs_on_few_steps(monkeypatch):
    # on the droplet L = 20, n = 5 even block the k = 1 run takes its
    # stopping test on at most a third of its steps, replays included
    calls = []
    ritz = spectra._lowest_ritz_vectors

    def counted(d, e, k):
        calls.append(len(d))
        return ritz(d, e, k)

    op, _ = build_sector_hamiltonian(
        20, 5, BoundaryCondition.droplet(1.0), Anisotropy(0.5)
    )
    block, _ = even_block(op, op.mirror)
    monkeypatch.setattr(spectra, "_lowest_ritz_vectors", counted)
    res = lanczos_lowest(block)
    assert res.iterations > 100 and len(calls) <= res.iterations / 3
    # the last test is the stopping step's, on the whole tridiagonal
    assert max(calls) == calls[-1] == res.iterations


def test_lowest_ritz_vectors_match_eigh_tridiagonal():
    # the stopping test's direct LAPACK calls give the bits of
    # eigh_tridiagonal(select="i"), on split tridiagonals and 1 x 1 too,
    # and refuse non-finite entries as its check_finite does
    rng = np.random.default_rng(11)
    for size in (1, 2, 3, 20, 130):
        for k in {1, min(3, size)}:
            d = rng.standard_normal(size)
            e = rng.standard_normal(size - 1)
            e[::7] = 0.0
            _, ref = scipy.linalg.eigh_tridiagonal(
                d, e, select="i", select_range=(0, k - 1)
            )
            assert spectra._lowest_ritz_vectors(d, e, k).tobytes() == ref.tobytes()
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            spectra._lowest_ritz_vectors(np.array([0.0, bad]), np.ones(1), 1)
        with pytest.raises(ValueError):
            spectra._lowest_ritz_vectors(np.zeros(2), np.array([bad]), 1)


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


def hard_spectrum(dim=1000, low=(-1.0, 0.0, 0.01)):
    # separated low levels below a bulk clustered at its lower edge: of
    # the default three, the lowest converges early and the third only
    # after about 270 steps
    u = np.linspace(0.0, 1.0, dim - len(low))
    levels = np.r_[low, 0.03 + 9.97 * u**2]
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
    # orthogonality calls for one, not at every iteration.  Partial
    # reorthogonalization is the single-vector (k = 1) iteration's; a
    # single low level 0.03 below the clustered bulk takes it about 200
    # iterations
    calls = []
    reorthogonalize = spectra._reorthogonalize

    def counted(rows, w, gram):
        calls.append(sum(map(len, rows)))
        return reorthogonalize(rows, w, gram)

    monkeypatch.setattr(spectra, "_reorthogonalize", counted)
    res = lanczos_lowest(hard_spectrum(low=(0.0,)), k=1)
    assert res.iterations >= 100
    assert 0 < len(calls) <= res.iterations // 5


def test_lanczos_rows_in_many_blocks_keep_values(monkeypatch):
    # a k = 1 run that fills blocks of four rows, about 50 of them here,
    # reaches the values of the run that needs only two blocks of 128,
    # on the Euclidean and on the Gram route
    op = hard_spectrum(low=(0.0,))
    hw = (17, 3, Anisotropy(0.5))
    ref = lanczos_lowest(op, k=1), hw_gram_lowest(*hw)
    with monkeypatch.context() as m:
        m.setattr(spectra, "LANCZOS_FIRST_ROWS", 4)
        blocked = lanczos_lowest(op, k=1), hw_gram_lowest(*hw)
    assert ref[0].iterations > spectra.LANCZOS_FIRST_ROWS
    assert ref[1].method == "gram-lanczos" and ref[1].iterations > 4
    for got, want in zip(blocked, ref):
        assert np.abs(got.values - want.values).max() <= 1e-12
        assert np.abs(got.vectors - want.vectors).max() <= 1e-9


def test_lanczos_allocates_one_block_of_rows_at_a_time(monkeypatch):
    # no k = 1 solve asks for more than LANCZOS_FIRST_ROWS Krylov rows at
    # once: a run past the first block allocates the next and copies none
    shapes = []
    empty = np.empty

    def spy(shape, *args, **kwargs):
        shapes.append(tuple(np.atleast_1d(shape)))
        return empty(shape, *args, **kwargs)

    def row_blocks(dim):
        blocks = [s for s in shapes if s[-1] == dim and len(s) == 2]
        assert all(math.prod(s) <= spectra.LANCZOS_FIRST_ROWS * dim for s in shapes)
        shapes.clear()
        return [rows for rows, _ in blocks]

    op = hard_spectrum(low=(0.0,))
    with monkeypatch.context() as m:
        m.setattr(np, "empty", spy)
        res = lanczos_lowest(op, k=1)
    assert res.iterations > spectra.LANCZOS_FIRST_ROWS
    assert row_blocks(op.dim) == [spectra.LANCZOS_FIRST_ROWS] * 2
    monkeypatch.setattr(spectra, "LANCZOS_FIRST_ROWS", 16)
    with monkeypatch.context() as m:
        m.setattr(np, "empty", spy)
        res = hw_gram_lowest(17, 3, Anisotropy(0.5))
    assert res.method == "gram-lanczos"
    assert row_blocks(544) == [16] * (res.iterations // 16 + 1)


def test_block_lanczos_stopping_test_schedule(monkeypatch):
    # the block iteration's stopping test runs at block steps 1 to 4 and
    # then at most a quarter of the steps so far after the last one, and
    # the run stops at a tested step; iterations count Krylov vectors
    sizes = []
    band_solve = scipy.linalg.eig_banded

    def recorded(band, **kwargs):
        sizes.append(band.shape[1])
        return band_solve(band, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eig_banded", recorded)
    op = hard_spectrum()
    res = lanczos_lowest(op, k=3)
    steps = [size // 3 for size in sizes]
    assert [size % 3 for size in sizes] == [0] * len(sizes)
    assert steps[:4] == [1, 2, 3, 4] and steps[-1] * 3 == res.iterations
    gaps = np.diff(steps)
    assert np.all((1 <= gaps) & (gaps <= np.maximum(1, np.array(steps[:-1]) // 4)))
    assert len(steps) < steps[-1] // 4
    ref = dense_spectrum(op, k=3)
    assert np.abs(res.values - ref.values).max() <= 1e-10 * op.rowsum_norm()
    assert np.abs(res.vectors.T @ res.vectors - np.eye(3)).max() <= 1e-13


def test_block_lanczos_repeats_bit_for_bit():
    op = random_symmetric(np.random.default_rng(17), 300)
    first, second = lanczos_lowest(op, k=4), lanczos_lowest(op, k=4)
    assert first.iterations == second.iterations
    for name in ("values", "vectors", "residuals"):
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes()


def test_block_lanczos_cap_counts_krylov_vectors(monkeypatch):
    # the cap is LANCZOS_MAXITER * k Krylov vectors; hitting it raises
    # with the best values and their bounds, as the k = 1 path does
    monkeypatch.setattr(spectra, "LANCZOS_MAXITER", 10)
    with pytest.raises(ConvergenceError) as info:
        lanczos_lowest(hard_spectrum(), k=3)
    err = info.value
    assert err.iterations == 30
    assert err.values.shape == err.bounds.shape == (3,)
    assert np.all(np.diff(err.values) >= 0.0)
    assert err.bounds.max() > spectra.LANCZOS_TOL * hard_spectrum().rowsum_norm()
    assert "best values" in str(err)


def test_block_lanczos_refuses_a_start():
    op = SparseOperator(sp.diags(np.arange(10.0), format="csr"), "symmetric")
    with pytest.raises(ValueError, match="k = 1"):
        lanczos_lowest(op, k=2, start=np.ones(10))


def test_dense_crossover_dimension():
    # lowest solves a symmetric operator densely up to dim 500 and by
    # Lanczos above it, for ground and excited levels alike; operators
    # that are not symmetric stay dense, so the memory guard refuses them
    # above 4000 instead of handing them to Lanczos
    assert (spectra.DENSE_CROSSOVER, spectra.DENSE_GUARD) == (500, 4000)
    for dim, method in ((500, "dense"), (501, "lanczos")):
        op = SparseOperator(sp.diags(np.arange(float(dim)), format="csr"), "symmetric")
        for k in (1, 2):
            res = lowest(op, k)
            assert res.method == method
            assert np.abs(res.values - np.arange(k)).max() <= 1e-9
    general = SparseOperator(sp.diags(np.arange(501.0), format="csr"), "general")
    assert lowest(general, 2).method == "dense"
    # kernels follow the crossover too, except that an n = 2 kernel,
    # whose excited levels crowd at the continuum edge, stays dense up
    # to the guard
    for n, n_max, method in ((3, 22, "dense"), (3, 23, "lanczos"), (2, 800, "dense")):
        kernel = build_reduced_kernel(n, 0.3, Anisotropy(0.5), n_max)
        assert kernel_lowest(kernel, 2).method == method
    too_big = SparseOperator(sp.identity(4001, format="csr"), "general")
    with pytest.raises(DimensionGuardError):
        lowest(too_big, 1)


BLOCK_KS = (2, 4, 6)


def assert_lowest_matches_dense(op, crossover):
    # every level the dense solve finds, degenerate copies and levels odd
    # under the operator's symmetries included
    crossover(0)
    for k in BLOCK_KS:
        res = lowest(op, k)
        ref = dense_spectrum(op, k)
        assert res.method == "lanczos"
        assert res.values.shape == ref.values.shape
        assert np.abs(res.values - ref.values).max() <= 1e-9, (op.dim, k)


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
def test_lowest_excited_levels_match_dense(crossover, bc):
    # with the crossover at 0 every excited-level solve is a block
    # Lanczos solve; L = 12, n = 4 already held levels that a single
    # all-ones start misses
    for L in range(1, 13):
        for n in range(L + 1):
            op, _ = build_sector_hamiltonian(L, n, bc, Anisotropy(0.5))
            assert_lowest_matches_dense(op, crossover)


def test_momentum_block_excited_levels_match_dense(crossover):
    for L in range(2, 13, 2):
        for n in range(L + 1):
            for k in (0, L // 2):
                op = build_momentum_block(L, n, k, Anisotropy(0.5))
                if op.dim:  # a block with no admissible orbit is empty
                    assert_lowest_matches_dense(op, crossover)


@pytest.mark.parametrize("n, n_max", [(3, 20), (4, 8)])
@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_kernel_excited_levels_match_dense(crossover, n, n_max, theta):
    # through kernel_lowest (its CSR matrix) and on the matrix-free
    # kernel, which the block iteration applies to k columns at once
    kernel = build_reduced_kernel(n, theta, Anisotropy(0.5), n_max)
    ref = scipy.linalg.eigvalsh(
        kernel.to_csr().to_dense(), subset_by_index=[0, max(BLOCK_KS) - 1]
    )
    crossover(0)
    for k in BLOCK_KS:
        for res in (kernel_lowest(kernel, k), lanczos_lowest(kernel, k)):
            assert res.method == "lanczos"
            assert np.abs(res.values - ref[:k]).max() <= 1e-9
            assert res.residuals.max() <= 1e-9 * kernel.rowsum_norm()


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
def test_lowest_lanczos_residual_within_tolerance(crossover, bc):
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
                crossover(spectra.DENSE_GUARD)
                ref = lowest(op, 1).values[0]
            crossover(1)
            res = lowest(op, 1)
            assert res.residuals[0] <= spectra.LANCZOS_TOL * solved.rowsum_norm()
            assert abs(res.values[0] - ref) <= 1e-12, (L, n)


@pytest.mark.parametrize("n, n_max", [(3, 30), (4, 10)])
@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_kernel_lanczos_residual_within_tolerance(crossover, n, n_max, theta):
    kernel = build_reduced_kernel(n, theta, Anisotropy(0.5), n_max)
    ref = scipy.linalg.eigvalsh(kernel.to_csr().to_dense(), subset_by_index=[0, 0])
    crossover(1)
    res = kernel_lowest(kernel, 1)
    assert res.method == "lanczos"
    assert res.residuals[0] <= spectra.LANCZOS_TOL * kernel.rowsum_norm()
    assert abs(res.values[0] - ref[0]) <= 1e-12


@pytest.mark.parametrize(
    "n, n_max, method", [(3, 30, "dense"), (4, 10, "dense"), (3, 64, "lanczos")]
)
def test_kernel_lowest_even_block(crossover, n, n_max, method):
    # the solver follows the full kernel's dimension (4096 > DENSE_GUARD
    # goes to Lanczos although its block is only 2080); q = 0.8 keeps
    # the far tail of the ground state above rounding, so its sign shows.
    # The crossover is held at the guard, so that kernels of dim 900 and
    # 1000 take the dense route on their even blocks
    crossover(spectra.DENSE_GUARD)
    kernel = build_reduced_kernel(n, 0.0, Anisotropy(0.8), n_max)
    res = kernel_lowest(kernel, 1)
    # without its mirror, lowest solves the full kernel
    full = lowest(SparseOperator(kernel.to_csr().matrix, "symmetric"), 1)
    assert res.method == full.method == method
    assert abs(res.values[0] - full.values[0]) < 1e-12
    v = res.vectors[:, 0] * np.sign(res.vectors[:, 0].sum())
    assert v.min() > 0.0
    assert_reversal_symmetric(v, kernel)
    # the column norm, as the solver takes it, so the bits can match
    col = v[:, None]
    resid = np.linalg.norm(kernel.to_csr().matrix @ col - res.values[0] * col, axis=0)[0]
    assert res.residuals[0] == resid and resid < 1e-8
    if method == "lanczos":
        # at q = 0.8 the box cuts the droplet's tail, so the Bethe start
        # fails its one-product test and Lanczos runs from it on the
        # full kernel: the same run as on the CSR matrix from the same
        # start, bit for bit, up to the even part taken of the Ritz vector
        op = kernel.to_csr()
        pair = spectra._droplet_pair(kernel)
        assert pair.residuals[0] > spectra.LANCZOS_TOL * op.rowsum_norm()
        ref = lanczos_lowest(op, k=1, start=pair.vectors[:, 0])
        assert res.iterations == ref.iterations > 1
        assert np.array_equal(res.values, ref.values)
        assert np.array_equal(res.vectors, even_part(ref.vectors, kernel))
        # Lanczos normalizes that normalized start again, so the run
        # differs from one on the unnormalized even vector in the last
        # bits only (7e-17 in the value)
        f = bethe_vector(xi_factors(0.8, n, 0.0), n_max)
        once = lanczos_lowest(op, k=1, start=(f + kernel.reverse(f)) / 2.0)
        assert once.iterations == ref.iterations
        assert abs(once.values[0] - ref.values[0]) <= 1e-15


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
    # the cases whose half box is above DENSE_GUARD, where the half-box
    # ladder used to climb at least one rung; at theta = 0 the run now
    # starts from the Bethe droplet vector instead.  At q = 0.5 the far
    # corner of the ground state lies below rounding (cold runs too end
    # near -1e-10 there), so positivity is checked to 1e-8, the
    # eigenvector accuracy a 1e-10 residual allows
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
    if res.iterations == 1:
        # a settled Bethe pair sums its residual's squares slab by slab,
        # so it is the full column norm up to the order of the sum
        assert abs(res.residuals[0] - resid[0]) <= 1e-12 * resid[0]
    else:
        assert np.array_equal(res.residuals, resid)
    assert resid[0] < 1e-8


def count_products(monkeypatch):
    """List of the dimension of every operator product a solve takes.

    Those are the kernel's ``product`` calls, from any module (``kernel
    @ x`` goes through it), and the ``@`` of a square CSR matrix called
    from ``spectra``: the products of the operator being solved.  The
    Gram route's G, a lift to the full rows and the chain H whose
    residual ``hw_gram_lowest`` takes are not counted.
    """
    products = []
    product, matmul = ReducedKernel.product, sp.csr_matrix.__matmul__

    def kernel_product(self, x, out):
        products.append(self.dim)
        return product(self, x, out)

    def csr_product(self, x):
        caller = sys._getframe(1).f_globals["__name__"]
        if self.shape[0] == self.shape[1] and caller == spectra.__name__:
            products.append(self.shape[0])
        return matmul(self, x)

    monkeypatch.setattr(ReducedKernel, "product", kernel_product)
    monkeypatch.setattr(sp.csr_matrix, "__matmul__", csr_product)
    return products


def test_kernel_lowest_bethe_start_takes_one_product(monkeypatch):
    # n = 3, n_max = 200, q = 0.5 (dim 40,000): the Bethe start is the
    # ground state to rounding, so Lanczos from it would close its
    # Krylov space at step 0, restart on the complement and hit its cap.
    # The start's one-product test returns it as a one-step pair instead
    q, n, n_max = 0.5, 3, 200
    kernel = build_reduced_kernel(n, 0.0, Anisotropy(q), n_max)
    products = count_products(monkeypatch)
    res = kernel_lowest(kernel, 1)
    assert products == [kernel.dim]
    assert res.method == "lanczos" and res.iterations == 1
    assert abs(res.values[0] - bethe_energy(q, n, 0.0)) <= 1e-14
    assert res.residuals[0] <= spectra.LANCZOS_TOL * kernel.rowsum_norm()
    # the test's residual is the pair's: reading it takes no product
    assert products == [kernel.dim]


def count_bethe_vectors(monkeypatch):
    """List of the n_max of every Bethe vector built, f or its even part.

    ``certify_eigenpair`` builds f (``bethe_vector``) and the theta = 0
    pair its even part (``even_bethe_vector``, which for n <= 2 is f and
    would count twice).
    """
    calls = []

    def counting(build):
        def spy(sol, n_max):
            calls.append(n_max)
            return build(sol, n_max)

        return spy

    monkeypatch.setattr(bethe, "bethe_vector", counting(bethe.bethe_vector))
    monkeypatch.setattr(
        spectra, "even_bethe_vector", counting(spectra.even_bethe_vector)
    )
    return calls


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("n, n_max", [(3, 70), (4, 17), (5, 9)])
def test_dispersion_shares_the_bethe_point(monkeypatch, n, n_max, q):
    # a Bethe-route theta = 0 point (dims 4,900 to 6,561, matrix-free)
    # builds the Bethe vector once and applies the kernel to it once: the
    # kernel row and the closed-form certificate both come from that
    # product.  The start passes its test at n = 3 for q = 0.3 and 0.5
    # and goes on to Lanczos everywhere else, whose steps (and the even
    # part's residual) are the only products added: the point takes the
    # products of kernel_lowest alone with its residual read, and the
    # certificate none.  The kernel row is kernel_lowest's alone, bit for
    # bit; the certificate, taken on the even, normalized vector, is
    # certify_eigenpair's on f to rounding
    kernel = build_reduced_kernel(n, 0.0, Anisotropy(q), n_max)
    products = count_products(monkeypatch)
    built = count_bethe_vectors(monkeypatch)
    row = {r.method: r for r in dispersion_records(n, q, 1, n_max)}
    assert built == [n_max]
    shared = products[:]
    products.clear()
    res = kernel_lowest(kernel, 1)
    res.residuals
    assert shared == products
    assert shared[0] == kernel.dim
    if res.iterations == 1:
        assert shared == [kernel.dim]
    assert row["kernel-lanczos"].energy == res.values[0]
    assert row["kernel-lanczos"].residual == res.residuals[0]
    own = certify_eigenpair(xi_factors(q, n, 0.0), kernel)
    assert row["closed-form"].energy == own.energy == res.certificate.energy
    assert res.certificate.passed == own.passed
    assert row["closed-form"].residual == res.certificate.global_residual
    assert abs(res.certificate.global_residual - own.global_residual) <= max(
        1e-12 * own.global_residual, 1e-15
    )


def test_kernel_lowest_lets_a_failed_start_go(monkeypatch):
    # n = 3, n_max = 64, q = 0.8 (dim 4,096, matrix-free): the Bethe
    # start fails its one-product test and goes to Lanczos, which copies
    # it into row 0.  kernel_lowest keeps no reference to it, so it is
    # freed before Lanczos's first product
    kernel = build_reduced_kernel(3, 0.0, Anisotropy(0.8), 64)
    refs, alive = [], []
    pair = spectra._droplet_pair

    def spy_pair(kernel):
        res = pair(kernel)
        owner = res.vectors
        while owner.base is not None:
            owner = owner.base
        refs.append(weakref.ref(owner))
        return res

    product = ReducedKernel.product

    def spy(self, x, out):
        if refs:
            alive.append(refs[0]() is not None)
        return product(self, x, out)

    monkeypatch.setattr(spectra, "_droplet_pair", spy_pair)
    monkeypatch.setattr(ReducedKernel, "product", spy)
    res = kernel_lowest(kernel, 1)
    assert res.iterations > 1
    assert len(alive) == res.iterations and not any(alive)


def test_kernel_lowest_isotropic_start_is_all_ones():
    # at q = 1 there is no Bethe vector: its q -> 1 limit, all-ones,
    # would fail the one-product test (the far faces lose hops), so the
    # solve is the cold all-ones run, bit for bit up to the even part,
    # and there is no certificate
    kernel = build_reduced_kernel(3, 0.0, Anisotropy(1.0), 40)
    res = kernel_lowest(kernel, 1)
    cold = lanczos_lowest(kernel.to_csr(), k=1)
    assert res.iterations == cold.iterations > 1
    assert np.array_equal(res.values, cold.values)
    assert np.array_equal(res.vectors, even_part(cold.vectors, kernel))
    assert res.certificate is None


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("n, n_max", [(3, 40), (3, 80), (4, 12), (4, 22), (5, 7), (5, 11)])
def test_kernel_lowest_bethe_start_grid(crossover, monkeypatch, n, n_max, q):
    # the theta = 0 ground state from the Bethe start (dims 1,600 to
    # 14,641, on the CSR matrix up to DENSE_GUARD and matrix-free above
    # it) is the cold even-block run's, positive and exactly even, and
    # takes no more operator products than that run, the start's test
    # included.  The crossover is held at 1, so every size takes the
    # Lanczos route whatever DENSE_CROSSOVER is
    crossover(1)
    kernel = build_reduced_kernel(n, 0.0, Anisotropy(q), n_max)
    products = count_products(monkeypatch)
    res = kernel_lowest(kernel, 1)
    seeded = len(products)
    block, _ = even_block(kernel.to_csr(), reversal(n, n_max))
    products.clear()
    cold = lanczos_lowest(block, k=1)
    assert res.method == "lanczos"
    assert abs(res.values[0] - cold.values[0]) <= 1e-12
    assert seeded <= len(products)
    v = res.vectors[:, 0] * np.sign(res.vectors[:, 0].sum())
    assert v.min() > -1e-8
    assert_reversal_symmetric(v, kernel)


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
def test_even_lowest_sector_ground_state(crossover, bc, L, method):
    # lowest solves the ground state of a sector that carries a mirror
    # on its even block.  n = 5: dim 3,003 (dense, block 1,512) and
    # 4,368 (Lanczos, block 2,184, which is below DENSE_GUARD itself),
    # with the crossover held at the guard; the reference is the
    # full-sector Lanczos ground state
    crossover(spectra.DENSE_GUARD)
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


@pytest.mark.parametrize("q, renders", [(0.5, 0), (0.8, 1)])
def test_kernel_lowest_renders_csr_only_for_lanczos(monkeypatch, q, renders):
    # n = 3, n_max = 63 (dim 3,969, between DENSE_CROSSOVER and
    # DENSE_GUARD): the Bethe pair is taken on the stencil and its test
    # scaled by the stencil's row-sum norm, which is the CSR one bit for
    # bit at theta = 0.  At q = 0.5 the pair settles and no CSR matrix is
    # rendered; at q = 0.8 the box cuts the droplet's tail, the start
    # fails its test, and Lanczos runs on the CSR matrix, rendered once
    kernel = build_reduced_kernel(3, 0.0, Anisotropy(q), 63)
    rendered = []
    to_csr = ReducedKernel.to_csr

    def spy(self):
        rendered.append(self.dim)
        return to_csr(self)

    monkeypatch.setattr(ReducedKernel, "to_csr", spy)
    res = kernel_lowest(kernel, 1)
    assert rendered == [kernel.dim] * renders
    assert (res.iterations == 1) == (renders == 0)
    assert kernel.rowsum_norm() == to_csr(kernel).rowsum_norm()


def refuse_csr(kernel):
    raise AssertionError(f"CSR of a dim {kernel.dim} kernel")


def test_kernel_lowest_runs_without_csr(monkeypatch):
    # the Lanczos route, the start's one-product test and certification
    # included, never assembles a matrix, and it is the CSR route from the
    # same start bit for bit: at q = 0.5 the Bethe start of n = 3, n_max
    # = 70 and n = 4, n_max = 40 passes the test, and that of n = 4,
    # n_max = 22 goes on to Lanczos
    kernels = [
        build_reduced_kernel(3, 0.0, Anisotropy(0.5), 70),
        build_reduced_kernel(4, 0.0, Anisotropy(0.5), 40),
        build_reduced_kernel(4, 0.0, Anisotropy(0.5), 22),
    ]
    monkeypatch.setattr(ReducedKernel, "to_csr", refuse_csr)
    records = dispersion_records(4, 0.5, 1, 40)
    results = [kernel_lowest(kernel, 1) for kernel in kernels]
    monkeypatch.undo()
    row = next(r for r in records if r.method == "kernel-lanczos")
    assert (row.energy, row.residual) == (
        results[1].values[0], results[1].residuals[0]
    )
    settled = []
    for kernel, res in zip(kernels, results):
        op = kernel.to_csr()
        ref = spectra._droplet_pair(kernel)
        settled.append(ref.residuals[0] <= spectra.LANCZOS_TOL * op.rowsum_norm())
        if not settled[-1]:
            ref = lanczos_lowest(op, k=1, start=ref.vectors[:, 0])
            ref.vectors = even_part(ref.vectors, kernel)
        assert res.method == ref.method == "lanczos"
        assert res.iterations == ref.iterations
        assert np.array_equal(res.values, ref.values)
        assert np.array_equal(res.vectors, ref.vectors)
        resid = np.linalg.norm(
            op.matrix @ res.vectors - res.vectors * res.values, axis=0
        )
        assert np.array_equal(res.residuals, resid)
        # the even part's residual is no larger, up to rounding
        assert resid[0] <= ref.residuals[0] + 1e-15
    assert settled == [True, True, False]


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
    # build of this kernel traces about 258 MiB.  A Bethe-route theta = 0
    # dispersion point (n = 4, n_max = 60, dim 216,000) holds two box
    # vectors besides the uint8 diagonal, the even Bethe vector and its
    # product, in which the certificate is taken too, and at most two
    # slabs: the product's term scratch, then the residual's and the
    # certificate's scratch
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

    dim = 60**3
    tracemalloc.start()
    try:
        records = dispersion_records(n, q, 1, 60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert {r.method for r in records} >= {"closed-form", "kernel-lanczos"}
    assert peak <= 2 * 8 * dim + dim + 2 * SLAB_BYTES + 64 * 2**10


def test_certify_eigenpair_memory_off_zone_center():
    # standalone certification at theta = pi/8 (n = 4, n_max = 60, dim
    # 216,000) holds three box vectors besides the uint8 diagonal: w, its
    # product and R w, which the Im K part reads (the complex f that w
    # is made from is two), and at most two slabs, the product's term
    # scratch and Im K part
    q, n, n_max, theta = 0.5, 4, 60, math.pi / 8
    dim = n_max ** (n - 1)
    tracemalloc.start()
    try:
        kernel = build_reduced_kernel(n, theta, Anisotropy(q), n_max)
        report = certify_eigenpair(xi_factors(q, n, theta), kernel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 3 * 8 * dim + dim + 2 * SLAB_BYTES + 64 * 2**10


@pytest.mark.parametrize("n_max, q", [(22, 0.5), (30, 0.9)])
@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_kernel_solve_memory_above_its_rows(monkeypatch, n_max, q, theta):
    # a matrix-free k = 1 solve (n = 4, dims 10,648 and 27,000) peaks
    # within four box vectors and the uint8 diagonal above its Krylov
    # row blocks, and reading its residual within four above what the
    # solve left (measured: 4.19 and 4.03 at most).  Each product
    # allocates its result and a slab-sized term scratch, and at theta
    # != 0 R x and a slab-sized Im K part; these boxes are one slab.  At
    # theta = 0 the Bethe start fails its test at these boxes, so both
    # kinds of run take a Lanczos run, one of 31 to 173 steps; at theta
    # = 0.3 the half boxes lie below DENSE_GUARD, so the runs start cold
    row_bytes = []

    class Rows(spectra._KrylovRows):
        def __getitem__(self, i):
            blocks = len(self.blocks)
            row = super().__getitem__(i)
            if len(self.blocks) > blocks:
                row_bytes.append(self.blocks[-1].nbytes)
            return row

    monkeypatch.setattr(spectra, "_KrylovRows", Rows)
    kernel = build_reduced_kernel(4, theta, Anisotropy(q), n_max)
    box = 8 * kernel.dim
    tracemalloc.start()
    try:
        res = kernel_lowest(kernel, 1)
        _, solve = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        res.residuals
        _, read = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.method == "lanczos" and res.iterations > 1
    assert len(kernel.slabs()) == 1
    assert row_bytes
    assert solve - sum(row_bytes) <= 4 * box + kernel.dim + 64 * 2**10
    assert read - before <= 4 * box + 64 * 2**10


def test_discarded_residuals_take_no_product(monkeypatch):
    # a caller that replaces the vectors and assigns its own residuals
    # pays one operator product per iteration and none for the residual
    # it drops: kernel_lowest at theta = 0 (the Bethe start's test takes
    # one more), hw_gram_lowest (H's residual replaces the G-norm one)
    # and lowest on an even block.  Read, a residual costs one product.
    # A Bethe start that passes its test (n_max = 40) is the answer, and
    # the test's residual is its residual: one product in all
    products = count_products(monkeypatch)
    a = Anisotropy(0.5)
    kernel = build_reduced_kernel(4, 0.0, a, 22)
    products.clear()
    res = kernel_lowest(kernel, 1)
    assert res.iterations > 1
    assert products == [kernel.dim] * (1 + res.iterations)
    res.residuals
    assert products == [kernel.dim] * (2 + res.iterations)

    kernel = build_reduced_kernel(4, 0.0, a, 40)
    products.clear()
    res = kernel_lowest(kernel, 1)
    res.residuals
    assert res.iterations == 1 and products == [kernel.dim]

    products.clear()
    res = hw_gram_lowest(17, 3, a)
    assert res.method == "gram-lanczos" and products == [544] * res.iterations

    op, _ = build_sector_hamiltonian(16, 5, BoundaryCondition.open(), a)
    block, _ = even_block(op, op.mirror)
    products.clear()
    res = lowest(op, 1)
    assert res.method == "lanczos" and products == [block.dim] * res.iterations
    res.residuals
    assert products[-1] == op.dim and len(products) == res.iterations + 1


def test_eigen_result_residuals_on_first_read():
    calls = []

    def residuals():
        calls.append(1)
        return np.array([0.5])

    res = spectra.EigenResult(np.zeros(1), None, residuals, "lanczos")
    assert calls == []
    assert res.residuals[0] == res.residuals[0] == 0.5 and calls == [1]
    res = spectra.EigenResult(np.zeros(1), None, residuals, "lanczos")
    res.residuals = np.array([0.25])
    assert res.residuals[0] == 0.25 and calls == [1]


def test_lazy_residuals_have_the_eager_bits():
    # each solver's residual, read on demand, has the bits of the
    # expression it took eagerly before: |A v - theta v| per column, a
    # G-norm on the Gram route
    a = Anisotropy(0.5)
    kernel = build_reduced_kernel(3, 0.0, a, 30)
    sector, _ = build_sector_hamiltonian(12, 4, BoundaryCondition.kink(), a)
    hw_op, _ = build_hw_matrix(12, 4, a)
    rmap, _, _ = build_R(12, 4, a)
    r = rmap.matrix
    gram = (r.T @ r).tocsr()

    def eager(op, res, gram=None):
        x = op.matrix @ res.vectors - res.vectors * res.values
        if gram is None:
            return np.linalg.norm(x, axis=0)
        return np.sqrt(np.add.reduce(x * (gram @ x), axis=0))

    cases = [
        (kernel, lanczos_lowest(kernel, k=1), None),
        (kernel, lanczos_lowest(kernel, k=2), None),
        (sector, lanczos_lowest(sector, k=1), None),
        (sector, lanczos_lowest(sector, k=3), None),
        (hw_op, lanczos_lowest(hw_op, k=1, gram=gram), gram),
        (hw_op, lanczos_lowest(hw_op, k=2, gram=gram), gram),
    ]
    for op, res, g in cases:
        assert res.residuals.tobytes() == eager(op, res, g).tobytes()
    csr = kernel.to_csr()
    res = dense_spectrum(csr, 3)
    want = np.linalg.norm(csr.to_dense() @ res.vectors - res.vectors * res.values, axis=0)
    assert res.residuals.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "n, theta, k", [(1, 0.0, 1), (2, 0.0, 1), (3, 0.3, 1), (3, 0.0, 2)]
)
def test_kernel_lowest_full_kernel_cases(n, theta, k):
    # n <= 2 (reversal is the identity), theta != 0 below DENSE_CROSSOVER
    # and excited levels keep the full-kernel solve bit for bit
    kernel = build_reduced_kernel(n, theta, Anisotropy(0.5), 20)
    res = kernel_lowest(kernel, k)
    ref = lowest(kernel.to_csr(), k)
    assert res.method == ref.method
    assert np.array_equal(res.values, ref.values)
    assert np.array_equal(res.residuals, ref.residuals)


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
