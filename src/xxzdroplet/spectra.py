"""Eigensolvers and spectral checks shared by the scan drivers.

Dense paths go through LAPACK, compute only the requested levels, and
refuse dimensions above DENSE_GUARD, a memory guard checked before
anything dense is formed.  ``lowest`` is the one dispatch between them
and Lanczos: a symmetric operator above DENSE_CROSSOVER, the measured
dimension where Lanczos becomes the faster solver, goes to Lanczos, and
every other operator is solved densely.  Every operator is real: the
droplet kernel and the ring momentum blocks are held in real symmetric
form.

The Lanczos iteration takes symmetric operators.  For the lowest level
alone (k = 1) it is single-vector Lanczos with partial
reorthogonalization: Simon's recurrence estimates, from the alphas and
betas alone, how far each new Krylov vector has drifted from every
earlier one, and two Gram-Schmidt passes against all rows run only at a
block's first step, at each step where that estimate reaches
LANCZOS_TOL, and at the step after each such one.  It has a
deterministic start (all-ones unless the caller passes one) and
fixed-seed restart directions, so repeated runs are bit-identical; it
runs at any dimension, small ones included.  Its stopping test solves
only for the lowest Ritz pair, calling LAPACK's bisection and inverse
iteration (stebz, stein) directly, and runs only where the run can
stop: at a block's first steps, then on the block path's schedule
(``_next_test``), and, when a test passes, the space closes or the
cap is reached, replayed from the stored alphas and betas at every
step it skipped, so the run stops at the first step whose test passes,
as a test at every step would.  The full tridiagonal problem is solved
once, at exit, where the Ritz vectors are normalized; a Krylov space
that closes counts as converged only once the block restarted after it
has converged too.  Its Krylov rows, row
j written at iteration j, are held in blocks of LANCZOS_FIRST_ROWS
rows (``_KrylovRows``): most runs never leave the first, a longer run
allocates the next when one fills, and no row is ever copied, so a
run holds at most one block beyond the rows it has entered.  The full
Gram-Schmidt passes, restart directions and the exit Ritz vectors work
block by block; a run inside the first block does the arithmetic of a
single array.  Every solver applies an operator as ``op.matrix @ x``
into a fresh array, and a k = 1 run lets its rows go once the Ritz
vector is formed.  For k > 1 levels it is block Lanczos of width
k from a seeded random orthonormal start block, with two full
Gram-Schmidt passes at every block step, because one start vector
reaches only one copy of a degenerate level and none of the levels
orthogonal to it; its cap counts Krylov vectors, LANCZOS_MAXITER * k.
Its basis is one array of LANCZOS_FIRST_ROWS + k rows, and a longer
run moves once into the cap's.  Both report a diagnostic error rather
than returning an unconverged value silently.  Tolerances and
iteration caps are module constants, not call options.  Both also run
in the inner product <x, y> = x^T G y of an optional Gram operator G,
for an operator that is self-adjoint there but not symmetric (the kink
chain's bracket-basis matrix, ``brackets.hw_gram_lowest``).  Lanczos
and the dense spectrum give their residuals as a function that
``EigenResult`` calls on their first read, so a caller that replaces
the vectors and assigns its own residuals (the even-block and
reversal-even ground states, the Gram route's sector residual), or
never reads them (a ladder rung), takes no product for them.
``kernel_lowest`` runs Lanczos on the matrix-free droplet
kernel.  At theta = 0 it starts the ground state from the Bethe droplet
vector, the kernel's positive Perron-Frobenius ground state up to the
box's cut of its tail, and returns that vector after one product when
it already passes the stopping test; the same product gives the
vector's closed-form certificate.  At theta != 0 it starts from the
zero-padded ground state of the half-size truncation, which it solves
the same way, once that half box is above DENSE_GUARD.  Kernels up to
DENSE_GUARD are rendered once as CSR (``ReducedKernel.to_csr``) and
solved densely up to the crossover (n <= 2 kernels up to the guard),
by Lanczos above it; a theta = 0 point whose Bethe start settles is
never rendered.  ``kernel_mirrored`` carries the eigenpairs of
the kernel at theta over to the kernel at -theta through the gap
reversal.
An operator whose ground state is even under an index involution
carries it as its ``mirror`` (the theta = 0 kernel under gap reversal;
open, droplet and cyclic sectors under site reflection), and
``lowest`` solves that ground state on the even block
(``operators.even_block``), about half the dimension, with the solver
the full dimension picks, taking the residual on the full operator.

pf_check certifies a positive eigenvector: a nonnegative kernel with a
strictly positive eigenvector has that eigenvalue as its spectral
radius, which is confirmed against deterministic power iteration.
wielandt_check certifies domination: any entrywise-dominated restriction
of a nonnegative kernel has a spectral radius no larger than the full
kernel's.  fit_limit extrapolates a converging energy sequence with
the iterated Aitken delta-squared table, returns the limit and its
residual, and never extrapolates above the monotone bound.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bethe import (
    CertificationReport,
    _certify_product,
    even_bethe_vector,
    xi_factors,
)
from .operators import (
    ReducedKernel,
    SparseOperator,
    build_reduced_kernel,
    even_block,
)
from .sector_basis import DimensionGuardError

DENSE_GUARD = 4000  # dense LAPACK paths refuse larger dimensions
DENSE_CROSSOVER = 500  # lowest: symmetric operators above this go to Lanczos
IMAG_PART_TOL = 1e-9  # dense_spectrum warns above this relative imaginary part
LANCZOS_TOL = 1e-10  # Ritz residual bound, relative to the row-sum norm
LANCZOS_MAXITER = 300
LANCZOS_FIRST_ROWS = 128  # Krylov rows per allocation (k = 1: per block)
POWER_TOL = 1e-12  # relative settling of the power-iteration estimate
POWER_MAXITER = 200_000
PF_RESIDUAL_TOL = 1e-10  # pf_check: relative eigenpair residual
PF_GAP_TOL = 1e-8  # pf_check: relative gap between radius and eigenvalue
WIELANDT_TOL = 1e-10  # wielandt_check: relative slack of rho(J) <= rho(K)


class ConvergenceError(RuntimeError):
    """Iterative solver hit its cap; carries the best estimates."""

    def __init__(self, message, values=None, bounds=None, iterations=None):
        super().__init__(message)
        self.values = values
        self.bounds = bounds
        self.iterations = iterations


class EigenResult:
    """Eigenpairs from a solver: values, vectors as columns, residuals.

    ``residuals`` is given as the array or as a function of no arguments
    that returns it, called on the first read of ``residuals``, so a
    caller that assigns its own, or never reads them, does not pay for
    the product they take.  ``certificate`` is the closed-form
    certificate of the Bethe vector that a theta = 0 droplet-kernel
    ground state was started from (``kernel_lowest``), or None.
    """

    def __init__(
        self,
        values: np.ndarray,
        vectors: np.ndarray | None,
        residuals: np.ndarray | Callable[[], np.ndarray] | None,
        method: str,
        iterations: int | None = None,
        certificate: CertificationReport | None = None,
    ):
        self.values, self.vectors = values, vectors
        self.residuals = residuals
        self.method, self.iterations = method, iterations
        self.certificate = certificate

    @property
    def residuals(self) -> np.ndarray | None:
        if callable(self._residuals):
            self._residuals = self._residuals()
        return self._residuals

    @residuals.setter
    def residuals(self, residuals) -> None:
        self._residuals = residuals


def check_dense_dim(dim: int, path: str) -> None:
    """Raise DimensionGuardError before a dense path of size dim is formed."""
    if dim > DENSE_GUARD:
        raise DimensionGuardError(f"{path} path refuses dim {dim} > {DENSE_GUARD}")


def dense_spectrum(op: SparseOperator, k: int) -> EigenResult:
    """Dense spectrum, ascending: the k lowest eigenpairs and residuals,
    the latter taken on their first read.

    The operator is densified with ``to_dense()``.  Symmetric operators
    use eigh, which computes only the k lowest levels.  General
    operators use eig; eigenvalues are expected real here (bracket-basis
    matrices are similar to symmetric ones), so imaginary parts beyond
    IMAG_PART_TOL raise a warning before being dropped.
    """
    check_dense_dim(op.dim, "dense")
    dense = op.to_dense()
    if op.symmetry == "symmetric":
        subset = [0, min(k, op.dim) - 1]
        values, vectors = scipy.linalg.eigh(dense, subset_by_index=subset)
    else:
        values, vectors = np.linalg.eig(dense)
        scale = max(1.0, float(np.abs(values).max(initial=0.0)))
        worst = float(np.abs(values.imag).max(initial=0.0))
        if worst > IMAG_PART_TOL * scale:
            warnings.warn(
                f"dropping imaginary parts up to {worst:g} from a "
                "general spectrum",
                stacklevel=2,
            )
        order = np.argsort(values.real, kind="stable")
        values = values.real[order]
        vectors = vectors[:, order].real
    values = values[:k]
    vectors = vectors[:, :k]
    return EigenResult(
        values=np.asarray(values, dtype=float),
        vectors=vectors,
        residuals=lambda: np.linalg.norm(dense @ vectors - vectors * values, axis=0),
        method="dense",
    )


def _times(gram, x: np.ndarray) -> np.ndarray:
    """G applied to each row of x (or to the vector x); x itself without G."""
    return x if gram is None else (gram @ x.T).T


def _norm(x: np.ndarray, gram):
    """G-norm of the vector x, or of each column of x; Euclidean without G."""
    if gram is None:
        return np.linalg.norm(x, axis=0 if x.ndim == 2 else None)
    return np.sqrt(np.add.reduce(x * (gram @ x), axis=0))


def _residual_norms(op, vectors: np.ndarray, values: np.ndarray, gram=None):
    """|A v - theta v| of each column v of vectors (its G-norm with G)."""
    return _norm(op.matrix @ vectors - vectors * values, gram)


def _reorthogonalize(rows, w: np.ndarray, gram=None) -> np.ndarray:
    # two classical Gram-Schmidt passes against every row, in the G inner
    # product, in place on w, which is returned; rows is a list of blocks
    # of rows
    for _ in range(2):
        gw = _times(gram, w)
        coeffs = [block.dot(gw) for block in rows]
        for block, c in zip(rows, coeffs):
            w -= np.dot(c, block)
    return w


class _KrylovRows:
    """Krylov rows in blocks of at most LANCZOS_FIRST_ROWS rows.

    Row i lives in block i // size.  A block is allocated when the first
    of its rows is written, so a run holds no more than one block beyond
    the rows it has entered, and no row is ever copied.
    """

    def __init__(self, count: int, dim: int):
        self.size = min(count, LANCZOS_FIRST_ROWS)
        self.count, self.dim = count, dim
        self.blocks: list[np.ndarray] = []

    def __getitem__(self, i: int) -> np.ndarray:
        b, r = divmod(i, self.size)
        if b == len(self.blocks):
            rows = min(self.size, self.count - b * self.size)
            self.blocks.append(np.empty((rows, self.dim)))
        return self.blocks[b][r]

    def __setitem__(self, i: int, row: np.ndarray) -> None:
        self[i][...] = row

    def head(self, m: int) -> list[np.ndarray]:
        """Rows 0..m-1, as views of the blocks that hold them."""
        return [
            block[: m - b * self.size]
            for b, block in enumerate(self.blocks)
            if b * self.size < m
        ]

    def combine(self, coeffs: np.ndarray) -> np.ndarray:
        """coeffs.T times the first len(coeffs) rows, one block at a time:
        a (k, dim) array for k columns of coeffs."""
        out = None
        for b, block in enumerate(self.head(len(coeffs))):
            part = coeffs[b * self.size : b * self.size + len(block)].T
            if out is None:
                out = part @ block
            else:
                out += part @ block
        return out


def _orthogonality_estimate(alphas, betas, omega, omega_prev, noise):
    """beta_{j+1} times Simon's estimate of v_{j+1} . v_i for every i < j.

    alphas holds rows 0..j and betas the j couplings before row j.
    omega and omega_prev estimate v_j . v_i and v_{j-1} . v_i (each ends
    in its own row's 1).  The recurrence is the three-term Lanczos
    relation of row j taken against each earlier row and of each earlier
    row taken against row j; noise[i] bounds what rounding (or a closing
    row's dropped remainder) adds, with the sign that makes it grow.
    """
    j = len(alphas) - 1
    est = betas * omega[1:] + (alphas[:j] - alphas[j]) * omega[:j]
    est -= betas[j - 1] * omega_prev
    est[1:] += betas[:-1] * omega[: j - 1]
    est += np.copysign(noise, est)
    return est


def _restart_direction(rows, attempt: int, gram=None) -> np.ndarray:
    # deterministic replacement direction when the Krylov space closes;
    # the rows are only semi-orthogonal, so both passes are needed
    rng = np.random.default_rng(900_000_000 + attempt)
    v = _reorthogonalize(rows, rng.standard_normal(rows[0].shape[1]), gram)
    norm = _norm(v, gram)
    if norm == 0.0:
        raise ConvergenceError("could not generate a restart direction")
    return v / norm


# LAPACK's bisection and inverse iteration, fetched once for the
# per-iteration stopping test
_STEBZ, _STEIN = scipy.linalg.get_lapack_funcs(("stebz", "stein"), (np.empty(0),))


def _lowest_ritz_vectors(d: np.ndarray, e: np.ndarray, k: int) -> np.ndarray:
    """Eigenvectors of the k lowest levels of the tridiagonal (d, e).

    The LAPACK calls of ``scipy.linalg.eigh_tridiagonal(d, e,
    select="i", select_range=(0, k - 1))``, without its argument
    checks: ``stebz`` by index in block order with tol = 0, ``stein``,
    then the levels sorted ascending.  Its non-finite check (ValueError)
    and its 1 x 1 shortcut are kept, so the vectors are the same bits.
    """
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    if len(d) == 1:
        return np.ones((1, 1))
    m, w, iblock, isplit, info = _STEBZ(d, e, 2, 0.0, 1.0, 1, k, 0.0, "B")
    if info == 0:
        w = w[:m]
        vectors, info = _STEIN(d, e, w, iblock, isplit)
    if info != 0:
        raise scipy.linalg.LinAlgError(
            f"tridiagonal stebz/stein failed (LAPACK info={info})"
        )
    return vectors[:, np.argsort(w)]


def _next_test(
    steps: int, excess: float, last_test: int, last_excess: float, split: int
) -> int:
    """Step of the next stopping test after one that failed at ``steps``.

    ``excess`` is that test's residual bound over its tolerance, and
    ``last_test`` and ``last_excess`` are the step and excess of the test
    before it (0 and inf for the first).  The next test comes at most a
    quarter of the steps so far later, and no later than 1/split of the
    distance at which the bound, falling at its rate since the test
    before, meets the tolerance.
    """
    gap = max(1, steps // 4)
    if excess < last_excess:
        rate = math.log(last_excess / excess) / (steps - last_test)
        gap = min(gap, math.ceil(math.log(excess) / rate / split))
    return steps + gap


def _first_pass(alphas, betas, first: int, lo: int, hi: int, tol: float):
    """First step j in [lo, hi) whose k = 1 stopping test passes, or None.

    The test of step j, replayed from the stored alphas and betas of the
    block that starts at row ``first``: the lowest Ritz pair of that
    block's tridiagonal up to row j, whose bound betas[j] |s_last| must
    be at most tol.
    """
    for j in range(lo, hi):
        svec = _lowest_ritz_vectors(alphas[first : j + 1], betas[first:j], 1)
        if betas[j] * abs(svec[-1, 0]) <= tol:
            return j
    return None


def _block_lanczos(
    op: SparseOperator | ReducedKernel, k: int, scale: float, gram
) -> EigenResult:
    """k > 1 lowest eigenpairs by block Lanczos of width k; see lanczos_lowest."""
    dim = op.dim
    cap = min(dim, LANCZOS_MAXITER * k)
    start = np.random.default_rng(800_000_000 + k).standard_normal((dim, k))
    # rows [s, e) are the current block and row i < e the i-th Krylov
    # vector; the k rows after them hold the next block, which enters
    # only the bound
    basis = np.empty((min(cap, LANCZOS_FIRST_ROWS) + k, dim))
    if gram is None:
        basis[:k] = np.linalg.qr(start)[0].T
    else:
        # S L^-T is G-orthonormal for the Cholesky factor L of S^T G S
        chol = np.linalg.cholesky(start.T @ (gram @ start))
        basis[:k] = scipy.linalg.solve_triangular(chol, start.T, lower=True)
    # lower band of the block tridiagonal: band[d, i] = T[i + d, i]
    band = np.zeros((k + 1, cap + k))
    restarts = steps = next_test = last_test = 0
    last_excess = math.inf
    s, e = 0, k
    while True:
        block = basis[s:e]
        p = e - s
        av = (op.matrix @ block.T).T
        # two classical Gram-Schmidt passes against every row; the first
        # also takes out the block's own part, its diagonal block of T
        rows = basis[:e]
        h = _times(gram, av) @ rows.T
        w = av - h @ rows
        w -= (_times(gram, w) @ rows.T) @ rows
        diag = h[:, s:e]
        diag = (diag + diag.T) / 2.0
        for d in range(p):
            band[d, s : e - d] = np.diagonal(diag, -d)
        if e + k > len(basis):
            grown = np.empty((cap + k, dim))
            grown[:e] = basis[:e]
            basis = grown
        # the next block by Gram-Schmidt over w's rows: row c of w is
        # sum_r coupling[r, c] times new row r, for r <= c
        coupling = np.zeros((k, p))
        new = 0
        for c in range(p):
            x = w[c]
            before = norm = math.sqrt(x @ _times(gram, x))
            if new:
                fresh = basis[e : e + new]
                for _ in range(2):
                    h = fresh @ _times(gram, x)
                    coupling[:new, c] += h
                    x = x - h @ fresh
                norm = math.sqrt(x @ _times(gram, x))
            if norm < 0.5 * before:
                # cancellation: the earlier passes no longer keep x
                # orthogonal to the rows, so repeat them for x alone
                x = _reorthogonalize([basis[: e + new]], x, gram)
                norm = float(_norm(x, gram))
            if norm > 1e-13 * scale:
                coupling[new, c] = norm
                basis[e + new] = x / norm
            elif e + new < dim:
                # x lies in the span already: a seeded direction
                # orthogonal to every row takes its place, with a zero
                # coupling, so T stays the exact projection
                restarts += 1
                basis[e + new] = _restart_direction(
                    [basis[: e + new]], restarts, gram
                )
            else:
                continue
            new += 1
        coupling = coupling[:new]
        for r in range(new):
            for c in range(r, p):
                band[p + r - c, s + c] = coupling[r, c]
        steps += 1
        if steps < next_test and 0 < new and e + new <= cap:
            s, e = e, e + new
            continue
        theta, svec = scipy.linalg.eig_banded(
            band[:, :e], lower=True, select="i", select_range=(0, k - 1)
        )
        bounds = np.linalg.norm(coupling @ svec[s:e], axis=0)
        excess = float(bounds.max()) / (LANCZOS_TOL * scale)
        if excess <= 1.0:
            break
        next_test = _next_test(steps, excess, last_test, last_excess, 1)
        last_test, last_excess = steps, excess
        if e + new > cap:
            raise ConvergenceError(
                f"block lanczos did not converge in {e} Krylov vectors; "
                f"best values {theta}, bounds {bounds}",
                values=theta,
                bounds=bounds,
                iterations=e,
            )
        s, e = e, e + new
    vectors = (svec.T @ basis[:e]).T
    vectors /= _norm(vectors, gram)
    return EigenResult(
        values=theta,
        vectors=vectors,
        residuals=lambda: _residual_norms(op, vectors, theta, gram),
        method="lanczos",
        iterations=e,
    )


def lanczos_lowest(
    op: SparseOperator | ReducedKernel,
    k: int = 1,
    start: np.ndarray | None = None,
    gram=None,
) -> EigenResult:
    """k lowest eigenpairs by Lanczos: one vector for k = 1, a block for more.

    The operator is read through ``dim``, ``symmetry``, ``matrix`` (its
    ``@``, on a vector or k columns) and ``rowsum_norm()``, so a
    matrix-free droplet kernel runs here as it is.  Without ``gram`` it
    must be symmetric: any other symmetry tag raises ValueError before
    anything is allocated.
    Converged means that the residual bound of each reported Ritz pair
    is at most LANCZOS_TOL times the row-sum norm; the reported vectors
    are normalized before their residuals are taken.  The residuals are
    taken on their first read (``EigenResult``), with the bits they
    would have had if taken here.  A run that reaches its cap raises
    ConvergenceError with the best values and their bounds.

    ``gram``, if given, is a symmetric positive definite G, read through
    its ``@`` on a vector or on k columns, and the iteration runs in the
    inner product <x, y> = x^T G y: every dot product, norm and
    Gram-Schmidt pass is taken there, the start (and the k > 1 start
    block) is normalized there, and so are the reported vectors, whose
    residuals are G-norms.  The operator may then be of any symmetry
    tag; it must be self-adjoint in that inner product (G A = A^T G),
    which is not checked.  Each step costs one product with G more, and
    a full pass three more; no product with G is stored.

    k = 1 runs single-vector Lanczos from ``start`` normalized, or
    all-ones by default; the start must be finite, nonzero and of the
    operator's dimension, and it should overlap the lowest eigenvector.
    Its stopping test takes the lowest Ritz pair only
    (``_lowest_ritz_vectors``, the LAPACK calls of
    ``eigh_tridiagonal(select="i")``): the Lanczos residual bound
    beta |s_last| must fall below the tolerance within
    min(dim, LANCZOS_MAXITER) iterations.  The test of a step needs only
    the alphas and betas up to it, so it runs only where it can stop the
    run: at the first steps of the start block or of a restart block,
    then no later than a quarter of the block's steps so far, and no
    later than half the distance at which the bound, falling at its rate
    since the test before, meets the tolerance (``_next_test``, shared
    with the block path, which goes the whole distance).  When a test
    passes, the space closes or the cap is reached, the tests of the
    steps skipped since the last one are replayed in order
    (``_first_pass``), and the run stops at the first that passes.  The
    rows past that step are never used, so the stopping step, values,
    vectors, residuals, ``iterations`` and any ConvergenceError are
    those of a test at every step.  The full tridiagonal problem is
    solved once, at exit, and gives the reported pair.

    The start is copied into row 0 and normalized there, row j + 1 is
    written only when the run goes on past the stopping test, and the
    rows are let go once the exit Ritz vector is formed.

    Orthogonality is kept by partial reorthogonalization (H. D. Simon,
    Math. Comp. 42, 1984).  The three-term recurrence, taken against
    every earlier row, gives an estimate of v_{j+1} . v_i from the
    alphas and betas already stored, seeded with rounding of size
    eps times the row-sum norm per step.  Two classical Gram-Schmidt
    passes against all rows run at the first step after the start or a
    restart, where the largest estimate reaches LANCZOS_TOL, and at the
    step after each such one; they recompute beta and reset the
    estimates to eps.  Other steps touch only the last two rows.  The
    threshold is LANCZOS_TOL rather than Simon's sqrt(eps): the Ritz
    values are accurate either way, but the Ritz vectors inherit the
    basis' loss of orthogonality, and at sqrt(eps) the explicit
    residuals of some sector ground states (droplet L = 13, n = 7 among
    them) exceeded the stopping test's bound by up to 1.8 times.

    When the Krylov space closes (beta = 0), its Ritz pairs are exact
    eigenpairs but need not include the lowest level, so the iteration
    restarts from a fixed-seed random direction orthogonal to it (a
    beta that small sends the estimate far past the threshold, so the
    closing step has had its full passes first), and the stopping test
    runs on the restart block alone: convergence needs that block's own
    lowest Ritz pair to meet the tolerance.  A restart block that
    closes in turn holds every distinct level of the space left to it,
    so nothing unexplored lies below its lowest value, and the run
    stops there.  A start that is an excited eigenvector therefore
    still finds the ground state (e_50 on diag(0, ..., 99) returns 0).
    A start that is the ground state to rounding closes the space at
    step 0 too, and the restart block, on a complement that holds no
    lower level, may reach the cap; the ConvergenceError then names the
    step where the start closed the space and its lowest value there.
    Restart directions are seeded, so runs are deterministic.

    k > 1 runs block Lanczos of width k (G. H. Golub and R. Underwood,
    Mathematical Software III, 1977); a start vector is refused.  One
    start vector reaches one copy of a degenerate level at most, and
    none of the levels orthogonal to it (the all-ones vector is even
    under site reflection, ring translation and gap reversal), whereas a
    random start block of width k reaches k copies and every symmetry
    class.  The start block is seeded, so runs are deterministic.  Each
    block step applies the operator to the k newest rows, takes their
    block of the block tridiagonal T, and runs two Gram-Schmidt passes
    of the new block against every earlier row; the new rows are
    orthonormalized among themselves column by column, which gives the
    upper triangular coupling B to the next block.  A column that
    cancels to half its norm there is passed against every row again,
    and one at most 1e-13 times the row-sum norm lies in the span
    already: a seeded direction orthogonal to every row takes its place
    with a zero coupling, which keeps T the exact projection.  The
    residual bound of a Ritz pair (theta, s) of T is |B s_last|, over
    the last block of s; the stopping test solves the banded T for its
    k lowest pairs only (LAPACK sbevx).  It costs more than the block
    step as T grows, so it runs at block steps 1 to 4, then at most a
    quarter of the steps so far after the previous test, and no later
    than where the largest bound, falling at its rate since that test,
    meets the tolerance; also where the space is exhausted or the cap
    is reached.  The cap counts Krylov vectors, min(dim,
    LANCZOS_MAXITER * k), and so does ``iterations``.
    """
    if gram is None and op.symmetry != "symmetric":
        raise ValueError(
            f"lanczos_lowest needs a real symmetric operator, got {op.symmetry}"
        )
    dim = op.dim
    if start is not None:
        start = np.asarray(start, dtype=np.float64)
        if start.shape != (dim,):
            raise ValueError(f"start vector has shape {start.shape}, need ({dim},)")
        # a zero norm, or a nan or inf entry, cannot be normalized
        start_norm = float(np.linalg.norm(start))
        if not 0.0 < start_norm < math.inf:
            raise ValueError(f"start vector has norm {start_norm}")
    k = min(k, dim)
    scale = max(1.0, op.rowsum_norm())
    if k > 1:
        if start is not None:
            raise ValueError("a start vector seeds the k = 1 solve only")
        return _block_lanczos(op, k, scale, gram)
    maxiter = min(dim, LANCZOS_MAXITER)
    # row j is the Krylov vector entered at iteration j; w is its
    # product and then the next row before it is scaled, and gv is G
    # times the newest row
    basis = _KrylovRows(maxiter + 1, dim)
    v = basis[0]
    if start is None:
        v.fill(1.0)
    else:
        v[...] = start
        start = None  # the normalized copy in row 0 is all the run keeps
    v /= _norm(v, gram)
    gv = _times(gram, v)
    alphas = np.empty(maxiter)
    betas = np.empty(maxiter)  # betas[j] couples rows j and j + 1
    tol = LANCZOS_TOL * scale
    restarts = 0
    closed = None  # the step where the start's block closed
    first = 0  # first row of the block entered since the last restart
    # the stopping test runs at the steps the schedule picks (steps
    # counted from the block's first row); tested is the last step whose
    # test has run, and a passing test replays the skipped ones before it
    tested, next_test, last_test, last_excess = -1, 0, 0, math.inf
    # omega[i] estimates v_j . v_i (omega_prev the same for row j - 1).
    # noise[i] bounds what rounding adds to it per step, or a closed
    # row's dropped remainder
    eps = float(np.finfo(np.float64).eps)
    noise = np.full(maxiter + 1, eps * scale)
    omega_prev = omega = np.ones(1)
    follow = False  # the step after an estimated loss is reorthogonalized too
    stop = None  # the step whose stopping test passed, or where the run ends
    for j in range(maxiter):
        v = basis[j]
        w = op.matrix @ v
        alpha = alphas[j] = np.dot(gv, w)
        w -= alpha * v
        if j > 0 and betas[j - 1] != 0.0:
            w -= betas[j - 1] * basis[j - 1]
        gw = _times(gram, w)
        beta = math.sqrt(w.dot(gw))
        if j == first or follow:
            full_pass, follow = True, False
        else:
            est = _orthogonality_estimate(
                alphas[: j + 1], betas[:j], omega, omega_prev, noise[:j]
            )
            # a beta near the closure threshold always trips this
            full_pass = follow = not np.abs(est).max() <= LANCZOS_TOL * beta
        omega_prev, omega = omega, np.full(j + 2, eps)
        if full_pass:
            _reorthogonalize(basis.head(j + 1), w, gram)
            gw = _times(gram, w)
            beta = math.sqrt(w.dot(gw))
        else:
            omega[:j] = est / beta
            omega[j] = noise[j] / beta
        omega[j + 1] = 1.0
        if beta <= 1e-13 * scale:
            # closed: exact Ritz pairs, but nothing yet of the complement.
            # A closed restart block holds every distinct level left to
            # it, so no unexplored level lies below its lowest value
            betas[j] = 0.0
            noise[j] = max(noise[j], beta)
            stop = _first_pass(alphas, betas, first, tested + 1, j, tol)
            if stop is not None:
                break
            if j + 1 >= dim or first > 0:
                stop = j
                break
            closed = j
            restarts += 1
            basis[j + 1] = _restart_direction(basis.head(j + 1), restarts, gram)
            gv = _times(gram, basis[j + 1])
            first = j + 1
            tested, next_test, last_test, last_excess = j, 0, 0, math.inf
            continue
        betas[j] = beta
        steps = j - first + 1
        if steps >= next_test or j + 1 == maxiter:
            svec = _lowest_ritz_vectors(alphas[first : j + 1], betas[first:j], 1)
            bound = beta * abs(svec[-1, 0])
            if bound <= tol or j + 1 == maxiter:
                # the skipped tests before it decide first
                stop = _first_pass(alphas, betas, first, tested + 1, j, tol)
                if stop is None and bound <= tol:
                    stop = j
                break
            excess = bound / tol
            next_test = _next_test(steps, excess, last_test, last_excess, 2)
            tested, last_test, last_excess = j, steps, excess
        # row j + 1 is entered only when the run goes on, and this
        # step's product is let go before the next one is taken
        np.divide(w, beta, out=basis[j + 1])
        gv = basis[j + 1] if gram is None else gw / beta
        del w, gw
    if stop is None:
        theta, svec = scipy.linalg.eigh_tridiagonal(alphas, betas[:-1])
        cause = ""
        if closed is not None:
            # betas[closed] is 0, so the start block's levels are the
            # values whose vectors live on rows 0..closed; its lowest
            # is the first of them
            lowest = theta[((svec[: closed + 1] ** 2).sum(axis=0) > 0.5).argmax()]
            cause = (
                f"; the start closed its Krylov space at step {closed} "
                f"with value {float(lowest)!r}, and the restart on the "
                "complement did not converge"
            )
        raise ConvergenceError(
            f"lanczos did not converge in {maxiter} iterations{cause}; "
            f"best values {theta[:k]}, bounds {betas[-1] * np.abs(svec[-1, :k])}",
            values=theta[:k],
            bounds=betas[-1] * np.abs(svec[-1, :k]),
            iterations=maxiter,
        )
    m = stop + 1
    theta, svec = scipy.linalg.eigh_tridiagonal(alphas[:m], betas[: m - 1])
    # the Ritz vector is formed, and then the Krylov rows are let go
    vectors = basis.combine(svec[:, :k]).T
    del basis, v, w, gv, gw
    # the rows are only semi-orthogonal: normalize before the residual
    vectors /= _norm(vectors, gram)
    values = theta[:k].copy()
    return EigenResult(
        values=values,
        vectors=vectors,
        residuals=lambda: _residual_norms(op, vectors, values, gram),
        method="lanczos",
        iterations=m,
    )


def _solve(op: SparseOperator, k: int, dim: int) -> EigenResult:
    # dim is the full operator's: an even block takes its solver
    if op.symmetry == "symmetric" and dim > DENSE_CROSSOVER:
        return lanczos_lowest(op, k=k)
    return dense_spectrum(op, k=k)


def lowest(op: SparseOperator, k: int) -> EigenResult:
    """k lowest eigenpairs: Lanczos for a symmetric op above DENSE_CROSSOVER.

    Every other operator is solved densely, so one that is not symmetric
    meets the DENSE_GUARD memory guard instead of Lanczos.  The
    crossover is measured on sectors and kernels for k = 1, 2 and 4 (a
    shared 2-core Xeon, best of seven warm runs): at dims 220 to 330
    dense eigh was faster in all but two of 24 cases, at 484 to 495 the
    two were about even (5-32 ms dense, 4-33 ms Lanczos), and at 715 to
    729 Lanczos was faster in every case (5-40 ms against 7-76 ms).

    The ground state (k = 1) of an operator that carries a ``mirror``
    is even under it, so it is solved on the even block
    (``operators.even_block``), about half op's dimension, by the
    solver op's own dimension picks, so the method is op's.  The vector
    is lifted to op's rows and the residual taken on op, on its first
    read; the block's own residual is never taken.  Lanczos on
    the block stops on LANCZOS_TOL times the block's row-sum norm, which
    can exceed op's own (by up to 7% over the open, droplet and cyclic
    sectors with L <= 16), so the residual on op can too.
    """
    if k != 1 or op.mirror is None:
        return _solve(op, k, op.dim)
    block, lift = even_block(op, op.mirror)
    res = _solve(block, 1, op.dim)
    vectors, values = lift @ res.vectors, res.values
    res.vectors = vectors
    res.residuals = lambda: _residual_norms(op, vectors, values)
    return res


def kernel_lowest(kernel: ReducedKernel, k: int) -> EigenResult:
    """k lowest eigenpairs of a truncated droplet kernel.

    Solved on the real symmetric form of the kernel.  Up to
    DENSE_CROSSOVER its CSR matrix (``to_csr``) is rendered once and
    solved densely by ``lowest``, the theta = 0 ground state on the block
    even under the CSR matrix's mirror; above it, Lanczos runs on the
    kernel, on its CSR matrix up to DENSE_GUARD, rendered once a run is
    certain, and matrix-free beyond.
    (The stencil's product costs about ten times the CSR one on a dim
    900 block of two columns, 130 against 15 us, and the CSR matrix of
    a kernel that size is under 1 MB.)  An n <= 2 kernel stays dense up
    to DENSE_GUARD: it is a single chain in one gap, whose excited levels
    (and, at q near 1, its ground state) sit at the edge of the
    two-magnon continuum, where the level spacing falls as 1/n_max^2
    and Lanczos needs about n_max vectors.  Measured at q = 0.3, 0.5
    and 0.9, k = 2 did not converge within its cap for any n_max from
    800 to 4000, nor k = 1 at q = 0.9 and theta = 0 from 501, while
    every n = 3 to 7 kernel between the crossover and the guard did.

    At theta = 0 the real kernel's off-diagonal entries are all negative
    on a connected box: it is an irreducible Z-matrix, so by
    Perron-Frobenius its ground state is simple and positive, and its
    only positive eigenvector.  It is also even under the gap reversal
    N_k <-> N_{n+2-k}, which commutes with the kernel.  Densely, it is
    solved on the reversal-even block, about half the dimension, and
    lifted back to the full box (``lowest``).  By Lanczos (k = 1, any
    n), the start is the Bethe droplet vector f, positive, built
    exactly even (``even_bethe_vector``) and normalized in place.  It
    is an exact eigenvector on every row off the box's faces, so it is
    the ground state up to the tail the box cuts, of relative size
    max|P_k|^{n_max}.  f is built once
    and the kernel applied to it once (``_droplet_pair``): that product
    gives its Rayleigh quotient and residual and its closed-form
    certificate (``certify_eigenpair``'s check, returned as the
    result's ``certificate``), so the point holds two box vectors, f
    and the product, and slab-sized scratch.  When the residual meets
    the stopping test, scaled by the stencil's row-sum norm (the CSR
    matrix's, bit for bit, at theta = 0), the pair is returned as a
    one-step Lanczos pair, and no CSR matrix is rendered: that happens
    only for a Lanczos run.  Lanczos is not given such
    a start directly: it would close its Krylov space at step 0 and
    restart on the complement, and on these kernels that run reaches
    its cap.  Otherwise Lanczos runs from f, which this function hands
    over without keeping a reference, so the run holds it only until
    it is copied into row 0; positive, it cannot miss the ground state,
    and even, it keeps the Krylov space in the even block up to
    rounding.  The Ritz vector is replaced by its even part, which is
    exactly even and, in exact arithmetic, has no larger residual, and
    the residual is taken again on the full kernel, on its first read;
    the Ritz vector's own is never taken.  The certificate is kept.  At
    q = 1 there is no Bethe vector: Lanczos runs from its default start,
    all-ones, the Bethe vector's limit, which fails the one-product test
    there (the far faces lose hops), and the even part is taken the same
    way; there is no certificate.

    At theta != 0 nothing certifies that a start is the ground state,
    and the reversal does not commute with the real form, so neither
    the Bethe start nor the even part is used.  The ground state (n >=
    3) is started from the ground state of the half-size truncation
    [1, ceil(n_max / 2)]^{n-1} at the same theta, solved by this
    function and padded with zeros, once that half box is above
    DENSE_GUARD (from all-ones below it); a rung's vector only seeds
    the next rung, so its residual is never taken.  The boxes are
    nested and the ground state decays geometrically in every gap, so
    the padded vector is nearly the answer.  Excited levels, and n <= 2
    at theta != 0, are solved on the full kernel from their default
    starts: k > 1 by block Lanczos from its seeded random start block,
    which reaches the reversal-odd levels a reversal-even start cannot
    (the first excited level, k = 2, may be odd).
    """
    if kernel.n <= 2 and kernel.dim <= DENSE_GUARD:
        return dense_spectrum(kernel.to_csr(), k)
    if kernel.dim <= DENSE_CROSSOVER:
        return lowest(kernel.to_csr(), k)

    def operator():
        # what Lanczos runs on, rendered only once a run is certain
        return kernel.to_csr() if kernel.dim <= DENSE_GUARD else kernel

    if k != 1 or (kernel.n < 3 and kernel.theta != 0.0):
        return lanczos_lowest(operator(), k=k)
    if kernel.theta != 0.0:
        return lanczos_lowest(operator(), k=1, start=_half_truncation_start(kernel))
    if kernel.anisotropy.q == 1.0:
        # the Bethe vector's limit, all-ones, is Lanczos's default start
        res = lanczos_lowest(operator(), k=1)
    else:
        # the list is the pair's only holder, so that its vector goes to
        # Lanczos with no reference left here: the run lets the start go
        # once it is copied into row 0.  At theta = 0 the stencil's
        # row-sum norm is the CSR matrix's, bit for bit
        pair = [_droplet_pair(kernel)]
        if pair[0].residuals[0] <= LANCZOS_TOL * max(1.0, kernel.rowsum_norm()):
            return pair[0]
        certificate = pair[0].certificate
        res = lanczos_lowest(operator(), k=1, start=pair.pop().vectors[:, 0])
        res.certificate = certificate
    # (R v + v) / 2 has the bits of (v + R v) / 2: addition commutes
    vectors, values = kernel.reverse(res.vectors), res.values
    vectors += res.vectors
    vectors /= 2.0
    res.vectors = vectors
    res.residuals = lambda: _residual_norms(kernel, vectors, values)
    return res


def kernel_mirrored(kernel: ReducedKernel, pairs: EigenResult) -> EigenResult:
    """kernel's eigenpairs from ``pairs``, those of the kernel at -theta.

    R K R = conj K for the gap reversal R, so the real form at -theta
    is the real form at theta permuted by R: K~(-theta) = R K~(theta) R.
    The values are therefore the same and the vectors are R v; the
    residuals are taken again on ``kernel`` itself.  For n <= 2, R is
    the identity and K~ is even in theta.
    """
    vectors = kernel.reverse(pairs.vectors)
    return EigenResult(
        values=pairs.values,
        vectors=vectors,
        residuals=_residual_norms(kernel, vectors, pairs.values),
        method=pairs.method,
        iterations=pairs.iterations,
    )


def _half_truncation_start(kernel: ReducedKernel) -> np.ndarray | None:
    """Half-size ground state zero-padded into the kernel's box, or None.

    The theta != 0 start of ``kernel_lowest`` (theta = 0 starts from the
    Bethe vector).  The box is C-ordered (first gap most significant),
    so the half box [1, half]^{n-1} is the leading corner of the full
    one, which the gap reversal maps onto itself: the real form of the
    half kernel is the restriction of the full one's.  It is solved at
    the kernel's own theta.  None when the half box is at most
    DENSE_GUARD.
    """
    n, n_max = kernel.n, kernel.n_max
    half = -(-n_max // 2)
    if half ** (n - 1) <= DENSE_GUARD:
        return None
    small = build_reduced_kernel(n, kernel.theta, kernel.anisotropy, half)
    vec = kernel_lowest(small, 1).vectors[:, 0]
    padded = np.zeros((n_max,) * (n - 1))
    padded[(slice(half),) * (n - 1)] = vec.reshape((half,) * (n - 1))
    return padded.ravel()


def _droplet_pair(kernel: ReducedKernel) -> EigenResult:
    """The Bethe start of the theta = 0 ground state as a one-step pair.

    v is ``even_bethe_vector`` on the kernel's box (q < 1), the Bethe
    vector made exactly even under the gap reversal, (f + R f) / 2,
    normalized in place.  One product K v (with the bits of the CSR one
    at theta = 0) gives the Rayleigh quotient rho = v . K v, the
    residual |K v - rho v|, its squares summed slab by slab
    (``ReducedKernel.slabs``) so that K v stays whole, and v's
    closed-form certificate (``certify_eigenpair``'s check,
    ``_certify_product``), taken in place on K v.  (rho, v) is returned
    as a one-step Lanczos pair with that certificate, whether or not it
    passes the stopping test.  v and K v are the only box vectors held.
    """
    sol = xi_factors(kernel.anisotropy.q, kernel.n, 0.0)
    v = even_bethe_vector(sol, kernel.n_max)
    v /= np.linalg.norm(v)
    prod = kernel @ v
    value = v.dot(prod)
    slabs = kernel.slabs()
    tmp = np.empty(slabs[0].stop)
    squares = 0.0
    for rows in slabs:
        part = np.multiply(v[rows], value, out=tmp[: rows.stop - rows.start])
        np.subtract(prod[rows], part, out=part)
        part *= part
        squares += np.add.reduce(part)
    certificate = _certify_product(sol, kernel, v, prod)
    return EigenResult(
        np.array([value]), v[:, None], np.sqrt([squares]), "lanczos", 1, certificate
    )


def spectral_radius(op: SparseOperator) -> tuple[float, int]:
    """Spectral radius of a nonnegative kernel by power iteration.

    Deterministic all-ones start; the Rayleigh quotient must settle
    within POWER_TOL on two consecutive iterations, at most
    POWER_MAXITER in all.
    """
    dim = op.dim
    x = np.ones(dim) / math.sqrt(dim)
    est_prev = math.inf
    settled = 0
    for it in range(1, POWER_MAXITER + 1):
        y = op.matrix @ x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0, it
        est = float(np.dot(x, y))
        x = y / norm
        if abs(est - est_prev) <= POWER_TOL * max(1.0, abs(est)):
            settled += 1
            if settled >= 2:
                return est, it
        else:
            settled = 0
        est_prev = est
    raise ConvergenceError(
        f"power iteration did not settle in {POWER_MAXITER} iterations "
        f"(last estimate {est_prev})",
        iterations=POWER_MAXITER,
    )


@dataclass(frozen=True)
class PFReport:
    entrywise_nonnegative: bool
    vector_positive: bool
    eigenpair_residual: float
    eigenpair_ok: bool
    value: float
    spectral_radius: float
    radius_gap: float
    radius_ok: bool
    iterations: int
    passed: bool
    message: str

    def summary(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{verdict}: value={self.value:.12g} "
            f"radius={self.spectral_radius:.12g} gap={self.radius_gap:.3g} "
            f"eig_resid={self.eigenpair_residual:.3g} {self.message}"
        )


def pf_check(op: SparseOperator, vec: np.ndarray, value: float) -> PFReport:
    """Positive-eigenvector certificate for a nonnegative kernel.

    Hypotheses: every stored entry of the kernel is >= 0 and the vector
    is strictly positive with ||K v - value v|| small (an eigenpair to
    PF_RESIDUAL_TOL, relative).  Conclusion checked: the spectral radius
    equals the eigenvalue, confirmed by power iteration to PF_GAP_TOL.
    """
    mat = op.matrix
    nonneg = bool(mat.nnz == 0 or float(mat.data.min()) >= 0.0)
    v = np.asarray(vec, dtype=float)
    positive = bool(v.size and float(v.min()) > 0.0)
    resid = float(
        np.linalg.norm(mat @ v - value * v)
        / (max(1.0, abs(value)) * np.linalg.norm(v))
    )
    eig_ok = resid <= PF_RESIDUAL_TOL
    rho, iterations = spectral_radius(op)
    gap = abs(rho - value)
    radius_ok = gap <= PF_GAP_TOL * max(1.0, abs(value))
    failures = []
    if not nonneg:
        failures.append("kernel has negative entries")
    if not positive:
        failures.append("vector is not strictly positive")
    if not eig_ok:
        failures.append(f"eigenpair residual {resid:g} > {PF_RESIDUAL_TOL:g}")
    if not radius_ok:
        failures.append(f"radius gap {gap:g} > tolerance")
    return PFReport(
        entrywise_nonnegative=nonneg,
        vector_positive=positive,
        eigenpair_residual=resid,
        eigenpair_ok=eig_ok,
        value=float(value),
        spectral_radius=rho,
        radius_gap=gap,
        radius_ok=radius_ok,
        iterations=iterations,
        passed=nonneg and positive and eig_ok and radius_ok,
        message="; ".join(failures),
    )


def _radius_any(op: SparseOperator) -> float:
    if op.dim <= DENSE_GUARD:
        dense = op.to_dense()
        if op.symmetry == "symmetric":
            return float(np.linalg.eigvalsh(dense).max())
        return float(np.abs(np.linalg.eigvals(dense)).max())
    rho, _ = spectral_radius(op)
    return rho


@dataclass(frozen=True)
class WielandtReport:
    radius_full: float
    radius_sub: float
    slack: float
    passed: bool


def wielandt_check(
    op: SparseOperator,
    subset,
    sub_op: SparseOperator | None = None,
) -> WielandtReport:
    """Domination certificate rho(J) <= rho(K) for nonnegative kernels.

    J defaults to the restriction of K to ``subset``; an explicit J
    must be entrywise dominated by it (0 <= J <= K[subset, subset]).
    """
    mat = op.matrix
    if mat.nnz and float(mat.data.min()) < 0.0:
        raise ValueError("wielandt_check needs a nonnegative kernel")
    subset = np.asarray(sorted(set(int(i) for i in subset)), dtype=int)
    if subset.size == 0:
        raise ValueError("subset must be nonempty")
    if subset[0] < 0 or subset[-1] >= op.dim:
        raise ValueError("subset indices out of range")
    restriction = mat[subset][:, subset].tocsr()
    if sub_op is None:
        sub = SparseOperator(restriction, op.symmetry)
    else:
        sub = sub_op
        if sub.shape != (subset.size, subset.size):
            raise ValueError(f"sub-kernel shape {sub.shape} != subset size")
        if sub.matrix.nnz and float(sub.matrix.data.min()) < 0.0:
            raise ValueError("sub-kernel must be nonnegative")
        excess = (sub.matrix - restriction).toarray()
        if excess.size and float(excess.max(initial=0.0)) > 1e-12:
            raise ValueError("sub-kernel is not dominated by the restriction")
    rho_full = _radius_any(op)
    rho_sub = _radius_any(sub)
    slack = rho_full - rho_sub
    return WielandtReport(
        radius_full=rho_full,
        radius_sub=rho_sub,
        slack=slack,
        passed=bool(rho_sub <= rho_full + WIELANDT_TOL * max(1.0, abs(rho_full))),
    )


def _aitken_pass(es: list[float], scale: float) -> list[float]:
    """One delta-squared sweep over every consecutive triple."""
    out = []
    for e1, e2, e3 in zip(es, es[1:], es[2:]):
        d1 = e2 - e1
        d2 = e3 - e2
        denom = d2 - d1
        if abs(denom) <= 1e-15 * scale:
            # flat triple: already converged at working precision
            out.append(e3)
        else:
            out.append(e3 - d2 * d2 / denom)
    return out


def fit_limit(points) -> tuple[float, float] | None:
    """(limit, residual) of a monotone tail by the iterated Aitken table.

    Input: (parameter, energy) pairs with uniform parameter spacing and
    non-increasing energies; at least three points.  Each sweep forms
    the three-point ratio estimate on every consecutive triple of the
    current sequence; sweeps repeat until fewer than three values
    remain and the corner value is the reported limit.  One sweep is
    exact for a geometric tail e + c r^k; iterating also strips the
    slowly varying ratios of algebraic tails.  The fit never reports a
    limit above the smallest observed energy, and the residual is the
    spread at the deepest table level.  A constant tail gives (its
    value, 0.0); a tail that is not non-increasing, or whose last ratio
    of differences is not in [0, 1), gives None.

    The residual is not a bound on the limit's sensitivity to rounding.
    Each sweep divides by second differences, so on the kink scans the
    table amplifies rounding in the energies about 10^6 times: energies
    at q = 0.5 that moved by at most 1.7e-14 between two builds moved
    the limit by 5.1e-8.
    """
    pts = [(float(x), float(e)) for x, e in points]
    if len(pts) < 3:
        raise ValueError("need at least three points")
    xs = [x for x, _ in pts]
    es = [e for _, e in pts]
    steps = [b - a for a, b in zip(xs, xs[1:])]
    if min(steps) <= 0:
        raise ValueError("parameters must be strictly increasing")
    if max(steps) - min(steps) > 1e-9 * max(steps):
        raise ValueError("parameter spacing must be uniform")
    scale = max(1.0, max(abs(e) for e in es))
    if any(b - a > 1e-14 * scale for a, b in zip(es, es[1:])):
        return None
    d1 = es[-2] - es[-3]
    d2 = es[-1] - es[-2]
    if d1 == 0.0 and d2 == 0.0:
        return es[-1], 0.0
    ratio = d2 / d1 if d1 != 0.0 else 0.0
    if not 0.0 <= ratio < 1.0:
        return None
    table = [list(es)]
    while len(table[-1]) >= 3:
        nxt = _aitken_pass(table[-1], scale)
        if not all(math.isfinite(v) for v in nxt):
            break
        table.append(nxt)
    deepest = table[-1]
    limit = min(deepest[-1], min(es))
    if len(deepest) >= 2:
        residual = abs(deepest[-1] - deepest[-2])
    else:
        residual = abs(deepest[-1] - table[-2][-1])
    return limit, residual
