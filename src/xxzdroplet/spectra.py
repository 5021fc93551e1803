"""Eigensolvers and spectral checks shared by the scan drivers.

Dense paths go through LAPACK, compute only the requested levels, and
refuse dimensions above DENSE_GUARD; ``lowest`` is the one dispatch
between them and Lanczos for sparse operators.  Every operator is
real: the droplet kernel and the ring momentum blocks are held in real
symmetric form.  The Lanczos iteration takes symmetric operators and
uses partial reorthogonalization: Simon's recurrence estimates, from
the alphas and betas alone, how far each new Krylov vector has drifted
from every earlier one, and two Gram-Schmidt passes against all rows
run only at a block's first step, at each step where that estimate
reaches LANCZOS_TOL, and at the step after each such one.  It has a
deterministic start (all-ones unless the caller passes one) and
fixed-seed restart directions, so repeated runs are bit-identical; it
runs at any dimension, small ones included.  Each iteration solves only
for the k lowest Ritz pairs to test convergence, and the full
tridiagonal problem is solved once, at exit, where the Ritz vectors are
normalized; a Krylov space that closes counts as converged only once
the block restarted after it has converged too.  Its Krylov basis is
one block with row j written at iteration j; it reserves
LANCZOS_FIRST_ROWS rows, which most runs never outgrow, and a longer
run moves once into LANCZOS_MAXITER + 1 rows, so no run asks for the
full block's memory before it needs it.  It reports a diagnostic error
rather than returning an unconverged value silently.  Tolerances and
iteration caps are module constants, not call options.
``generalized_lowest`` solves a dense pencil (A, G) for its k lowest
levels only.  ``kernel_lowest`` runs Lanczos on the matrix-free droplet
kernel, starting the ground state at any theta from the zero-padded
ground state of the half-size truncation, which it solves the same way;
small kernels are rendered once as CSR (``ReducedKernel.to_csr``) and
solved by ``lowest``.  An operator whose ground state is even under an
index involution carries it as its ``mirror`` (the theta = 0 kernel
under gap reversal; open, droplet and cyclic sectors under site
reflection), and ``lowest`` solves that ground state on the even block
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
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .operators import (
    ReducedKernel,
    SparseOperator,
    build_reduced_kernel,
    even_block,
)
from .sector_basis import DimensionGuardError

DENSE_GUARD = 4000  # dense LAPACK paths refuse larger dimensions
IMAG_PART_TOL = 1e-9  # dense_spectrum warns above this relative imaginary part
LANCZOS_TOL = 1e-10  # Ritz residual bound, relative to the row-sum norm
LANCZOS_MAXITER = 300
LANCZOS_FIRST_ROWS = 128  # Krylov rows reserved before the first iteration
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


class NotPositiveDefiniteError(RuntimeError):
    """Gram matrix failed Cholesky; the basis is degenerate."""


@dataclass
class EigenResult:
    values: np.ndarray
    vectors: np.ndarray | None
    residuals: np.ndarray | None
    method: str
    iterations: int | None = None


def check_dense_dim(dim: int, path: str) -> None:
    """Raise DimensionGuardError before a dense path of size dim is formed."""
    if dim > DENSE_GUARD:
        raise DimensionGuardError(f"{path} path refuses dim {dim} > {DENSE_GUARD}")


def dense_spectrum(op: SparseOperator, k: int) -> EigenResult:
    """Dense spectrum, ascending: the k lowest eigenpairs and residuals.

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
    residuals = np.linalg.norm(dense @ vectors - vectors * values, axis=0)
    return EigenResult(
        values=np.asarray(values, dtype=float),
        vectors=vectors,
        residuals=residuals,
        method="dense",
    )


def _reorthogonalize(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    # two classical Gram-Schmidt passes against every row
    w = w - rows.dot(w).dot(rows)
    return w - rows.dot(w).dot(rows)


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
    est = (
        betas * omega[1:]
        + (alphas[:j] - alphas[j]) * omega[:j]
        - betas[j - 1] * omega_prev
    )
    est[1:] += betas[:-1] * omega[: j - 1]
    return est + np.copysign(noise, est)


def _restart_direction(rows: np.ndarray, attempt: int) -> np.ndarray:
    # deterministic replacement direction when the Krylov space closes;
    # the rows are only semi-orthogonal, so both passes are needed
    rng = np.random.default_rng(900_000_000 + attempt)
    v = _reorthogonalize(rows, rng.standard_normal(rows.shape[1]))
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ConvergenceError("could not generate a restart direction")
    return v / norm


def lanczos_lowest(
    op: SparseOperator | ReducedKernel, k: int = 1, start: np.ndarray | None = None
) -> EigenResult:
    """k lowest eigenpairs by Lanczos with partial reorthogonalization.

    The start vector is ``start`` normalized, or all-ones by default; it
    must be finite, nonzero and of the operator's dimension, and it
    should overlap the lowest eigenvectors.  Each iteration tests
    convergence on the k lowest Ritz pairs only (``select="i"``): the
    Lanczos residual bound beta |s_last| of each must fall below
    LANCZOS_TOL times the row-sum norm, within min(dim, LANCZOS_MAXITER)
    iterations.  The full tridiagonal problem is solved once, at exit,
    and gives the reported values and vectors; the vectors are
    normalized before their residuals are taken, because the basis is
    only semi-orthogonal.

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
    closing step has had its full passes first), and
    the stopping test runs on the restart block alone: convergence needs
    that block's own k lowest Ritz pairs to meet the tolerance.  A
    restart block that closes in turn holds every distinct level of the
    space left to it, so nothing unexplored lies below its lowest value;
    the run stops there once the k-th lowest Ritz value of all blocks
    is no higher, and restarts again otherwise (a degenerate lowest
    level needs one block per copy).  A start that is an excited
    eigenvector therefore still finds the ground state (e_50 on
    diag(0, ..., 99) returns 0).  Restart directions are seeded, so
    runs are deterministic.

    The operator is read through ``dim``, ``symmetry``, ``matrix`` (its
    ``@``) and ``rowsum_norm()``, so a matrix-free droplet kernel runs
    here as it is.  It must be symmetric: any other symmetry tag raises
    ValueError before anything is allocated.
    """
    if op.symmetry != "symmetric":
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
    maxiter = min(dim, LANCZOS_MAXITER)
    scale = max(1.0, op.rowsum_norm())
    # row j is the Krylov vector entered at iteration j
    basis = np.empty((min(maxiter + 1, LANCZOS_FIRST_ROWS), dim))
    if start is None:
        basis[0] = np.ones(dim) / math.sqrt(dim)
    else:
        basis[0] = start / start_norm
    alphas = np.empty(maxiter)
    betas = np.empty(maxiter)  # betas[j] couples rows j and j + 1
    restarts = 0
    first = 0  # first row of the block entered since the last restart
    # omega[i] estimates v_j . v_i (omega_prev the same for row j - 1);
    # noise[i] bounds what rounding adds to it per step, or a closed
    # row's dropped remainder
    eps = float(np.finfo(np.float64).eps)
    noise = np.full(maxiter + 1, eps * scale)
    omega_prev = omega = np.ones(1)
    follow = False  # the step after an estimated loss is reorthogonalized too
    for j in range(maxiter):
        w = op.matrix @ basis[j]
        alpha = alphas[j] = np.dot(basis[j], w)
        w -= alpha * basis[j]
        if j > 0 and betas[j - 1] != 0.0:
            w -= betas[j - 1] * basis[j - 1]
        beta = float(np.linalg.norm(w))
        rows = basis[: j + 1]
        if j == first or follow:
            full_pass, follow = True, False
        else:
            est = _orthogonality_estimate(
                alphas[: j + 1], betas[:j], omega, omega_prev, noise[:j]
            )
            # a beta near the closure threshold always trips this
            full_pass = follow = not np.abs(est).max() <= LANCZOS_TOL * beta
        omega_prev = omega
        omega = np.full(j + 2, eps)
        if full_pass:
            w = _reorthogonalize(rows, w)
            beta = float(np.linalg.norm(w))
        else:
            omega[:j] = est / beta
            omega[j] = noise[j] / beta
        omega[j + 1] = 1.0
        if j + 1 == len(basis):
            full = np.empty((maxiter + 1, dim))
            full[: j + 1] = basis
            basis = full
        if beta <= 1e-13 * scale:
            # closed: exact Ritz pairs, but nothing yet of the complement.
            # A closed restart block holds every distinct level left to
            # it, so no unexplored level lies below its lowest value
            betas[j] = 0.0
            noise[j] = max(noise[j], beta)
            if j + 1 >= dim:
                break
            if first > 0:
                block = scipy.linalg.eigvalsh_tridiagonal(
                    alphas[first : j + 1], betas[first:j]
                )
                ritz = np.sort(np.concatenate([
                    scipy.linalg.eigvalsh_tridiagonal(
                        alphas[:first], betas[: first - 1]
                    ),
                    block,
                ]))
                if len(ritz) >= k and ritz[k - 1] <= block[0]:
                    break
            restarts += 1
            basis[j + 1] = _restart_direction(rows, restarts)
            first = j + 1
            continue
        betas[j] = beta
        np.divide(w, beta, out=basis[j + 1])
        if j + 1 - first >= k:
            _, svec = scipy.linalg.eigh_tridiagonal(
                alphas[first : j + 1],
                betas[first:j],
                select="i",
                select_range=(0, k - 1),
            )
            if np.all(beta * np.abs(svec[-1]) <= LANCZOS_TOL * scale):
                break
    else:
        theta, svec = scipy.linalg.eigh_tridiagonal(alphas, betas[:-1])
        raise ConvergenceError(
            f"lanczos did not converge in {maxiter} iterations; "
            f"best values {theta[:k]}, bounds {betas[-1] * np.abs(svec[-1, :k])}",
            values=theta[:k],
            bounds=betas[-1] * np.abs(svec[-1, :k]),
            iterations=maxiter,
        )
    m = j + 1
    theta, svec = scipy.linalg.eigh_tridiagonal(alphas[:m], betas[: m - 1])
    vectors = (svec[:, :k].T @ basis[:m]).T
    # the rows are only semi-orthogonal: normalize before the residual
    vectors /= np.linalg.norm(vectors, axis=0)
    prod = op.matrix @ vectors
    residuals = np.linalg.norm(prod - vectors * theta[:k], axis=0)
    return EigenResult(
        values=theta[:k].copy(),
        vectors=vectors,
        residuals=residuals,
        method="lanczos",
        iterations=m,
    )


def _solve(op: SparseOperator, k: int, dim: int) -> EigenResult:
    # dim is the full operator's: an even block takes its solver
    if dim <= DENSE_GUARD:
        return dense_spectrum(op, k=k)
    return lanczos_lowest(op, k=k)


def lowest(op: SparseOperator, k: int) -> EigenResult:
    """k lowest eigenpairs: dense up to DENSE_GUARD, Lanczos above it.

    The ground state (k = 1) of an operator that carries a ``mirror``
    is even under it, so it is solved on the even block
    (``operators.even_block``), about half op's dimension, by the
    solver op's own dimension picks, so the method is op's.  Blocks of
    full sectors just above the guard are themselves below it, and
    there Lanczos is far faster than dense eigh.  The vector is lifted
    to op's rows and the residual taken on op.
    """
    if k != 1 or op.mirror is None:
        return _solve(op, k, op.dim)
    block, lift = even_block(op, op.mirror)
    res = _solve(block, 1, op.dim)
    res.vectors = lift @ res.vectors
    res.residuals = np.linalg.norm(
        op.matrix @ res.vectors - res.vectors * res.values, axis=0
    )
    return res


def kernel_lowest(kernel: ReducedKernel, k: int) -> EigenResult:
    """k lowest eigenpairs of a truncated droplet kernel.

    Solved on the real symmetric form of the kernel.  Up to DENSE_GUARD
    its CSR matrix (``to_csr``) is rendered once and solved densely by
    ``lowest``, the theta = 0 ground state on the block even under the
    CSR matrix's mirror; above it, Lanczos runs on the matrix-free kernel
    itself.

    The ground state (k = 1, n >= 3) above DENSE_GUARD is started from
    the ground state of the half-size truncation [1, ceil(n_max / 2)]^{n-1}
    at the same theta, solved by this function and padded with zeros
    (all-ones when that half box is small enough for the dense path).
    The boxes are nested and the ground state decays geometrically in
    every gap, so the padded vector is nearly the answer.  The half box
    is the leading corner of the full one, which the gap reversal maps
    onto itself, so the padding commutes with the reversal and the
    real form of the half kernel is the restriction of the full one's.

    At theta = 0 the ground state is also even under the gap reversal
    N_k <-> N_{n+2-k}: the reversal commutes with the real kernel, whose
    off-diagonal entries are all negative on a connected box, so its
    ground state is simple and positive.  Densely, it is solved on the
    reversal-even block, about half the dimension, and lifted back to
    the full box (``lowest``).  By Lanczos, the half-box start is
    positive, so it cannot miss the ground state, and even, so the
    Krylov space is the even block's up to rounding; the Ritz vector is
    replaced by its even part, which is exactly even and, in exact
    arithmetic, has no larger residual, and the residual is taken again
    on the full kernel.  At theta != 0 the reversal does not commute
    with the real form, so neither is used.  Excited levels (k = 2 may
    be reversal-odd) and n <= 2, where the reversal is the identity, are
    solved on the full kernel from the default start.
    """
    if kernel.dim <= DENSE_GUARD:
        return lowest(kernel.to_csr(), k)
    if k != 1 or kernel.n < 3:
        return lanczos_lowest(kernel, k=k)
    res = lanczos_lowest(kernel, k=1, start=_half_truncation_start(kernel))
    if kernel.theta != 0.0:
        return res
    res.vectors = (res.vectors + kernel.reverse(res.vectors)) / 2.0
    res.residuals = np.linalg.norm(
        kernel @ res.vectors - res.vectors * res.values, axis=0
    )
    return res


def _half_truncation_start(kernel: ReducedKernel) -> np.ndarray | None:
    """Half-size ground state zero-padded into the kernel's box, or None.

    The box is C-ordered (first gap most significant), so the half box
    [1, half]^{n-1} is the leading corner of the full one; it is solved
    at the kernel's own theta.  None when the half box is at most
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


def generalized_lowest(
    a_sym: np.ndarray, gram: np.ndarray, k: int = 1
) -> EigenResult:
    """k lowest eigenpairs of A v = lambda G v with G positive definite.

    Dense Cholesky-based solve that computes only the k lowest levels
    (``subset_by_index``); a non-positive-definite G is a hard error
    because it means the underlying basis was degenerate.
    """
    check_dense_dim(a_sym.shape[0], "generalized")
    k = min(k, a_sym.shape[0])
    try:
        values, vectors = scipy.linalg.eigh(a_sym, gram, subset_by_index=[0, k - 1])
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NotPositiveDefiniteError(
            f"Gram matrix is not positive definite: {exc}"
        ) from exc
    residuals = np.linalg.norm(
        a_sym @ vectors - (gram @ vectors) * values, axis=0
    )
    return EigenResult(
        values=values,
        vectors=vectors,
        residuals=residuals,
        method="generalized-cholesky",
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
