"""Invariant batteries behind ``xxzdroplet verify``.

Each suite maps (max_L, seed) to named pass/fail checks: Temperley-Lieb
relations (``tl``), intertwiner identities (``rmaps``), Perron-Frobenius
certificates of the shifted droplet kernel (``pf``), Wielandt domination
(``wielandt``) and monotonicity in n_max and in L (``mono``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .bethe import bethe_energy, bethe_vector, minimum_energy, xi_factors
from .brackets import (
    SuqGenerators,
    build_R,
    build_hw_matrix,
    enumerate_brackets,
    hw_dimension,
    hw_gram_lowest,
    tl_matrix,
)
from .operators import (
    Anisotropy,
    BoundaryCondition,
    ReducedKernel,
    SparseOperator,
    build_reduced_kernel,
    build_sector_hamiltonian,
)
from .sector_basis import sector_dimension
from .spectra import check_dense_dim, lowest, pf_check, wielandt_check


# particle number -> nested n_max boxes of the truncation checks
TRUNCATION_BOXES = {2: (10, 20, 40, 80), 3: (10, 20, 40)}


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _max_abs(arr) -> float:
    arr = np.asarray(arr)
    return float(np.abs(arr).max()) if arr.size else 0.0


def shifted_kernel(kernel: ReducedKernel, shift: float) -> SparseOperator:
    """shift I - K as a symmetric CSR operator.

    For the real theta = 0 kernel and shift = n, every entry is
    nonnegative: the hops are negative and the diagonal is at most n.
    """
    mat = sp.identity(kernel.dim, format="csr") * shift - kernel.to_csr().matrix
    return SparseOperator(mat.tocsr(), "symmetric")


def suite_tl(max_L: int, seed: int) -> list[CheckResult]:
    """Diagram-algebra relations and the per-bond projector identity."""
    checks = []
    for q in (0.5, 0.9):
        a = Anisotropy(q)
        c = a.two_delta
        tol = 1e-12 * (1.0 + c) ** 2
        for L in range(2, max_L + 1):
            for n in range(1, L // 2 + 1):
                check_dense_dim(hw_dimension(L, n), "dense")
                basis = enumerate_brackets(L, n)
                if len(basis) == 0:
                    continue
                mats = [tl_matrix(x, basis, a).to_dense() for x in range(1, L)]
                worst = 0.0
                for U in mats:
                    worst = max(worst, _max_abs(U @ U + c * U))
                for x in range(len(mats) - 1):
                    U, V = mats[x], mats[x + 1]
                    worst = max(worst, _max_abs(U @ V @ U - U))
                    worst = max(worst, _max_abs(V @ U @ V - V))
                for x in range(len(mats)):
                    for y in range(x + 2, len(mats)):
                        worst = max(
                            worst, _max_abs(mats[x] @ mats[y] - mats[y] @ mats[x])
                        )
                checks.append(CheckResult(
                    f"tl-relations-q{q}-L{L}-n{n}", worst <= tol,
                    f"max deviation {worst:.3g}",
                ))
        # the kink bond on two sites squares to itself sector by sector
        worst = 0.0
        for n in range(0, 3):
            op, _ = build_sector_hamiltonian(2, n, BoundaryCondition.kink(), a)
            hd = op.to_dense()
            worst = max(worst, _max_abs(hd @ hd - hd))
        checks.append(CheckResult(
            f"kink-bond-projector-q{q}", worst <= 1e-12, f"max |h^2 - h| = {worst:.3g}"
        ))
    return checks


def suite_rmaps(max_L: int, seed: int) -> list[CheckResult]:
    """Intertwiner identities: norms, annihilation, commutation."""
    checks = []
    for q in (0.5, 0.8):
        a = Anisotropy(q)
        s = math.sqrt(q)
        for L in range(2, max_L + 1):
            gens = SuqGenerators(L=L, anisotropy=a)
            for n in range(1, L // 2 + 1):
                # R is densified, sector x brackets, and there are fewer
                # brackets than sector states
                check_dense_dim(sector_dimension(L, n), "dense")
                rmap, _, hw = build_R(L, n, a)
                if len(hw) == 0:
                    continue
                dense_r = rmap.to_dense()
                scale = max(1.0, _max_abs(dense_r) * L)
                tol = 1e-12 * scale

                opk, _ = build_sector_hamiltonian(L, n, BoundaryCondition.kink(), a)
                hw_op, _ = build_hw_matrix(L, n, a)
                inter = opk.matrix @ dense_r - dense_r @ hw_op.to_dense()
                dev_inter = _max_abs(inter)

                dev_raise = _max_abs(gens.raising(n).matrix @ dense_r)

                col_norms = np.abs(dense_r).sum(axis=0)
                target = (1.0 / s + s) ** n
                dev_cols = _max_abs(col_norms - target)

                row_norms = np.abs(dense_r).sum(axis=1)
                row_bound = math.factorial(2 * n) / math.factorial(n) / s
                rows_ok = bool(row_norms.max() <= row_bound + 1e-9)

                ok = (
                    dev_inter <= tol
                    and dev_raise <= tol
                    and dev_cols <= 1e-12 * target
                    and rows_ok
                )
                checks.append(CheckResult(
                    f"rmap-q{q}-L{L}-n{n}", ok,
                    f"intertwine {dev_inter:.3g}, raise {dev_raise:.3g}, "
                    f"cols {dev_cols:.3g}, rows<=bound {rows_ok}",
                ))
        # lowering maps commute with the kink chain between sectors
        L = min(max_L, 8)
        gens = SuqGenerators(L=L, anisotropy=a)
        worst = 0.0
        for n in range(0, L // 2):
            low = gens.lowering(n)
            h_n, _ = build_sector_hamiltonian(L, n, BoundaryCondition.kink(), a)
            h_n1, _ = build_sector_hamiltonian(L, n + 1, BoundaryCondition.kink(), a)
            comm = h_n1.matrix @ low.matrix - low.matrix @ h_n.matrix
            scale = max(1.0, _max_abs(low.to_dense()) * L)
            worst = max(worst, _max_abs(comm.toarray()) / scale)
        checks.append(CheckResult(
            f"ladder-commute-q{q}-L{L}", worst <= 1e-12,
            f"max scaled commutator {worst:.3g}",
        ))
    return checks


def pf_kernel_case(q: float, n: int, n_max: int) -> CheckResult:
    """Perron-Frobenius certificate of n I - K with the theta = 0 Bethe vector."""
    a = Anisotropy(q)
    kernel = build_reduced_kernel(n, 0.0, a, n_max)
    shift = float(n)
    op = shifted_kernel(kernel, shift)
    sol = xi_factors(q, n, 0.0)
    vec = bethe_vector(sol, kernel.n_max)
    value = shift - bethe_energy(q, n, 0.0)
    report = pf_check(op, vec, value)
    return CheckResult(
        f"pf-droplet-q{q}-n{n}-nmax{n_max}", report.passed, report.summary()
    )


def _suite_pf(max_L: int, seed: int) -> list[CheckResult]:
    cases = [(0.5, 1, 40), (0.5, 2, 110), (0.5, 3, 68), (0.3, 2, 40)]
    return [pf_kernel_case(q, n, m) for q, n, m in cases]


def _random_nonneg_symmetric(rng, dim: int) -> SparseOperator:
    dense = rng.random((dim, dim))
    dense[rng.random((dim, dim)) < 0.5] = 0.0
    dense = (dense + dense.T) / 2.0
    return SparseOperator(sp.csr_matrix(dense), "symmetric")


def wielandt_truncation_case(n: int, boxes) -> CheckResult:
    """At q = 0.5, each shifted kernel dominates the next smaller box's.

    The [1, small]^(n-1) box is the leading corner of the
    [1, big]^(n-1) box, so its rows are that corner's flat indices.
    """
    a = Anisotropy(0.5)
    shift = float(n)
    ok = True
    details = []
    for small, big in zip(boxes, boxes[1:]):
        k_small = build_reduced_kernel(n, 0.0, a, small)
        k_big = build_reduced_kernel(n, 0.0, a, big)
        corner = (slice(small),) * (n - 1)
        sub_idx = np.arange(k_big.dim).reshape((big,) * (n - 1))[corner].ravel()
        rep = wielandt_check(
            shifted_kernel(k_big, shift), sub_idx, shifted_kernel(k_small, shift)
        )
        ok = ok and rep.passed
        details.append(f"{small}->{big}: slack {rep.slack:.3g}")
    return CheckResult(f"wielandt-truncation-n{n}", ok, "; ".join(details))


def _suite_wielandt(max_L: int, seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    checks = []
    worst_slack = math.inf
    count = 25
    all_ok = True
    for i in range(count):
        dim = int(rng.integers(5, 121))
        op = _random_nonneg_symmetric(rng, dim)
        size = int(rng.integers(1, dim + 1))
        subset = rng.choice(dim, size=size, replace=False)
        if i % 5 == 4:
            # explicitly dominated sub-kernel instead of the restriction
            idx = np.sort(subset)
            sub = op.matrix[idx][:, idx] * 0.9
            rep = wielandt_check(op, subset, SparseOperator(sub, "symmetric"))
        else:
            rep = wielandt_check(op, subset)
        all_ok = all_ok and rep.passed
        worst_slack = min(worst_slack, rep.slack)
    checks.append(CheckResult(
        "wielandt-random-kernels", all_ok,
        f"{count} kernels, min slack {worst_slack:.3g}",
    ))
    checks += [wielandt_truncation_case(n, b) for n, b in TRUNCATION_BOXES.items()]
    return checks


def _suite_mono(max_L: int, seed: int) -> list[CheckResult]:
    checks = []
    q = 0.5
    a = Anisotropy(q)
    for n, boxes in TRUNCATION_BOXES.items():
        for theta in (0.0, math.pi / (2 * n)):
            vals = []
            for n_max in boxes:
                kernel = build_reduced_kernel(n, theta, a, n_max)
                vals.append(float(lowest(kernel.to_csr(), 1).values[0]))
            ok = all(b <= x + 1e-12 for x, b in zip(vals, vals[1:]))
            detail = f"theta={theta:.4g}: " + " >= ".join(f"{v:.10g}" for v in vals)
            if theta == 0.0:
                target = bethe_energy(q, n, 0.0)
                ok = ok and abs(vals[-1] - target) <= 1e-8
                detail += f", target {target:.10g}"
            checks.append(CheckResult(f"kernel-truncation-monotone-n{n}", ok, detail))
    for n in (1, 2):
        Ls = list(range(2 * n, min(12, max(max_L, 2 * n + 3)) + 1))
        vals = [float(hw_gram_lowest(L, n, a).values[0]) for L in Ls]
        target = minimum_energy(q, n)
        decreasing = all(b < x for x, b in zip(vals, vals[1:]))
        above = all(v >= target - 1e-12 for v in vals)
        checks.append(CheckResult(
            f"kink-monotone-n{n}", decreasing and above,
            f"L={Ls[0]}..{Ls[-1]}: first {vals[0]:.8g}, "
            f"last {vals[-1]:.8g}, target {target:.8g}",
        ))
    return checks


# suite name -> battery, in the order `--suite all` runs them
SUITES = {
    "tl": suite_tl,
    "rmaps": suite_rmaps,
    "pf": _suite_pf,
    "wielandt": _suite_wielandt,
    "mono": _suite_mono,
}
