"""Exact dispersion and eigenvectors of a single n-droplet.

For q in (0, 1) and total momentum theta inside the fundamental cell
(-pi/n, pi/n), the capped total phase is

    Theta = 2 atan( ((1 + q^n)/(1 - q^n)) tan(n theta / 2) )  in (-pi, pi).

With z = e^{i Theta} and D_m(z) = z^{1/2} q^{m - 1/2} + z^{-1/2} q^{-m + 1/2},
the quasi-momentum ratios are

    Xi_m = D_m / D_{m+1},        xi_k = e^{-i theta} Xi_{k - (n+1)/2},

indexed by k = 1..n (m runs over half-integers symmetric about 0).
Consecutive factors satisfy the meeting condition
Xi_m + 1/Xi_{m+1} = 2 Delta, the full product xi_1 ... xi_n equals 1,
and the droplet energy has the closed form

    E_n(theta) = alpha (1 - q^{2n}) / |1 + q^n e^{i Theta}|^2,

which must agree with the telescoped sum
sum_k (1 - (Xi_m + 1/Xi_m)/(2 Delta)) to 1e-12; both are computed and
checked on every call.

The droplet eigenvector on gap coordinates is the product state
f(N_2..N_n) = prod_k P_k^{N_k - 1} with tail products
P_k = xi_k xi_{k+1} ... xi_n, normalized so the tightest droplet
(all gaps 1) has value 1.  All |P_k| < 1, so f is square-summable and,
applied to a boxed kernel, is an exact eigenvector on all interior rows;
only the n_max boundary rows carry a residual, which decays like
max_k |P_k|^{n_max}.

The kernel is held in the real form K~ = Re K + (Im K) R, with R the
gap reversal.  With that normalization f also satisfies R conj(f) = f,
so its real part is reversal-even and its imaginary part reversal-odd,
and w = Re f + Im f has the norm of f.  Certification runs on w:
K~ w - E w = Re r + Im r with r = K f - E f, of the norm of r.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .operators import Anisotropy, ReducedKernel, matvec

# identity tolerance for the internal closed-form vs telescoped check
_IDENTITY_TOL = 1e-12
# constructor guard for the meeting condition / product invariants
_CONSTRUCTION_TOL = 1e-9


def _check_cell(q: float, n: int, theta: float) -> None:
    if not (0.0 < q < 1.0):
        raise ValueError(f"need 0 < q < 1, got q={q}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if abs(theta) >= math.pi / n:
        raise ValueError(
            f"theta={theta} outside the open fundamental cell "
            f"(-pi/{n}, pi/{n})"
        )


def theta_cap(q: float, n: int, theta: float) -> float:
    """Total phase Theta in (-pi, pi); odd and strictly increasing."""
    _check_cell(q, n, theta)
    qn = math.exp(n * math.log(q))
    coef = (1.0 + qn) / (1.0 - qn)
    return 2.0 * math.atan(coef * math.tan(n * theta / 2.0))


@dataclass(frozen=True)
class BetheSolution:
    """Quasi-momentum data of one droplet; its energy is ``bethe_energy``."""

    q: float
    n: int
    theta: float
    Theta: float
    xi: tuple[complex, ...]

    def tail_products(self) -> tuple[complex, ...]:
        """Per-gap weights P_k = xi_{n+2-k} ... xi_n for k = 2..n.

        Gap k grows with the product of the last k - 1 factors; at
        theta = 0 (and for n = 2) the reflection identity
        xi_j = 1/xi_{n+1-j} makes this equal to the head-indexed
        product xi_k ... xi_n, but for complex momenta only this
        ordering solves the interior recursion.  Empty for n = 1.
        """
        out = []
        acc = 1.0 + 0.0j
        for x in reversed(self.xi[1:]):
            acc = acc * x
            out.append(acc)
        return tuple(out)

    def tail_magnitudes(self) -> tuple[float, ...]:
        return tuple(abs(p) for p in self.tail_products())

    def decay_ratio(self) -> float:
        """max_k |P_k|; 0 for n = 1 (no interior structure)."""
        mags = self.tail_magnitudes()
        return max(mags) if mags else 0.0


def _big_d(m: float, q: float, half: complex) -> complex:
    # half-integer powers of q go through exp(m log q) explicitly
    return half * math.exp((m - 0.5) * math.log(q)) + half.conjugate() * math.exp(
        (-m + 0.5) * math.log(q)
    )


def xi_factors(q: float, n: int, theta: float) -> BetheSolution:
    """Quasi-momentum factors xi_1..xi_n.

    Raises if the meeting condition, the unit product, or
    normalizability fail beyond numerical tolerance; these are
    identities, so a failure means the parameters are pathological.
    """
    Theta = theta_cap(q, n, theta)
    half = cmath.exp(0.5j * Theta)
    ms = [k - (n + 1) / 2.0 for k in range(1, n + 2)]
    d_vals = [_big_d(m, q, half) for m in ms]
    big_xi = [d_vals[i] / d_vals[i + 1] for i in range(n)]
    phase = cmath.exp(-1j * theta)
    xi = tuple(phase * x for x in big_xi)

    two_delta = q + 1.0 / q
    for i in range(n - 1):
        gap = abs(big_xi[i] + 1.0 / big_xi[i + 1] - two_delta)
        if gap > _CONSTRUCTION_TOL * max(1.0, two_delta):
            raise ValueError(
                f"meeting condition violated at pair {i}: residual {gap:g}"
            )
    prod = np.prod(np.array(xi)) if xi else 1.0
    if abs(prod - 1.0) > _CONSTRUCTION_TOL:
        raise ValueError(f"xi product deviates from 1 by {abs(prod - 1.0):g}")

    sol = BetheSolution(q=q, n=n, theta=theta, Theta=Theta, xi=xi)
    if theta == 0.0 and any(
        abs(x.imag) > _CONSTRUCTION_TOL or x.real <= 0.0 for x in xi
    ):
        raise ValueError("xi factors must be real positive at theta = 0")
    if any(m >= 1.0 for m in sol.tail_magnitudes()):
        raise ValueError("droplet vector not normalizable: some |P_k| >= 1")
    return sol


def bethe_energy(q: float, n: int, theta: float) -> float:
    """Droplet energy E_n(theta); 0 for n = 0.

    Evaluates the closed form and the telescoped quasi-momentum sum and
    insists they agree to 1e-12 before returning the closed form.
    """
    if n == 0:
        return 0.0
    sol = xi_factors(q, n, theta)
    a = Anisotropy(q)
    qn = math.exp(n * math.log(q))
    denom = 1.0 + 2.0 * qn * math.cos(sol.Theta) + qn * qn
    closed = a.alpha * (1.0 - qn * qn) / denom

    half = cmath.exp(0.5j * sol.Theta)
    two_delta = a.two_delta
    total = 0.0 + 0.0j
    for k in range(1, n + 1):
        m = k - (n + 1) / 2.0
        big = _big_d(m, q, half) / _big_d(m + 1.0, q, half)
        total += 1.0 - (big + 1.0 / big) / two_delta
    if abs(total.imag) > _IDENTITY_TOL or abs(total.real - closed) > _IDENTITY_TOL:
        raise AssertionError(
            f"dispersion identity failed: closed={closed!r}, "
            f"telescoped={total!r}"
        )
    return closed


def minimum_energy(q: float, n: int) -> float:
    """Zone minimum E_n(0) = alpha (1 - q^n)/(1 + q^n); 0 for n = 0."""
    if n == 0:
        return 0.0
    if not (0.0 < q < 1.0):
        raise ValueError(f"need 0 < q < 1, got q={q}")
    qn = math.exp(n * math.log(q))
    return Anisotropy(q).alpha * (1.0 - qn) / (1.0 + qn)


def alternate_closed_form(q: float, n: int, theta: float) -> float:
    """Alternative explicit dispersion variant, kept for comparison only.

    Matches the certified energy at theta = 0 and reproduces the
    isotropic limit, but disagrees away from theta = 0 (for example it
    yields 1.8 where certification gives 1.0 at q=0.5, n=1,
    theta=pi/2).  Scan reports emit it alongside the certified value;
    nothing in the package asserts agreement.
    """
    if n == 0:
        return 0.0
    if not (0.0 < q < 1.0):
        raise ValueError(f"need 0 < q < 1, got q={q}")
    qn = math.exp(n * math.log(q))
    lead = (1.0 - q * q) / ((1.0 + q * q) * (1.0 + qn))
    return lead * (1.0 - qn + 2.0 * (1.0 - math.cos(theta)) / (1.0 - qn))


def bethe_vector(sol: BetheSolution, n_max: int) -> np.ndarray:
    """Droplet eigenvector on the gap box [1, n_max]^(n-1), tightest entry 1.

    Flattened in C order, first gap most significant, as the kernel
    numbers its rows.  Real (positive) at theta = 0, complex otherwise:
    an eigenvector of the complex kernel, which ``certify_eigenpair``
    maps to the kernel's real form.
    """
    if sol.n == 1:
        return np.ones(1)
    real = sol.theta == 0.0
    dtype = np.float64 if real else np.complex128
    width = sol.n - 1
    # rank one on the C-ordered gap box: gap k varies along axis k - 2
    powers = np.arange(n_max)
    vec = np.ones((n_max,) * width, dtype=dtype)
    for j, p in enumerate(sol.tail_products()):
        base = p.real if real else p
        vec *= np.power(base, powers).reshape((-1,) + (1,) * (width - 1 - j))
    return vec.ravel()


@dataclass(frozen=True)
class CertificationReport:
    q: float
    n: int
    theta: float
    n_max: int
    energy: float
    interior_residual: float
    interior_bound: float
    global_residual: float
    decay_ratio: float
    passed: bool

    def summary(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{verdict}: n={self.n} theta={self.theta:.6g} q={self.q} "
            f"n_max={self.n_max} energy={self.energy:.12g} "
            f"interior={self.interior_residual:.3g} "
            f"global={self.global_residual:.3g} ratio={self.decay_ratio:.3g}"
        )


def certify_eigenpair(sol: BetheSolution, kernel: ReducedKernel) -> CertificationReport:
    """Check the droplet vector against a truncated kernel.

    The check runs on the real form: w = Re f + Im f against the real
    kernel K~ (w = f at theta = 0).  Interior rows (all gaps < n_max),
    a leading corner of the box that the reversal maps onto itself,
    must match exactly up to rounding: the residual there is required to
    stay below 1e-10 times the sup norm of w.  The reported global
    residual is ||K~ w - E w|| / ||w||, equal to ||K f - E f|| / ||f||,
    and decays geometrically in n_max with ratio max_k |P_k|.
    """
    a = kernel.anisotropy
    if not (
        sol.q == a.q and sol.n == kernel.n and sol.theta == kernel.theta
    ):
        raise ValueError(
            "solution and kernel parameters disagree: "
            f"({sol.q}, {sol.n}, {sol.theta}) vs "
            f"({a.q}, {kernel.n}, {kernel.theta})"
        )
    energy = bethe_energy(sol.q, sol.n, sol.theta)
    f = bethe_vector(sol, kernel.n_max)
    vec = f.real + f.imag
    resid = matvec(kernel, vec) - energy * vec

    # interior rows: every gap below n_max, a leading corner of the box
    box = (kernel.n_max,) * (kernel.n - 1)
    interior = resid.reshape(box)[(slice(-1),) * (kernel.n - 1)]
    sup = float(np.abs(vec).max())
    interior_residual = float(np.abs(interior).max()) if interior.size else 0.0
    bound = 1e-10 * sup
    global_residual = float(
        np.linalg.norm(resid) / np.linalg.norm(vec)
    )
    return CertificationReport(
        q=sol.q,
        n=sol.n,
        theta=sol.theta,
        n_max=kernel.n_max,
        energy=energy,
        interior_residual=interior_residual,
        interior_bound=bound,
        global_residual=global_residual,
        decay_ratio=sol.decay_ratio(),
        passed=interior_residual <= bound,
    )
