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
K~ w - E w = Re r + Im r with r = K f - E f, of the norm of r; at
theta = 0, f is real and w is f.  It is one streamed pass:
w is written layer by layer from the factors, slab by slab of the
kernel's product, so neither w nor its product is held whole.  The
same writer gives w over the whole box (``real_form_vector``), the
start of the kernel's ground state at every theta.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import operators
from .operators import Anisotropy, ReducedKernel

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


def _gap_factors(sol: BetheSolution, n_max: int) -> list[np.ndarray]:
    # P_k^(N_k - 1) over N_k = 1..n_max for each gap k = 2..n, real at
    # theta = 0; gap k varies along axis k - 2 of the C-ordered box
    real = sol.theta == 0.0
    powers = np.arange(n_max)
    return [np.power(p.real if real else p, powers) for p in sol.tail_products()]


def _leading_product(factors: list[np.ndarray]) -> np.ndarray:
    # the outer product of every gap's factor but the last, a box of one
    # dimension less, multiplied from 1 in gap order as the full vector is
    head = np.ones((), factors[0].dtype)
    for factor in factors[:-1]:
        head = np.multiply.outer(head, factor)
    return head


def bethe_vector(sol: BetheSolution, n_max: int) -> np.ndarray:
    """Droplet eigenvector on the gap box [1, n_max]^(n-1), tightest entry 1.

    Flattened in C order, first gap most significant, as the kernel
    numbers its rows.  Real (positive) at theta = 0, complex otherwise:
    an eigenvector of the complex kernel, whose real form
    ``certify_eigenpair`` writes layer by layer from the same factors
    instead.  It is written as one outer product,
    of the leading gaps' factors with the last gap's, so besides the
    vector it allocates only that leading product, 1/n_max of the box.
    """
    if sol.n == 1:
        return np.ones(1)
    factors = _gap_factors(sol, n_max)
    return np.multiply.outer(_leading_product(factors), factors[-1]).ravel()


def _real_form_rows(sol: BetheSolution, n_max: int):
    """Writer of rows of the real-form droplet vector w, layer by layer.

    w is Re f + Im f for f = ``bethe_vector``, which is f itself at
    theta = 0.  Returns fill(rows, reverse, out), the operand of
    ``ReducedKernel.slab_products``: it writes the rows ``rows`` of w,
    or of R w when reverse is true, whole layers along the first gap
    (n_max^(n-2) rows each), into out and returns out.  With F the outer
    product of the leading gaps' factors and u the last gap's, f is F
    (x) u, so layer a of f is F[a] (x) u and layer a of R f is Q u[a],
    with Q the transpose of F (its axes reversed): each layer comes from
    the factors, which are 1/n_max of the box, and no other box vector.
    For n <= 2 a unit last factor makes the layers single rows.  The
    kernel asks for R w only at theta != 0 and n >= 3, where f is
    complex.
    """
    factors = _gap_factors(sol, n_max) if sol.n > 1 else [np.ones(1)]
    if sol.n <= 2:
        factors.append(np.ones(1))
    head, last = _leading_product(factors), factors[-1]
    layer = head.shape[1:] + last.shape
    size = math.prod(layer)
    # layers are written a run at a time: a real f (theta = 0, or n = 1)
    # straight into out, a complex one through one scratch of about an
    # eighth of a slab and at least one layer
    run = max(1, operators.SLAB_BYTES // (8 * head.itemsize * size))
    real = head.dtype.kind == "f"
    if not real:
        rev = np.ascontiguousarray(head.transpose())
        scratch = np.empty((min(run, len(head)),) + layer, head.dtype)

    def fill(rows, reverse, out):
        layers = out.reshape((-1,) + layer)
        first = rows.start // size
        for lo in range(0, len(layers), run):
            block = layers[lo : lo + run]
            a = slice(first + lo, first + lo + len(block))
            if real:
                np.multiply.outer(head[a], last, out=block)
                continue
            part = scratch[: len(block)]
            if reverse:
                # layer a of R f is Q u[a], a run of them one product
                tail = last[a].reshape((-1,) + (1,) * rev.ndim)
                np.multiply(rev, tail, out=part)
            else:
                np.multiply.outer(head[a], last, out=part)
            np.add(part.real, part.imag, out=block)
        return out

    return fill


def real_form_vector(sol: BetheSolution, n_max: int) -> np.ndarray:
    """The real-form droplet vector w on the whole box [1, n_max]^(n-1).

    Re f + Im f for f = ``bethe_vector``, and f itself at theta = 0,
    bit for bit.  It is the whole box written by the writer whose rows
    ``certify_eigenpair`` streams, so neither f nor any other box vector
    is formed.
    """
    rows = slice(0, n_max ** (sol.n - 1))
    return _real_form_rows(sol, n_max)(rows, False, np.empty(rows.stop))


@dataclass(frozen=True)
class CertificationReport:
    """The droplet vector w against a truncated kernel, r = K~ w - E w.

    ``norm_sq``, ``overlap`` and ``residual_sq`` are w . w, w . r and
    r . r, from which a caller forms w's Rayleigh quotient E + w . r /
    w . w and its residual without the vectors.
    """

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
    norm_sq: float
    overlap: float
    residual_sq: float

    def summary(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{verdict}: n={self.n} theta={self.theta:.6g} q={self.q} "
            f"n_max={self.n_max} energy={self.energy:.12g} "
            f"interior={self.interior_residual:.3g} "
            f"global={self.global_residual:.3g} ratio={self.decay_ratio:.3g}"
        )


def certify_eigenpair(sol: BetheSolution, kernel: ReducedKernel) -> CertificationReport:
    """Check the droplet vector against a truncated kernel, in one pass.

    The check runs on the real form: w = Re f + Im f (f at theta = 0)
    against the real kernel K~.  It streams: slab by slab
    (``ReducedKernel.slab_products``), w and, at theta != 0, R w are
    written from the closed-form factors on the slab and one layer
    either side of it, the slab's rows of K~ w are formed from them,
    and r = K~ w - E w is reduced on the slab at once.  So besides the
    kernel no box vector is held, only a few slabs and the factors.
    The sums w . w, w . r and r . r, the sup norm of w and the largest
    interior |r| are numpy reductions, summed in a fixed order whatever
    the BLAS thread count.
    Interior rows (all gaps < n_max) must match exactly up to rounding:
    the residual there is required to stay below 1e-10 times the sup
    norm of w (its largest entry at theta = 0, where w is positive).
    The reported global residual is ||r|| / ||w||, equal to ||K f - E f||
    / ||f||, and decays geometrically in n_max with ratio max_k |P_k|.
    ``spectra.kernel_lowest`` takes the Rayleigh quotient and residual
    of its Bethe start from the same report.
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
    n, n_max, dim = kernel.n, kernel.n_max, kernel.dim
    tmp = np.empty(kernel.slabs()[0].stop)
    norm_sq = overlap = residual_sq = sup = interior = 0.0
    for rows, w, r in kernel.slab_products(_real_form_rows(sol, n_max)):
        w, r = w.reshape(-1), r.reshape(-1)
        part = tmp[: len(r)]
        r -= np.multiply(energy, w, out=part)
        norm_sq += np.add.reduce(np.multiply(w, w, out=part))
        overlap += np.add.reduce(np.multiply(w, r, out=part))
        residual_sq += np.add.reduce(np.multiply(r, r, out=part))
        sup = max(sup, w.max(), -w.min())
        # interior rows: every gap below n_max.  r's rows on the far
        # faces are zeroed, so its largest and most negative entries
        # give the interior's largest |r| (0 when every row is on a face)
        box = r.reshape((-1,) + (n_max,) * max(n - 2, 0))
        for axis in range(1, n - 1):
            box[(slice(None),) * axis + (-1,)] = 0.0
        if n > 1 and rows.stop == dim:
            box[-1] = 0.0
        interior = max(interior, r.max(), -r.min())
    interior, bound = float(interior), 1e-10 * float(sup)
    return CertificationReport(
        q=sol.q,
        n=sol.n,
        theta=sol.theta,
        n_max=n_max,
        energy=energy,
        interior_residual=interior,
        interior_bound=bound,
        global_residual=math.sqrt(residual_sq / norm_sq),
        decay_ratio=sol.decay_ratio(),
        passed=interior <= bound,
        norm_sq=float(norm_sq),
        overlap=float(overlap),
        residual_sq=float(residual_sq),
    )
