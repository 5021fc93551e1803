"""Exact droplet dispersion: phases, quasi-momenta, vectors, certification."""

import cmath
import math

import numpy as np
import pytest

from xxzdroplet.bethe import (
    alternate_closed_form,
    bethe_energy,
    bethe_vector,
    certify_eigenpair,
    minimum_energy,
    theta_cap,
    xi_factors,
)
from xxzdroplet.operators import Anisotropy, build_reduced_kernel


def theta_grid(n, points=7):
    edge = math.pi / n
    return np.linspace(-edge, edge, points + 2)[1:-1]


def test_theta_cap_frozen_value():
    assert abs(theta_cap(0.5, 1, math.pi / 2) - 2.0 * math.atan(3.0)) < 1e-15


def test_theta_cap_is_odd_and_increasing():
    for q in (0.2, 0.5, 0.8):
        for n in (1, 2, 3):
            grid = theta_grid(n, 11)
            vals = [theta_cap(q, n, t) for t in grid]
            assert all(abs(v) < math.pi for v in vals)
            assert all(b > x for x, b in zip(vals, vals[1:]))
            for t in grid:
                assert abs(theta_cap(q, n, t) + theta_cap(q, n, -t)) < 1e-12


def test_theta_cap_rejects_out_of_cell():
    with pytest.raises(ValueError):
        theta_cap(0.5, 2, math.pi)
    with pytest.raises(ValueError):
        theta_cap(1.0, 2, 0.1)


def test_xi_factors_frozen_two_particle():
    sol = xi_factors(0.5, 2, 0.0)
    assert np.allclose(sol.xi, (1.25, 0.8), atol=1e-14)
    assert sol.Theta == 0.0
    assert abs(sol.decay_ratio() - 0.8) < 1e-14
    assert sol.tail_products() == (0.8 + 0.0j,)


@pytest.mark.parametrize("q", (0.2, 0.5, 0.8))
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_xi_identities_on_grid(q, n):
    two_delta = q + 1.0 / q
    for theta in theta_grid(n):
        sol = xi_factors(q, n, float(theta))
        prod = complex(np.prod(sol.xi))
        assert abs(prod - 1.0) < 1e-12
        # meeting condition on the theta-free factors
        big = [x * cmath.exp(1j * sol.theta) for x in sol.xi]
        for u, v in zip(big, big[1:]):
            assert abs(u + 1.0 / v - two_delta) < 1e-12
        assert all(m < 1.0 for m in sol.tail_magnitudes())


def test_closed_form_frozen_targets():
    targets = {1: 0.2, 2: 0.36, 3: 7.0 / 15.0, 4: 9.0 / 17.0}
    for n, e in targets.items():
        assert abs(bethe_energy(0.5, n, 0.0) - e) < 1e-14
        assert abs(minimum_energy(0.5, n) - e) < 1e-14
    assert bethe_energy(0.5, 0, 0.0) == 0.0
    assert minimum_energy(0.5, 0) == 0.0


@pytest.mark.parametrize("q", (0.2, 0.5, 0.8))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_dispersion_symmetry_and_minimum(q, n):
    e0 = bethe_energy(q, n, 0.0)
    for theta in theta_grid(n):
        theta = float(theta)
        e = bethe_energy(q, n, theta)
        assert abs(e - bethe_energy(q, n, -theta)) < 1e-12
        assert e >= e0 - 1e-12


def test_energy_monotone_in_n_at_zone_center():
    for q in (0.2, 0.5, 0.8):
        vals = [minimum_energy(q, n) for n in range(1, 6)]
        assert all(b > x for x, b in zip(vals, vals[1:]))


def test_energy_limits_in_q():
    # q -> 1: gap closes; q -> 0: energy -> 1
    assert minimum_energy(0.999999, 1) < 1e-5
    assert abs(minimum_energy(1e-6, 1) - 1.0) < 1e-5
    assert abs(minimum_energy(1e-6, 3) - 1.0) < 1e-5


def test_alternate_form_agrees_only_at_zone_center():
    assert abs(alternate_closed_form(0.5, 1, 0.0) - 0.2) < 1e-14
    assert abs(alternate_closed_form(0.5, 2, 0.0) - 0.36) < 1e-14
    # the advertised explicit variant is wrong away from theta = 0
    assert abs(alternate_closed_form(0.5, 1, math.pi / 2) - 1.8) < 1e-14
    assert abs(bethe_energy(0.5, 1, math.pi / 2) - 1.0) < 1e-14


def test_bethe_vector_frozen_two_particle():
    sol = xi_factors(0.5, 2, 0.0)
    vec = bethe_vector(sol, 6)
    assert np.allclose(vec, 0.8 ** np.arange(6), atol=1e-14)
    assert vec[0] == 1.0


@pytest.mark.parametrize("n", (2, 3, 4))
def test_bethe_vector_positive_at_zone_center(n):
    sol = xi_factors(0.4, n, 0.0)
    vec = bethe_vector(sol, 8)
    assert not np.iscomplexobj(vec)
    assert vec.min() > 0.0


def test_bethe_vector_norm_reconciliation():
    # squared norm factorizes over gaps with ratios |P_k|^2
    for q, n, theta in [(0.5, 2, 0.0), (0.5, 3, 0.3), (0.8, 3, 0.0)]:
        n_max = 24
        sol = xi_factors(q, n, theta)
        vec = bethe_vector(sol, n_max)
        brute = float(np.vdot(vec, vec).real)
        closed = 1.0
        for rho in (m * m for m in sol.tail_magnitudes()):
            closed *= (1.0 - rho**n_max) / (1.0 - rho)
        assert abs(brute - closed) < 1e-10 * closed


@pytest.mark.parametrize("n", (2, 3, 4, 5))
@pytest.mark.parametrize("phase", (0.0, 0.3, -0.7))
def test_bethe_vector_matches_digit_formula(n, phase):
    # f = prod_k P_k^(N_k - 1) row by row from the digit array, multiplied
    # in the same order as the rank-one build, so the bits agree; the
    # interior residual is the max over rows with every gap below n_max
    q, n_max = 0.5, 7
    theta = phase * math.pi / n
    sol = xi_factors(q, n, theta)
    kernel = build_reduced_kernel(n, theta, Anisotropy(q), n_max)
    digits = np.unravel_index(np.arange(kernel.dim), (n_max,) * (n - 1))
    expected = np.ones(kernel.dim, dtype=complex if theta else float)
    for j, p in enumerate(sol.tail_products()):
        expected *= np.power(p if theta else p.real, digits[j])
    vec = bethe_vector(sol, n_max)
    assert vec.dtype == expected.dtype
    assert vec.tobytes() == expected.tobytes()
    resid = kernel.to_csr().matrix @ vec - bethe_energy(q, n, theta) * vec
    interior = np.all([d <= n_max - 2 for d in digits], axis=0)
    report = certify_eigenpair(sol, kernel)
    assert report.interior_residual == np.abs(resid[interior]).max()


def test_certify_eigenpair_passes_and_decays():
    a = Anisotropy(0.5)
    sol = xi_factors(0.5, 2, 0.0)
    reports = []
    for n_max in (20, 40):
        kernel = build_reduced_kernel(2, 0.0, a, n_max)
        rep = certify_eigenpair(sol, kernel)
        assert rep.passed
        assert rep.interior_residual <= rep.interior_bound
        assert abs(rep.energy - 0.36) < 1e-14
        reports.append(rep)
    # Dirichlet surface error shrinks geometrically with the box
    assert reports[1].global_residual < reports[0].global_residual * 0.8**15
    assert "pass" in reports[1].summary()


def test_certify_eigenpair_rejects_mismatched_kernel():
    a = Anisotropy(0.5)
    kernel = build_reduced_kernel(2, 0.0, a, 10)
    sol = xi_factors(0.8, 2, 0.0)
    with pytest.raises(ValueError):
        certify_eigenpair(sol, kernel)
