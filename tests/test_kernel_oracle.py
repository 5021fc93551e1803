"""The real-form droplet kernel against the complex one built from the hop formula."""

import math

import numpy as np
import pytest
import scipy.linalg

from kernel_oracle import complex_kernel, reversal
from xxzdroplet.operators import Anisotropy, build_reduced_kernel
from xxzdroplet.spectra import kernel_lowest

BOXES = [(1, 4), (2, 9), (3, 7), (4, 5), (5, 4)]
THETAS = [0.0, 0.3, -0.7, math.pi / 7, -1e-9]


@pytest.mark.parametrize("n, n_max", BOXES)
@pytest.mark.parametrize("theta", THETAS)
def test_reversal_conjugates_the_oracle(n, n_max, theta):
    # R K R = conj K and K = K^H, both exactly
    dense = complex_kernel(n, theta, 0.5, n_max).toarray()
    rev = reversal(n, n_max)
    assert np.array_equal(dense[rev][:, rev], dense.conj())
    assert np.array_equal(dense, dense.conj().T)


@pytest.mark.parametrize("n, n_max", BOXES[1:])
@pytest.mark.parametrize("theta", THETAS)
def test_real_form_csr_matches_oracle(n, n_max, theta):
    # to_csr() is real, exactly symmetric, and Re K + (Im K) R entry for
    # entry; at theta = 0 (and for n = 2, whose hops' imaginary parts
    # cancel) it is K itself.  For n = 1 both hops land on the diagonal,
    # whose three terms the oracle sums in another order
    kernel = build_reduced_kernel(n, theta, Anisotropy(0.5), n_max)
    mat = kernel.to_csr()
    assert mat.symmetry == "symmetric" and mat.matrix.dtype == np.float64
    real_form = mat.to_dense()
    assert np.array_equal(real_form, real_form.T)
    dense = complex_kernel(n, theta, 0.5, n_max).toarray()
    assert np.array_equal(real_form, dense.real + dense.imag[:, reversal(n, n_max)])
    if theta == 0.0 or n <= 2:
        assert not dense.imag.any() and np.array_equal(real_form, dense.real)


@pytest.mark.parametrize("n, n_max", [(2, 40), (3, 30), (4, 12), (5, 6)])
@pytest.mark.parametrize("frac", [0.3, -0.8])
def test_real_form_spectrum_matches_oracle(n, n_max, frac):
    # the two lowest levels of the real form are those of K
    theta = frac * math.pi / n
    kernel = build_reduced_kernel(n, theta, Anisotropy(0.5), n_max)
    res = kernel_lowest(kernel, 2)
    ref = scipy.linalg.eigh(
        complex_kernel(n, theta, 0.5, n_max).toarray(),
        eigvals_only=True,
        subset_by_index=[0, 1],
    )
    assert np.abs(res.values - ref).max() < 1e-13
