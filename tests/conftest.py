"""Fixtures shared by the test modules."""

import pytest

from xxzdroplet import spectra


@pytest.fixture
def crossover(monkeypatch):
    """Setter for ``spectra.DENSE_CROSSOVER``, restored when the test ends.

    ``lowest`` and ``kernel_lowest`` solve a symmetric operator above
    that dimension by Lanczos and one at or below it densely:
    ``crossover(1)`` forces Lanczos onto every operator of dimension 2
    or more, and ``crossover(spectra.DENSE_GUARD)`` keeps dense every
    operator the memory guard lets through.  The guard itself is left
    as it is.
    """

    def set_to(dim: int) -> None:
        monkeypatch.setattr(spectra, "DENSE_CROSSOVER", dim)

    return set_to
