"""Droplet spectra and algebraic structure of the ferromagnetic XXZ chain.

Subpackages by task:

* ``sector_basis`` -- magnetization sectors, the gap box, ring orbits
* ``operators``    -- sector Hamiltonians for four boundary conditions,
                      momentum blocks, truncated droplet kernels
* ``bethe``        -- exact droplet dispersion and eigenvector certification
* ``brackets``     -- bracket (highest-weight) bases, Temperley-Lieb moves,
                      the intertwining map to the Ising sector, E(L, n) by
                      the Gram route, quantum-group ladder operators
* ``spectra``      -- dense/Lanczos/generalized eigensolvers, positivity and
                      domination checks, geometric extrapolation
* ``verify``       -- invariant batteries: diagram relations, intertwiner
                      identities, positivity and domination certificates,
                      truncation and chain-length monotonicity
* ``cli``          -- command-line scans and the verify report
"""

from .operators import Anisotropy, BoundaryCondition

__version__ = "0.1.0"

__all__ = ["Anisotropy", "BoundaryCondition", "__version__"]
