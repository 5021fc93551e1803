"""Bitmask sector builders against the per-configuration reference loops.

Both sides must give the same CSR arrays bit for bit: shape, indptr,
indices and data.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import sector_oracle as oracle
from xxzdroplet.brackets import SuqGenerators, build_R
from xxzdroplet.operators import (
    Anisotropy,
    BoundaryCondition,
    build_momentum_block,
    build_sector_hamiltonian,
)
from xxzdroplet.sector_basis import enumerate_sector, ring_orbits

qs = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)


@st.composite
def chains(draw, max_L=12):
    L = draw(st.integers(min_value=1, max_value=max_L))
    return L, draw(st.integers(min_value=0, max_value=L))


@st.composite
def boundaries(draw):
    tag = draw(st.sampled_from(("open", "kink", "droplet", "cyclic")))
    if tag == "droplet":
        delta = draw(st.floats(min_value=1.0, max_value=5.0, allow_nan=False))
        return BoundaryCondition.droplet(delta)
    return BoundaryCondition(tag)


def assert_same_csr(new, ref):
    assert new.shape == ref.shape
    assert new.matrix.dtype == ref.matrix.dtype
    assert np.array_equal(new.matrix.indptr, ref.matrix.indptr)
    assert np.array_equal(new.matrix.indices, ref.matrix.indices)
    assert new.matrix.data.tobytes() == ref.matrix.data.tobytes()


@settings(max_examples=150, deadline=None)
@given(qs, chains(), boundaries())
def test_sector_hamiltonian_matches_oracle(q, chain, bc):
    L, n = chain
    a = Anisotropy(q)
    op, basis = build_sector_hamiltonian(L, n, bc, a)
    assert tuple(basis) == oracle.sector(L, n)[0]
    assert_same_csr(op, oracle.sector_hamiltonian(L, n, bc, a))


@settings(max_examples=100, deadline=None)
@given(qs, chains(), st.data())
def test_momentum_block_matches_oracle(q, chain, data):
    L, n = chain
    k = data.draw(st.integers(min_value=0, max_value=L - 1))
    a = Anisotropy(q)
    op = build_momentum_block(L, n, k, a)
    assert_same_csr(op, oracle.momentum_block(L, n, k, a))
    found, _ = oracle.orbits(L, n)
    basis = enumerate_sector(L, n)
    rep, _, size = ring_orbits(basis)
    heads = np.flatnonzero(rep == np.arange(len(basis)))
    assert [(basis[i], int(size[i])) for i in heads] == found
    assert op.dim == sum(1 for _, s in found if (k * s) % L == 0)


@settings(max_examples=100, deadline=None)
@given(qs, chains())
def test_ladder_maps_match_oracle(q, chain):
    L, n = chain
    gens = SuqGenerators(L=L, anisotropy=Anisotropy(q))
    if n < L:
        assert_same_csr(gens.lowering(n), oracle.lowering(L, n, q))
    if n > 0:
        assert_same_csr(gens.raising(n), oracle.raising(L, n, q))


@settings(max_examples=3, deadline=None)
@given(qs)
def test_intertwiner_matches_oracle(q):
    a = Anisotropy(q)
    for L in range(15):
        for n in range(L + 1):
            assert_same_csr(build_R(L, n, a)[0], oracle.intertwiner(L, n, a))


def test_every_small_sector_matches_oracle():
    a = Anisotropy(0.3)
    for L in range(1, 9):
        for n in range(L + 1):
            for bc in (
                BoundaryCondition.open(),
                BoundaryCondition.kink(),
                BoundaryCondition.cyclic(),
                BoundaryCondition.droplet(2.5),
            ):
                op, _ = build_sector_hamiltonian(L, n, bc, a)
                assert_same_csr(op, oracle.sector_hamiltonian(L, n, bc, a))


def test_long_chain_matches_oracle():
    # beyond 62 sites the masks are Python integers
    L, n, q = 70, 2, 0.5
    a = Anisotropy(q)
    assert enumerate_sector(L, n).masks.dtype == object
    for bc in (BoundaryCondition.kink(), BoundaryCondition.droplet(1.5)):
        op, _ = build_sector_hamiltonian(L, n, bc, a)
        assert_same_csr(op, oracle.sector_hamiltonian(L, n, bc, a))
    op = build_momentum_block(L, n, 3, a)
    assert_same_csr(op, oracle.momentum_block(L, n, 3, a))
    gens = SuqGenerators(L=L, anisotropy=a)
    assert_same_csr(gens.lowering(1), oracle.lowering(L, 1, q))
    assert_same_csr(gens.raising(n), oracle.raising(L, n, q))
    for n in range(3):
        rmap, sector, _ = build_R(66, n, a)
        assert sector.masks.dtype == object
        assert_same_csr(rmap, oracle.intertwiner(66, n, a))
