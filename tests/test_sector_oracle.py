"""Bitmask sector builders against the per-configuration reference loops.

Both sides must give the same CSR arrays bit for bit: shape, indptr,
indices and data.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sector_oracle as oracle
from xxzdroplet.brackets import (
    SuqGenerators,
    build_R,
    build_hw_matrix,
    enumerate_brackets,
    tl_matrix,
)
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
    assert basis.masks.tolist() == [oracle.mask(c, L) for c in oracle.sector(L, n)[0]]
    assert_same_csr(op, oracle.sector_hamiltonian(L, n, bc, a))


def assert_momentum_block_matches_oracle(L, n, k, a):
    # the real form entry for entry; on the oracle's complex block, the
    # reflection symmetry it rests on and the spectrum it keeps
    op = build_momentum_block(L, n, k, a)
    assert_same_csr(op, oracle.momentum_real_form(L, n, k, a))
    if op.dim == 0:
        return op
    block = oracle.momentum_block(L, n, k, a)
    scale = float(abs(block).sum(axis=1).max())
    c, perm = oracle.reflection(L, n, k)
    rephased = (c.conj()[:, None] * block.toarray()) * c
    assert np.abs(perm @ rephased @ perm - rephased.conj()).max() <= 1e-15 * scale
    values = np.linalg.eigvalsh(op.to_dense())
    assert np.abs(values - np.linalg.eigvalsh(block.toarray())).max() <= 1e-13 * scale
    return op


@settings(max_examples=100, deadline=None)
@given(qs, chains(), st.data())
def test_momentum_block_matches_oracle(q, chain, data):
    L, n = chain
    k = data.draw(st.integers(min_value=0, max_value=L - 1))
    op = assert_momentum_block_matches_oracle(L, n, k, Anisotropy(q))
    found, _ = oracle.orbits(L, n)
    basis = enumerate_sector(L, n)
    configs, _ = oracle.sector(L, n)
    assert basis.masks.tolist() == [oracle.mask(c, L) for c in configs]
    rep, _, size = ring_orbits(basis)
    heads = np.flatnonzero(rep == np.arange(len(basis)))
    assert [(configs[i], int(size[i])) for i in heads] == found
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


def test_bracket_masks_match_oracle():
    # the ballot filter keeps the right ends of exactly the oracle's
    # brackets, in the oracle's order
    for L in range(17):
        for n in range(L // 2 + 1):
            assert enumerate_brackets(L, n).masks.tolist() == [
                oracle.right_mask(b, L) for b in oracle.brackets(L, n)
            ]


@pytest.mark.parametrize("q", (0.3, 0.5, 0.8))
def test_bracket_matrices_match_oracle(q):
    a = Anisotropy(q)
    for L in range(1, 15):
        for n in range(L // 2 + 1):
            op, basis = build_hw_matrix(L, n, a)
            assert_same_csr(op, oracle.hw_matrix(L, n, a))
            for x in range(1, L):
                assert_same_csr(tl_matrix(x, basis, a), oracle.tl_matrix(x, L, n, a))


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
    assert_momentum_block_matches_oracle(L, n, 3, a)
    gens = SuqGenerators(L=L, anisotropy=a)
    assert_same_csr(gens.lowering(1), oracle.lowering(L, 1, q))
    assert_same_csr(gens.raising(n), oracle.raising(L, n, q))
    for n in range(3):
        rmap, sector, _ = build_R(66, n, a)
        assert sector.masks.dtype == object
        assert_same_csr(rmap, oracle.intertwiner(66, n, a))
        op, basis = build_hw_matrix(64, n, a)
        assert basis.masks.dtype == object
        assert basis.masks.tolist() == [
            oracle.right_mask(b, 64) for b in oracle.brackets(64, n)
        ]
        assert_same_csr(op, oracle.hw_matrix(64, n, a))
        for x in (1, 32, 63):
            assert_same_csr(tl_matrix(x, basis, a), oracle.tl_matrix(x, 64, n, a))
