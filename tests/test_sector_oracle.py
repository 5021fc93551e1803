"""Bitmask sector builders against the per-configuration reference loops.

Both sides must give the same CSR arrays bit for bit: shape, indptr,
indices and data.  The sector assembly, the mirror and the even block
are also held to the COO array references byte for byte, index dtypes
included.
"""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
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
    SparseOperator,
    build_momentum_block,
    build_sector_hamiltonian,
    even_block,
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


def assert_same_arrays(new, ref):
    # CSR arrays byte for byte, index dtypes included
    assert new.shape == ref.shape and new.dtype == ref.dtype
    for name in ("indptr", "indices", "data"):
        a, b = getattr(new, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def sector_boundaries():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # delta = 0.5 pins weakly
        return [
            BoundaryCondition.open(),
            BoundaryCondition.kink(),
            BoundaryCondition.droplet(0.5),
            BoundaryCondition.droplet(1.0),
            BoundaryCondition.cyclic(),
        ]


def assert_assembly_matches_coo(L, n, bc, a):
    # the direct CSR build, the mirror by rank arithmetic and the even
    # block without CSR copies give the COO references' arrays
    op, basis = build_sector_hamiltonian(L, n, bc, a)
    assert basis.masks.tolist() == oracle.coo_masks(L, n).tolist()
    assert_same_arrays(op.matrix, oracle.coo_sector_hamiltonian(L, n, bc, a).matrix)
    if bc.tag == "kink":
        assert op.mirror is None
        return
    mirror = op.mirror
    ref = oracle.searched_mirror_rows(L, n)
    assert mirror.dtype == ref.dtype and np.array_equal(mirror, ref)
    block, lift = even_block(op, mirror)
    ref_block, ref_lift = oracle.coo_even_block(op, ref)
    assert_same_arrays(block.matrix, ref_block.matrix)
    assert_same_arrays(lift, ref_lift)


@pytest.mark.parametrize("q", (0.3, 0.5, 1.0))
def test_sector_assembly_matches_coo_reference(q):
    a = Anisotropy(q)
    for bc in sector_boundaries():
        for L in range(2, 15):
            for n in range(L + 1):
                assert_assembly_matches_coo(L, n, bc, a)


def test_long_chain_assembly_matches_coo_reference():
    # object masks beyond 62 sites
    assert enumerate_sector(64, 2).masks.dtype == object
    for bc in sector_boundaries():
        assert_assembly_matches_coo(64, 2, bc, Anisotropy(0.5))


def test_even_block_guards_match_coo_reference():
    # small random operators and involutions, half made to commute, some
    # with a stored zero where their mirror image is absent, -0.0 or a
    # NaN: even_block refuses exactly what the COO reference refuses,
    # with its message, and otherwise gives its arrays
    rng = np.random.default_rng(0)
    refused = 0
    for _ in range(200):
        dim = int(rng.integers(1, 9))
        dense = rng.integers(-2, 3, size=(dim, dim)).astype(float)
        dense[rng.random((dim, dim)) < 0.4] = 0.0
        mirror = np.arange(dim)
        order = rng.permutation(dim)
        for i in range(0, dim - 1, 2):
            if rng.random() < 0.6:
                mirror[order[i]], mirror[order[i + 1]] = order[i + 1], order[i]
        if rng.random() < 0.5:
            dense = (dense + dense[mirror][:, mirror]) / 2.0
        if rng.random() < 0.2:
            dense[rng.integers(dim), rng.integers(dim)] = np.nan
        mat = sp.csr_matrix(dense)
        i, j = rng.integers(dim, size=2)
        if dense[i, j] == 0.0 and rng.random() < 0.5:
            coo = mat.tocoo()
            mat = sp.csr_matrix(
                (np.r_[coo.data, 0.0], (np.r_[coo.row, i], np.r_[coo.col, j])),
                shape=(dim, dim),
            )
        if rng.random() < 0.2:
            mat.data[mat.data == 0.0] = -0.0
        if rng.random() < 0.1:
            mirror = np.roll(mirror, 1)
        op = SparseOperator(mat, "general")
        try:
            ref = oracle.coo_even_block(op, mirror)
        except ValueError as exc:
            refused += 1
            with pytest.raises(ValueError, match=str(exc)):
                even_block(op, mirror)
            continue
        block, lift = even_block(op, mirror)
        assert_same_arrays(block.matrix, ref[0].matrix)
        assert_same_arrays(lift, ref[1])
    assert 50 < refused < 150
