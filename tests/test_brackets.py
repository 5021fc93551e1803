"""Bracket bases, Temperley-Lieb moves, the intertwiner R, ladder maps."""

import math
from itertools import combinations

import numpy as np
import pytest

from sector_oracle import is_valid_bracket
from xxzdroplet.brackets import (
    SuqGenerators,
    build_R,
    build_hw_matrix,
    canonical_bracket,
    enumerate_brackets,
    export_triplets,
    hw_dimension,
    hw_gram_lowest,
    tl_apply,
    tl_matrix,
)
from xxzdroplet.cli import hw_records
from xxzdroplet.operators import (
    Anisotropy,
    BoundaryCondition,
    SparseOperator,
    build_sector_hamiltonian,
)
from xxzdroplet.spectra import dense_spectrum, generalized_lowest


def test_bracket_validity_cases():
    assert is_valid_bracket(((1, 2),), 2)
    assert is_valid_bracket(((1, 4), (2, 3)), 4)       # nested
    assert is_valid_bracket(((1, 2), (3, 4)), 4)       # disjoint
    assert not is_valid_bracket(((1, 3), (2, 4)), 4)   # crossing
    assert not is_valid_bracket(((1, 3),), 3)          # unpaired interior
    assert not is_valid_bracket(((1, 2), (2, 3)), 3)   # shared site
    assert not is_valid_bracket(((2, 5), (3, 4)), 4)   # out of range
    assert not is_valid_bracket(((2, 1),), 2)


def test_enumeration_counts_frozen():
    expected = {
        (2, 1): 1, (4, 2): 2, (6, 3): 5, (8, 4): 14, (10, 5): 42,
        (7, 3): 14, (8, 2): 20, (8, 3): 28,
    }
    for (L, n), count in expected.items():
        basis = enumerate_brackets(L, n)
        assert len(basis) == count
        assert hw_dimension(L, n) == count


@pytest.mark.parametrize("L", range(2, 11))
def test_dimension_formula(L):
    for n in range(0, L // 2 + 1):
        below = math.comb(L, n - 1) if n >= 1 else 0
        assert len(enumerate_brackets(L, n)) == math.comb(L, n) - below


def test_enumeration_against_brute_force():
    # independent check: filter every n-subset of site pairs
    cases = [(L, n) for L in range(2, 9) for n in range(1, L // 2 + 1)]
    cases += [(9, 1), (9, 2), (10, 1), (10, 2)]
    for L, n in cases:
        pairs = list(combinations(range(1, L + 1), 2))
        brute = {
            canonical_bracket(arcs)
            for arcs in combinations(pairs, n)
            if is_valid_bracket(arcs, L)
        }
        assert set(enumerate_brackets(L, n)) == brute


def test_basis_index_round_trip():
    basis = enumerate_brackets(8, 3)
    for i, b in enumerate(basis):
        assert basis.index(b) == i
    # index accepts any arc order
    assert basis.index(tuple(reversed(basis[5]))) == 5


def test_tl_apply_case_table():
    a = Anisotropy(0.5)
    # both sites free
    assert tl_apply(1, ((3, 4),), 5, a) is None
    # bubble returns the loop scalar -(q + 1/q)
    move = tl_apply(3, ((3, 4),), 5, a)
    assert move.bubble and move.scalar == -2.5 and move.result == ((3, 4),)
    # slides
    assert tl_apply(1, ((2, 3),), 3, a).result == ((1, 2),)
    assert tl_apply(2, ((1, 2),), 3, a).result == ((2, 3),)
    # adjacent fuse
    move = tl_apply(2, ((1, 2), (3, 4)), 4, a)
    assert move.result == canonical_bracket(((2, 3), (1, 4)))
    assert move.scalar == 1.0 and not move.bubble
    # nested rewirings at left and right endpoints
    assert tl_apply(1, ((1, 4), (2, 3)), 4, a).result == ((1, 2), (3, 4))
    assert tl_apply(3, ((1, 4), (2, 3)), 4, a).result == ((1, 2), (3, 4))


def test_tl_apply_rejects_invalid_patterns():
    a = Anisotropy(0.5)
    with pytest.raises(ValueError):
        tl_apply(2, ((1, 3),), 3, a)
    with pytest.raises(ValueError):
        tl_apply(2, ((1, 3), (2, 4)), 4, a)
    with pytest.raises(ValueError):
        tl_apply(0, ((1, 2),), 2, a)


@pytest.mark.parametrize("q", (0.5, 0.9))
@pytest.mark.parametrize("L", (4, 6, 8))
def test_tl_relations(q, L):
    a = Anisotropy(q)
    c = a.two_delta
    tol = 1e-12 * (1.0 + c) ** 2
    for n in range(1, L // 2 + 1):
        basis = enumerate_brackets(L, n)
        mats = [tl_matrix(x, basis, a).to_dense() for x in range(1, L)]
        for U in mats:
            assert np.abs(U @ U + c * U).max() <= tol
        for x in range(len(mats) - 1):
            U, V = mats[x], mats[x + 1]
            assert np.abs(U @ V @ U - U).max() <= tol
            assert np.abs(V @ U @ V - V).max() <= tol
        for x in range(len(mats)):
            for y in range(x + 2, len(mats)):
                assert np.abs(mats[x] @ mats[y] - mats[y] @ mats[x]).max() == 0.0


def test_hw_matrix_frozen_small_cases():
    a = Anisotropy(0.5)
    op, basis = build_hw_matrix(3, 1, a)
    assert tuple(basis) == (((1, 2),), ((2, 3),))
    assert np.allclose(op.to_dense(), [[1.0, -0.4], [-0.4, 1.0]], atol=1e-15)

    op, basis = build_hw_matrix(4, 2, a)
    assert tuple(basis) == (((1, 2), (3, 4)), ((2, 3), (1, 4)))
    assert np.allclose(op.to_dense(), [[2.0, -0.8], [-0.4, 1.0]], atol=1e-15)


def test_single_arc_row_is_tridiagonal():
    # n = 1 brackets are the adjacent pairs; the action is a hopping chain
    a = Anisotropy(0.5)
    for L in (4, 7):
        op, basis = build_hw_matrix(L, 1, a)
        assert tuple(basis) == tuple(((x, x + 1),) for x in range(1, L))
        expected = np.eye(L - 1) - 0.4 * (np.eye(L - 1, k=1) + np.eye(L - 1, k=-1))
        assert np.allclose(op.to_dense(), expected, atol=1e-15)
        vals = dense_spectrum(op, k=1).values
        assert abs(vals[0] - (1.0 - math.cos(math.pi / L) / a.delta)) < 1e-12


def test_bracket_to_ising_frozen():
    # the single arc [1, 2]: q^{-1/2} at site 1, -q^{1/2} at site 2
    rmap, sector, hw = build_R(2, 1, Anisotropy(0.25))
    assert tuple(sector) == ((1,), (2,)) and tuple(hw) == (((1, 2),),)
    assert rmap.to_dense().tolist() == [[2.0], [-0.5]]


def test_R_without_brackets_is_empty():
    # n > L/2: no columns, and no expansion over the 2^38 endpoint choices
    rmap, sector, hw = build_R(40, 38, Anisotropy(0.5))
    assert len(hw) == 0 and len(sector) == 780
    assert rmap.shape == (780, 0) and rmap.matrix.nnz == 0


@pytest.mark.parametrize("q", (0.5, 0.8))
def test_R_column_norms_exact(q):
    a = Anisotropy(q)
    s = math.sqrt(q)
    for L, n in [(4, 2), (6, 3), (8, 2), (8, 4)]:
        rmap, _, hw = build_R(L, n, a)
        dense = np.abs(rmap.to_dense())
        target = (1.0 / s + s) ** n
        assert np.abs(dense.sum(axis=0) - target).max() <= 1e-12 * target
        # stated row bound over finite windows
        assert dense.sum(axis=1).max() <= math.factorial(2 * n) / math.factorial(n) / s + 1e-9


@pytest.mark.parametrize("L,n", [(4, 2), (6, 2), (6, 3), (8, 3)])
def test_intertwining_and_highest_weight(L, n):
    q = 0.5
    a = Anisotropy(q)
    rmap, _, hw = build_R(L, n, a)
    dense_r = rmap.to_dense()
    opk, _ = build_sector_hamiltonian(L, n, BoundaryCondition.kink(), a)
    hw_op, _ = build_hw_matrix(L, n, a)
    lhs = opk.matrix @ dense_r
    rhs = dense_r @ hw_op.to_dense()
    assert np.abs(lhs - rhs).max() < 1e-13
    raise_n = SuqGenerators(L=L, anisotropy=a).raising(n)
    assert np.abs(raise_n.matrix @ dense_r).max() < 1e-13


def test_lowering_from_vacuum_frozen():
    gens = SuqGenerators(L=2, anisotropy=Anisotropy(0.5))
    low = gens.lowering(0).to_dense()
    assert np.allclose(low[:, 0], [0.5, 1.0], atol=1e-15)


def test_lowering_commutes_with_kink_chain():
    a = Anisotropy(0.7)
    L = 6
    gens = SuqGenerators(L=L, anisotropy=a)
    for n in range(0, 3):
        low = gens.lowering(n).matrix
        h_n = build_sector_hamiltonian(L, n, BoundaryCondition.kink(), a)[0].matrix
        h_n1 = build_sector_hamiltonian(L, n + 1, BoundaryCondition.kink(), a)[0].matrix
        comm = (h_n1 @ low - low @ h_n).toarray()
        assert np.abs(comm).max() < 1e-12 * max(1.0, np.abs(low.toarray()).max() * L)


def gram_ground(L, n, q):
    a = Anisotropy(q)
    rmap, _, _ = build_R(L, n, a)
    opk, _ = build_sector_hamiltonian(L, n, BoundaryCondition.kink(), a)
    dense_r = rmap.to_dense()
    a_sym = dense_r.T @ (opk.matrix @ dense_r)
    gram = dense_r.T @ dense_r
    return float(generalized_lowest(a_sym, gram, k=1).values[0])


@pytest.mark.parametrize("L,n", [(6, 2), (8, 2), (8, 3), (10, 4)])
def test_two_routes_agree(L, n):
    q = 0.5
    direct = float(dense_spectrum(build_hw_matrix(L, n, Anisotropy(q))[0], k=1).values[0])
    assert abs(direct - gram_ground(L, n, q)) < 1e-9


def test_hw_gram_lowest_never_densifies_R(monkeypatch):
    # only the two hw x hw products are densified, never R (sector x hw)
    def refuse(*args):
        raise AssertionError("a SparseOperator was densified")

    monkeypatch.setattr(SparseOperator, "to_dense", refuse)
    res = hw_gram_lowest(14, 3, Anisotropy(0.5))
    assert res.method == "generalized-cholesky"
    assert res.values.shape == (1,) and res.residuals[0] < 1e-12


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
def test_hw_gram_lowest_matches_direct_route(q):
    # the sparse Gram pencil against hw-spectrum --method direct
    for L in range(1, 13):
        for n in range(L // 2 + 1):
            direct = hw_records(L, n, q, method="direct")[0].energy
            gram = hw_gram_lowest(L, n, Anisotropy(q))
            assert abs(gram.values[0] - direct) < 1e-9, (L, n)


def test_hw_spectrum_real_and_increasing_in_n():
    vals = []
    for n in range(1, 5):
        res = dense_spectrum(build_hw_matrix(10, n, Anisotropy(0.5))[0])
        assert res.values.dtype == np.float64
        vals.append(float(res.values[0]))
    assert all(b > x + 1e-12 for x, b in zip(vals, vals[1:]))


def test_hw_ground_monotone_in_L_and_q():
    # decreasing in L at fixed n; non-increasing as q grows at fixed (L, n)
    along_L = [gram_ground(L, 2, 0.5) for L in (4, 6, 8, 10)]
    assert all(b < x for x, b in zip(along_L, along_L[1:]))
    along_q = [gram_ground(8, 2, q) for q in (0.2, 0.5, 0.8, 0.95)]
    assert all(b < x + 1e-12 for x, b in zip(along_q, along_q[1:]))


def test_triplet_export_round_trip(tmp_path):
    a = Anisotropy(0.5)
    rmap, _, _ = build_R(6, 2, a)
    path = tmp_path / "rmap.txt"
    export_triplets(rmap, path)
    header = path.read_text().splitlines()[0].split()
    assert [int(header[0]), int(header[1])] == list(rmap.shape)
    i, j, v = np.loadtxt(path, skiprows=1, unpack=True)
    assert len(v) == int(header[2]) == rmap.nnz
    back = np.zeros(rmap.shape)
    back[i.astype(int), j.astype(int)] = v
    assert np.abs(back - rmap.to_dense()).max() == 0.0


def test_triplet_export_rejects_complex(tmp_path):
    import scipy.sparse as sp

    op = SparseOperator(sp.csr_matrix(np.array([[1j]])), "hermitian")
    with pytest.raises(ValueError):
        export_triplets(op, tmp_path / "bad.txt")
