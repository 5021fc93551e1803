"""Bracket bases, Temperley-Lieb moves, the intertwiner R, ladder maps."""

import math
from itertools import combinations

import numpy as np
import pytest
import scipy.linalg

import sector_oracle as oracle
from sector_oracle import canonical_bracket, is_valid_bracket, tl_apply
from xxzdroplet.brackets import (
    SuqGenerators,
    build_R,
    build_hw_matrix,
    enumerate_brackets,
    export_triplets,
    hw_dimension,
    hw_gram_lowest,
    tl_matrix,
)
from xxzdroplet.cli import hw_records
from xxzdroplet.operators import (
    Anisotropy,
    BoundaryCondition,
    SparseOperator,
    build_sector_hamiltonian,
)
from xxzdroplet.spectra import LANCZOS_TOL, dense_spectrum


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
        assert set(oracle.brackets(L, n)) == brute
        assert set(oracle.arcs_of(enumerate_brackets(L, n))) == brute


def test_basis_index_round_trip():
    # a bracket's row is the rank of its right ends
    basis = enumerate_brackets(8, 3)
    arcs = oracle.arcs_of(basis)
    for i, b in enumerate(arcs):
        assert basis.rank([oracle.right_mask(b, 8)])[0] == i
    # any arc order gives the same row
    assert basis.rank([oracle.right_mask(tuple(reversed(arcs[5])), 8)])[0] == 5


def test_tl_apply_case_table():
    # the oracle's seven-case rule that the mask moves are checked against
    a = Anisotropy(0.5)
    # both sites free
    assert tl_apply(1, ((3, 4),), 5, a) is None
    # bubble returns the loop scalar -(q + 1/q)
    assert tl_apply(3, ((3, 4),), 5, a) == (((3, 4),), -2.5)
    # slides
    assert tl_apply(1, ((2, 3),), 3, a)[0] == ((1, 2),)
    assert tl_apply(2, ((1, 2),), 3, a)[0] == ((2, 3),)
    # adjacent fuse
    assert tl_apply(2, ((1, 2), (3, 4)), 4, a) == (
        canonical_bracket(((2, 3), (1, 4))), 1.0
    )
    # nested rewirings at left and right endpoints
    assert tl_apply(1, ((1, 4), (2, 3)), 4, a)[0] == ((1, 2), (3, 4))
    assert tl_apply(3, ((1, 4), (2, 3)), 4, a)[0] == ((1, 2), (3, 4))


def test_tl_apply_rejects_invalid_patterns():
    a = Anisotropy(0.5)
    with pytest.raises(ValueError):
        tl_apply(2, ((1, 3),), 3, a)
    with pytest.raises(ValueError):
        tl_apply(2, ((1, 3), (2, 4)), 4, a)
    with pytest.raises(ValueError):
        tl_apply(0, ((1, 2),), 2, a)
    # the mask moves refuse the same bond
    with pytest.raises(ValueError, match="bond index must lie in"):
        tl_matrix(0, enumerate_brackets(2, 1), a)


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
    assert oracle.arcs_of(basis) == (((1, 2),), ((2, 3),))
    assert np.allclose(op.to_dense(), [[1.0, -0.4], [-0.4, 1.0]], atol=1e-15)

    op, basis = build_hw_matrix(4, 2, a)
    assert oracle.arcs_of(basis) == (((1, 2), (3, 4)), ((2, 3), (1, 4)))
    assert np.allclose(op.to_dense(), [[2.0, -0.8], [-0.4, 1.0]], atol=1e-15)


def test_single_arc_row_is_tridiagonal():
    # n = 1 brackets are the adjacent pairs; the action is a hopping chain
    a = Anisotropy(0.5)
    for L in (4, 7):
        op, basis = build_hw_matrix(L, 1, a)
        assert oracle.arcs_of(basis) == tuple(((x, x + 1),) for x in range(1, L))
        expected = np.eye(L - 1) - 0.4 * (np.eye(L - 1, k=1) + np.eye(L - 1, k=-1))
        assert np.allclose(op.to_dense(), expected, atol=1e-15)
        vals = dense_spectrum(op, k=1).values
        assert abs(vals[0] - (1.0 - math.cos(math.pi / L) / a.delta)) < 1e-12


def test_bracket_to_ising_frozen():
    # the single arc [1, 2]: q^{-1/2} at site 1, -q^{1/2} at site 2
    rmap, sector, hw = build_R(2, 1, Anisotropy(0.25))
    assert sector.masks.tolist() == [oracle.mask(c, 2) for c in ((1,), (2,))]
    assert oracle.arcs_of(hw) == (((1, 2),),)
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
    # the dense pencil (R^T H R, R^T R), this test's own reference
    a = Anisotropy(q)
    rmap, _, _ = build_R(L, n, a)
    opk, _ = build_sector_hamiltonian(L, n, BoundaryCondition.kink(), a)
    dense_r = rmap.to_dense()
    a_sym = dense_r.T @ (opk.matrix @ dense_r)
    gram = dense_r.T @ dense_r
    return float(scipy.linalg.eigh(a_sym, gram, subset_by_index=[0, 0])[0][0])


@pytest.mark.parametrize("L,n", [(6, 2), (8, 2), (8, 3), (10, 4)])
def test_two_routes_agree(L, n):
    q = 0.5
    direct = float(dense_spectrum(build_hw_matrix(L, n, Anisotropy(q))[0], k=1).values[0])
    assert abs(direct - gram_ground(L, n, q)) < 1e-9


def test_hw_gram_lowest_never_densifies_R(monkeypatch):
    # R, G and the bracket matrix stay sparse: nothing is densified
    def refuse(*args):
        raise AssertionError("a SparseOperator was densified")

    monkeypatch.setattr(SparseOperator, "to_dense", refuse)
    a = Anisotropy(0.5)
    res = hw_gram_lowest(14, 3, a)
    bound = LANCZOS_TOL * build_hw_matrix(14, 3, a)[0].rowsum_norm()
    assert res.method == "gram-lanczos"
    assert res.values.shape == (1,) and res.residuals[0] <= bound


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
def test_hw_gram_lowest_matches_direct_route(q):
    # the Gram route against hw-spectrum --method direct
    for L in range(1, 13):
        for n in range(L // 2 + 1):
            direct = hw_records(L, n, q, method="direct")[0].energy
            gram = hw_gram_lowest(L, n, Anisotropy(q))
            assert abs(gram.values[0] - direct) < 1e-13, (L, n)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 0.95, 1.0])
def test_gram_lanczos_matches_dense_routes(q):
    # every highest-weight space with L <= 12, dimension 1 included, on
    # the Lanczos route in the G inner product: k = 1, 2 and 3 levels
    # against the dense bracket route, and each residual is that of the
    # sector H at R y, |R y| = 1, within the stopping test's bound on
    # the bracket matrix
    a = Anisotropy(q)
    kink = BoundaryCondition.kink()
    for L in range(2, 13):
        for n in range(1, L // 2 + 1):
            op, _ = build_hw_matrix(L, n, a)
            bracket = np.sort(np.linalg.eigvals(op.to_dense()).real)
            r = build_R(L, n, a)[0].matrix
            h = build_sector_hamiltonian(L, n, kink, a)[0].matrix
            bound = LANCZOS_TOL * max(1.0, op.rowsum_norm())
            for k in (1, 2, 3):
                res = hw_gram_lowest(L, n, a, k=k)
                m = len(res.values)
                assert m == min(k, op.dim)
                assert res.method == "gram-lanczos"
                assert np.abs(res.values - bracket[:m]).max() < 1e-13, (L, n, k)
                ry = r @ res.vectors
                assert np.abs(np.linalg.norm(ry, axis=0) - 1.0).max() < 1e-12
                resid = np.linalg.norm(h @ ry - ry * res.values, axis=0)
                assert np.array_equal(res.residuals, resid)
                assert resid.max() <= bound, (L, n, k)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.95])
def test_gram_lanczos_four_levels_match_bracket_dense(q):
    # k = 4 on the Gram route, each level deflated in the G inner
    # product, against hw-spectrum --method direct (bracket-dense) on
    # highest-weight spaces of dims 208 to 637, above the L <= 12 grid
    for L, n in ((13, 3), (14, 4), (16, 3)):
        rows = hw_records(L, n, q, method="both", k=4)
        gram = [r.energy for r in rows if r.method == "gram-lanczos"]
        dense = [r.energy for r in rows if r.method == "bracket-dense"]
        assert len(gram) == len(dense) == 4
        assert np.abs(np.subtract(gram, dense)).max() <= 1e-13, (L, n)


def test_hw_spectrum_real_and_increasing_in_n():
    vals = []
    for n in range(1, 5):
        res = dense_spectrum(build_hw_matrix(10, n, Anisotropy(0.5))[0], k=1)
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

    # complex data is refused when the operator is built, so nothing
    # complex can reach the export; an unknown tag is refused first
    for symmetry, message in (
        ("hermitian", "unknown symmetry tag 'hermitian'"),
        ("symmetric", "operators are real, got complex128 data"),
        ("general", "operators are real, got complex128 data"),
    ):
        with pytest.raises(ValueError, match=message):
            export_triplets(
                SparseOperator(sp.csr_matrix(np.array([[1j]])), symmetry),
                tmp_path / "bad.txt",
            )
    assert not (tmp_path / "bad.txt").exists()
