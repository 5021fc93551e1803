"""Sector enumeration, bitmask ranking, gap domains, and ring orbits."""

import math
from itertools import combinations

import numpy as np
import pytest

import sector_oracle as oracle
from sector_oracle import ring_translate
from xxzdroplet.sector_basis import (
    DIMENSION_GUARD,
    DimensionGuardError,
    GapDomain,
    config_mask,
    enumerate_sector,
    ring_orbits,
    sector_dimension,
)


def orbit_heads(L, n):
    """(representative, size) of every ring orbit, from ``ring_orbits``."""
    basis = enumerate_sector(L, n)
    rep, _, size = ring_orbits(basis)
    heads = np.flatnonzero(rep == np.arange(len(basis)))
    return [(basis[i], int(size[i])) for i in heads]


def test_sector_dimension_values():
    assert sector_dimension(4, 0) == 1
    assert sector_dimension(4, 2) == 6
    assert sector_dimension(12, 6) == 924
    with pytest.raises(ValueError):
        sector_dimension(3, 4)
    with pytest.raises(ValueError):
        sector_dimension(3, -1)


def test_enumerate_sector_is_lexicographic():
    basis = enumerate_sector(3, 2)
    assert tuple(basis) == ((1, 2), (1, 3), (2, 3))
    assert len(basis) == 3
    assert basis[1] == (1, 3)
    assert basis.index((2, 3)) == 2


@pytest.mark.parametrize("L", range(1, 13))
def test_rank_unrank_round_trip(L):
    for n in range(L + 1):
        basis = enumerate_sector(L, n)
        assert tuple(basis) == tuple(combinations(range(1, L + 1), n))
        # lexicographic order is descending mask order
        assert np.all(np.diff(basis.masks) < 0)
        for i, config in enumerate(combinations(range(1, L + 1), n)):
            assert basis.index(config) == i
            assert basis[i] == config
            assert basis.masks[i] == config_mask(config, L)
        assert np.array_equal(basis.rank(basis.masks), np.arange(len(basis)))


def test_rank_config_rejects_bad_input():
    basis = enumerate_sector(4, 2)
    for bad in [(2, 1), (0, 1), (3, 5), (2, 2), (1,), (1, 2, 3)]:
        with pytest.raises(ValueError):
            basis.index(bad)
    with pytest.raises(ValueError):
        basis.rank([config_mask((1, 2, 3), 4)])
    with pytest.raises(IndexError):
        basis[6]


def test_long_chains_use_python_int_masks():
    assert enumerate_sector(62, 1).masks.dtype == np.int64
    basis = enumerate_sector(70, 2)
    assert basis.masks.dtype == object
    assert len(basis) == sector_dimension(70, 2)
    assert basis[0] == (1, 2) and basis[-1] == (69, 70)
    assert basis.index((1, 70)) == 68
    assert np.all(basis.masks[:-1] > basis.masks[1:])


def test_sector_dimension_guard():
    assert sector_dimension(30, 15) > DIMENSION_GUARD
    with pytest.raises(DimensionGuardError):
        enumerate_sector(30, 15)


def test_gap_domain_order_and_size():
    d = GapDomain(3, 2)
    assert (d.digits() + 1).tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]
    for n, n_max in [(1, 7), (2, 5), (3, 4), (4, 3)]:
        dom = GapDomain(n, n_max)
        assert dom.dim == n_max ** (n - 1)
        assert dom.digits().shape == (dom.dim, n - 1)
    assert GapDomain(1, 9).digits().shape == (1, 0)


def test_gap_domain_digits_match_tuples():
    # gap vectors are numbered in C order on the box (n_max,)^(n-1)
    for n, n_max in [(2, 5), (3, 5), (4, 3)]:
        dom = GapDomain(n, n_max)
        box = (n_max,) * (n - 1)
        expected = np.stack(np.unravel_index(np.arange(dom.dim), box), axis=1)
        assert np.array_equal(dom.digits(), expected)


def test_gap_domain_validation():
    with pytest.raises(ValueError):
        GapDomain(0, 5)
    with pytest.raises(ValueError):
        GapDomain(2, 0)
    with pytest.raises(DimensionGuardError):
        GapDomain(4, 200)


def test_ring_translate():
    assert ring_translate((1, 2), 4) == (2, 3)
    assert ring_translate((4,), 4) == (1,)
    assert ring_translate((1, 4), 4) == (1, 2)
    assert ring_translate((), 4) == ()


def test_momentum_orbits_frozen_small_case():
    assert orbit_heads(4, 2) == [((1, 2), 4), ((1, 3), 2)]
    assert orbit_heads(4, 2) == oracle.orbits(4, 2)[0]


@pytest.mark.parametrize("L", range(1, 9))
def test_orbit_partition_property(L):
    for n in range(L + 1):
        orbits = orbit_heads(L, n)
        assert orbits == oracle.orbits(L, n)[0]
        assert sum(size for _, size in orbits) == sector_dimension(L, n)
        assert all(L % size == 0 for _, size in orbits)
        seen = set()
        for representative, size in orbits:
            cur = representative
            members = set()
            for _ in range(size):
                members.add(cur)
                cur = ring_translate(cur, L)
            assert cur == representative
            assert len(members) == size
            assert not (members & seen)
            seen |= members
        assert len(seen) == sector_dimension(L, n)


def test_orbit_lookup_shift_convention():
    for L, n in [(4, 2), (6, 3), (5, 2), (70, 2)]:
        basis = enumerate_sector(L, n)
        rep, shift, size = ring_orbits(basis)
        for i, config in enumerate(basis):
            cur = basis[rep[i]]
            assert size[i] == size[rep[i]]
            for _ in range(shift[i]):
                cur = ring_translate(cur, L)
            assert cur == config
