"""Sector enumeration, bitmask ranking, and ring orbits."""

import math
from itertools import combinations

import numpy as np
import pytest

import sector_oracle as oracle
from sector_oracle import ring_translate
from xxzdroplet.sector_basis import (
    DIMENSION_GUARD,
    DimensionGuardError,
    enumerate_sector,
    mirror_rows,
    ring_orbits,
    sector_dimension,
)


def sector_configs(L, n):
    """The sector basis and its rows as the oracle's position tuples."""
    basis = enumerate_sector(L, n)
    configs, _ = oracle.sector(L, n)
    assert basis.masks.tolist() == [oracle.mask(c, L) for c in configs]
    return basis, configs


def orbit_heads(L, n):
    """(representative, size) of every ring orbit, from ``ring_orbits``."""
    basis, configs = sector_configs(L, n)
    rep, _, size = ring_orbits(basis)
    heads = np.flatnonzero(rep == np.arange(len(basis)))
    return [(configs[i], int(size[i])) for i in heads]


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
    assert basis.masks.tolist() == [
        oracle.mask(c, 3) for c in ((1, 2), (1, 3), (2, 3))
    ] == [0b110, 0b101, 0b011]
    assert len(basis) == 3
    assert basis.masks[1] == oracle.mask((1, 3), 3)
    assert basis.rank([oracle.mask((2, 3), 3)]).tolist() == [2]


@pytest.mark.parametrize("L", range(1, 13))
def test_rank_unrank_round_trip(L):
    for n in range(L + 1):
        basis = enumerate_sector(L, n)
        masks = [oracle.mask(c, L) for c in combinations(range(1, L + 1), n)]
        assert basis.masks.tolist() == masks
        # lexicographic order is descending mask order
        assert np.all(np.diff(basis.masks) < 0)
        assert np.array_equal(basis.rank(basis.masks), np.arange(len(basis)))


def test_rank_config_rejects_bad_input():
    # too few or too many down spins, none, and a bit beyond site 1
    basis = enumerate_sector(4, 2)
    for bad in [(1,), (1, 2, 3), (), (0, 1)]:
        with pytest.raises(ValueError):
            basis.rank([oracle.mask(bad, 4)])
    assert len(basis) == 6


def test_long_chains_use_python_int_masks():
    assert enumerate_sector(62, 1).masks.dtype == np.int64
    basis = enumerate_sector(70, 2)
    assert basis.masks.dtype == object
    assert len(basis) == sector_dimension(70, 2)
    assert basis.masks[0] == oracle.mask((1, 2), 70)
    assert basis.masks[-1] == oracle.mask((69, 70), 70)
    assert basis.rank([oracle.mask((1, 70), 70)]).tolist() == [68]
    assert np.all(basis.masks[:-1] > basis.masks[1:])


def test_sector_dimension_guard():
    assert sector_dimension(30, 15) > DIMENSION_GUARD
    with pytest.raises(DimensionGuardError):
        enumerate_sector(30, 15)


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
        basis, configs = sector_configs(L, n)
        rep, shift, size = ring_orbits(basis)
        for i, config in enumerate(configs):
            cur = configs[rep[i]]
            assert size[i] == size[rep[i]]
            for _ in range(shift[i]):
                cur = ring_translate(cur, L)
            assert cur == config


def test_mirror_rows_match_tuple_reflection():
    # site reflection as the oracle writes it, on position tuples and
    # a dict lookup, never on masks; L = 70 has Python-int masks
    cases = [(L, n) for L in range(11) for n in range(L + 1)] + [(70, 2)]
    for L, n in cases:
        configs, index = oracle.sector(L, n)
        rows = mirror_rows(enumerate_sector(L, n))
        assert rows.tolist() == [index[oracle.reflect(c, L)] for c in configs]
