"""Reference sector builders: plain Python loops over position tuples.

These are the direct per-configuration and per-bracket constructions
that the array builders in ``xxzdroplet`` replace.  They are slow and
kept only so the tests can demand identical CSR arrays from both.
Configurations are strictly increasing tuples of 1-based down-spin
positions, ordered lexicographically and indexed through a dict.
"""

import math
from itertools import combinations, product

import numpy as np
import scipy.sparse as sp

from xxzdroplet.brackets import canonical_bracket, enumerate_brackets
from xxzdroplet.operators import SparseOperator, _ring_phases


def sector(L, n):
    configs = tuple(combinations(range(1, L + 1), n))
    return configs, {c: i for i, c in enumerate(configs)}


def _m3(down):
    return -0.5 if down else 0.5


def bond_apply(config, x, y, kink, a):
    """Diagonal weight and hops of the bond (x, y) out of ``config``."""
    occupied = set(config)
    down_x, down_y = x in occupied, y in occupied
    diag = 0.0 if down_x == down_y else 0.5
    if kink:
        diag += -(a.alpha / 2.0) * (_m3(down_x) - _m3(down_y))
    hops = []
    if down_x != down_y:
        src, dst = (x, y) if down_x else (y, x)
        moved = tuple(sorted(dst if p == src else p for p in config))
        hops.append((moved, -a.hop))
    return diag, hops


def sector_hamiltonian(L, n, bc, a):
    configs, index = sector(L, n)
    n_bonds = L if bc.tag == "cyclic" else L - 1
    bonds = [(x, x % L + 1) for x in range(1, n_bonds + 1)]
    rows, cols, vals = [], [], []
    for i, config in enumerate(configs):
        diag = 0.0
        for x, y in bonds:
            d, hops = bond_apply(config, x, y, bc.tag == "kink", a)
            diag += d
            for moved, amp in hops:
                rows.append(i)
                cols.append(index[moved])
                vals.append(amp)
        if bc.tag == "droplet":
            diag += (bc.delta / 2.0) * (
                1.0 - _m3(1 in config) - _m3(L in config)
            )
        rows.append(i)
        cols.append(i)
        vals.append(diag)
    dim = len(configs)
    mat = sp.coo_matrix(
        (np.array(vals), (np.array(rows), np.array(cols))), shape=(dim, dim)
    ).tocsr()
    return SparseOperator(mat, "symmetric")


def ring_translate(config, L):
    """Shift every position by one around the ring of L sites."""
    return tuple(sorted(x % L + 1 for x in config))


def orbits(L, n):
    """(representative, size) per orbit, and config -> (orbit, shift)."""
    configs, _ = sector(L, n)
    found, lookup = [], {}
    for config in configs:
        if config in lookup:
            continue
        members = [config]
        cur = ring_translate(config, L)
        while cur != config:
            members.append(cur)
            cur = ring_translate(cur, L)
        for shift, member in enumerate(members):
            lookup[member] = (len(found), shift)
        found.append((config, len(members)))
    return found, lookup


def momentum_block(L, n, k, a):
    found, lookup = orbits(L, n)
    admissible = [oi for oi, (_, size) in enumerate(found) if (k * size) % L == 0]
    col_of = {oi: j for j, oi in enumerate(admissible)}
    phases = _ring_phases(L, k)
    sqrt_size = {oi: math.sqrt(found[oi][1]) for oi in admissible}
    bonds = [(x, x % L + 1) for x in range(1, L + 1)]
    dim = len(admissible)
    block = np.zeros((dim, dim), dtype=np.complex128)
    for oi in admissible:
        j = col_of[oi]
        diag = 0.0
        for x, y in bonds:
            d, hops = bond_apply(found[oi][0], x, y, False, a)
            diag += d
            for moved, amp in hops:
                ti, shift = lookup[moved]
                if ti not in col_of:
                    continue
                block[col_of[ti], j] += (
                    amp * phases[shift] * sqrt_size[oi] / sqrt_size[ti]
                )
        block[j, j] += diag
    block = (block + block.conj().T) / 2.0
    return SparseOperator(sp.csr_matrix(block), "hermitian")


def lowering(L, n, q):
    src, _ = sector(L, n)
    _, dst = sector(L, n + 1)
    rows, cols, vals = [], [], []
    for j, config in enumerate(src):
        for x in range(1, L + 1):
            if x in config:
                continue
            downs_right = sum(1 for p in config if p > x)
            rows.append(dst[tuple(sorted(config + (x,)))])
            cols.append(j)
            vals.append(q ** ((L - x) - 2 * downs_right))
    mat = sp.coo_matrix(
        (np.array(vals, dtype=np.float64), (rows, cols)),
        shape=(len(dst), len(src)),
    ).tocsr()
    return SparseOperator(mat, "general")


def raising(L, n, q):
    src, _ = sector(L, n)
    _, dst = sector(L, n - 1)
    rows, cols, vals = [], [], []
    for j, config in enumerate(src):
        for x in config:
            downs_left = sum(1 for p in config if p < x)
            rows.append(dst[tuple(p for p in config if p != x)])
            cols.append(j)
            vals.append(q ** (-(x - 1) + 2 * downs_left))
    mat = sp.coo_matrix(
        (np.array(vals, dtype=np.float64), (rows, cols)),
        shape=(len(dst), len(src)),
    ).tocsr()
    return SparseOperator(mat, "general")


def is_valid_bracket(arcs, L):
    """Exclusion, non-crossing (nest or disjoint), non-spanning."""
    endpoints = [z for arc in arcs for z in arc]
    if len(set(endpoints)) != len(endpoints):
        return False
    if any(not (1 <= x < y <= L) for x, y in arcs):
        return False
    paired = set(endpoints)
    for x, y in arcs:
        if any(z not in paired for z in range(x + 1, y)):
            return False
    arcs = list(arcs)
    for i in range(len(arcs)):
        x1, y1 = arcs[i]
        for x2, y2 in arcs[i + 1 :]:
            if x1 < x2 < y1 < y2 or x2 < x1 < y2 < y1:
                return False
    return True


def bracket_to_ising(b, L, a):
    """(positions, weight) for each of the 2^n terms of one bracket vector.

    Each arc contributes its left endpoint with weight q^{-1/2} or its
    right endpoint with weight -q^{1/2}.
    """
    assert is_valid_bracket(b, L), b
    s = math.sqrt(a.q)
    entries = []
    arcs = canonical_bracket(b)
    for choice in product((0, 1), repeat=len(arcs)):
        positions = tuple(sorted(arc[c] for arc, c in zip(arcs, choice)))
        n_right = sum(choice)
        coeff = (-1.0) ** n_right * s ** (2 * n_right - len(arcs))
        entries.append((positions, coeff))
    return entries


def intertwiner(L, n, a):
    """R column by column from the bracket expansions."""
    _, index = sector(L, n)
    hw = enumerate_brackets(L, n)
    rows, cols, vals = [], [], []
    for j, b in enumerate(hw):
        for config, coeff in bracket_to_ising(b, L, a):
            rows.append(index[config])
            cols.append(j)
            vals.append(coeff)
    mat = sp.coo_matrix(
        (np.array(vals, dtype=np.float64), (rows, cols)),
        shape=(len(index), len(hw)),
    ).tocsr()
    return SparseOperator(mat, "general")
