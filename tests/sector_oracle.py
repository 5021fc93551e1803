"""Reference sector builders: plain Python loops over position tuples.

These are the direct per-configuration and per-bracket constructions
that the array builders in ``xxzdroplet`` replace.  They are slow and
kept only so the tests can demand identical CSR arrays from both.
Configurations are strictly increasing tuples of 1-based down-spin
positions, ordered lexicographically and indexed through a dict.
Bracket systems are tuples of (left, right) arcs, found by a search
that ``is_valid_bracket`` filters and moved by the seven-case
Temperley-Lieb rule ``tl_apply``.  At the end, the COO array references
keep the earlier array forms of the sector builder, the mirror and the
even block, for byte comparisons.
"""

import math
from functools import lru_cache
from itertools import combinations, product

import numpy as np
import scipy.sparse as sp

from xxzdroplet.operators import SparseOperator


def sector(L, n):
    configs = tuple(combinations(range(1, L + 1), n))
    return configs, {c: i for i, c in enumerate(configs)}


def mask(config, L):
    """Bit pattern of a configuration: a down spin at site p sets bit L - p."""
    return sum(1 << (L - p) for p in config)


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


def phase(L, l):
    """e^{2 pi i l / L}, folded onto the first octant of the circle.

    The angle 2 pi l / L is reflected into [0, pi/4], keeping track of
    the conjugation, negation and exchange of real and imaginary parts
    that undo each reflection; pi/4 itself has equal parts.  So l and
    L - l give exact conjugates, quarter turns are exact and an eighth
    turn has equal parts.
    """
    u, conj, neg, swap = 8 * (l % L), False, False, False
    if u > 4 * L:
        u, conj = 8 * L - u, True
    if u > 2 * L:
        u, neg = 4 * L - u, True
    if u > L:
        u, swap = 2 * L - u, True
    if u == L:
        val = complex(math.sqrt(0.5), math.sqrt(0.5))
    else:
        y = math.pi * u / (4 * L)
        val = complex(math.cos(y), math.sin(y))
    if swap:
        val = complex(val.imag, val.real)
    if neg:
        val = -val.conjugate()
    return val.conjugate() if conj else val


def reflect(config, L):
    """Mirror every position on the ring of L sites, p -> L + 1 - p."""
    return tuple(sorted(L + 1 - x for x in config))


def site_reflection(L, n):
    """rows[i]: the row of configuration i mirrored by ``reflect``."""
    configs, index = sector(L, n)
    return np.array([index[reflect(c, L)] for c in configs], dtype=np.int64)


def admissible_orbits(L, n, k):
    """(representative, size) of the orbits with k * size = 0 mod L, and
    config -> (column of its orbit, shift) for their members."""
    found, lookup = orbits(L, n)
    col_of = {}
    for oi, (_, size) in enumerate(found):
        if (k * size) % L == 0:
            col_of[oi] = len(col_of)
    where = {c: (col_of[oi], s) for c, (oi, s) in lookup.items() if oi in col_of}
    return [found[oi] for oi in col_of], where


def mirror(L, n, k):
    """Per column: the column of the mirror orbit and the shift m of the
    mirrored representative within it."""
    reps, where = admissible_orbits(L, n, k)
    pairs = [where[reflect(rep, L)] for rep, _ in reps]
    return [col for col, _ in pairs], [m for _, m in pairs]


def block_hops(L, n, k, a):
    """Per column: its diagonal and its hops, in bond order, as
    (row, shift, amp, sqrt(size), 1 / sqrt(size of the row's orbit))."""
    reps, where = admissible_orbits(L, n, k)
    bonds = [(x, x % L + 1) for x in range(1, L + 1)]
    out = []
    for rep, size in reps:
        diag, hops = 0.0, []
        for x, y in bonds:
            d, moves = bond_apply(rep, x, y, False, a)
            diag += d
            for moved, amp in moves:
                if moved in where:
                    row, shift = where[moved]
                    hops.append((row, shift, amp, math.sqrt(size),
                                 1.0 / math.sqrt(reps[row][1])))
        out.append((diag, hops))
    return out


def momentum_block(L, n, k, a):
    """The complex Hermitian momentum-k block over the phase-summed orbits."""
    terms = block_hops(L, n, k, a)
    block = np.zeros((len(terms), len(terms)), dtype=np.complex128)
    for j, (diag, hops) in enumerate(terms):
        for row, shift, amp, w, inv in hops:
            block[row, j] += amp * phase(L, k * shift) * w * inv
        block[j, j] += diag
    return sp.csr_matrix((block + block.conj().T) / 2.0)


def reflection(L, n, k):
    """Rephasing c and permutation P with P B' P = conj B' for B' = c* B c.

    Orbit o is rephased by e^{i pi k m / L}, m the shift of its mirrored
    representative, and P swaps each orbit with its mirror orbit.
    """
    partner, half = mirror(L, n, k)
    dim = len(partner)
    c = np.array([phase(2 * L, k * m) for m in half], dtype=np.complex128)
    perm = sp.csr_matrix((np.ones(dim), (np.arange(dim), partner)), shape=(dim, dim))
    return c, perm


def momentum_real_form(L, n, k, a):
    """Re B' + (Im B') P for the rephased block B', entry by entry.

    The hop from column j to row r carries the phase
    e^{i pi k (2 shift + m_j - m_r) / L}.  Its real part is summed into
    (r, j) and its imaginary part into (r, partner of j), each part over
    the bonds in order with the diagonal last; the parts are then added
    and the sum averaged with its transpose.
    """
    partner, half = mirror(L, n, k)
    terms = block_hops(L, n, k, a)
    re = np.zeros((len(terms), len(terms)))
    im = np.zeros_like(re)
    for j, (diag, hops) in enumerate(terms):
        for row, shift, amp, w, inv in hops:
            ph = phase(2 * L, k * (2 * shift + half[j] - half[row]))
            re[row, j] += amp * ph.real * w * inv
            im[row, partner[j]] += amp * ph.imag * w * inv
        re[j, j] += diag
    block = re + im
    return SparseOperator(sp.csr_matrix((block + block.T) / 2.0), "symmetric")


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


def canonical_bracket(arcs):
    """Arcs sorted by right endpoint."""
    return tuple(sorted((tuple(a) for a in arcs), key=lambda a: a[1]))


def bracket_sort_key(b):
    return (tuple(sorted(y for _, y in b)), tuple(sorted(x for x, _ in b)))


@lru_cache(maxsize=None)
def brackets(L, n):
    """Every valid n-arc bracket system on L sites, in canonical form,
    ordered by sorted right ends, then sorted left ends.

    Arcs are added in increasing right end and each extension is kept
    when ``is_valid_bracket`` accepts it.  The sites inside an arc are
    paired by arcs nested in it, which close earlier, so every prefix
    of a valid bracket is valid and the search reaches them all.  A
    branch stops when the remaining arcs cannot all close after the
    last right end.
    """
    if 2 * n > L:
        # n arcs need 2n distinct sites
        return ()
    found = []

    def grow(arcs, used):
        if len(arcs) == n:
            found.append(canonical_bracket(arcs))
            return
        last = arcs[-1][1] if arcs else 0
        if n - len(arcs) > L - last:
            return
        for y in range(last + 1, L + 1):
            for x in range(1, y):
                if x not in used and is_valid_bracket(arcs + ((x, y),), L):
                    grow(arcs + ((x, y),), used | {x, y})

    grow((), frozenset())
    return tuple(sorted(found, key=bracket_sort_key))


def right_mask(b, L):
    """Bit pattern of a bracket's right ends."""
    return mask([y for _, y in b], L)


def arcs_of(basis):
    """Bracket of each right-end mask of a basis, looked up among
    ``brackets(basis.L, basis.n)``."""
    lookup = {right_mask(b, basis.L): b for b in brackets(basis.L, basis.n)}
    return tuple(lookup[m] for m in basis.masks.tolist())


def _role(z, b):
    for arc in b:
        if arc[0] == z:
            return "left", arc
        if arc[1] == z:
            return "right", arc
    return "free", None


def tl_apply(x, b, L, a):
    """(result, scalar) of the generator at bond (x, x+1); None when it
    annihilates.

    The seven actionable patterns on a valid bracket: both sites free
    (null); the bubble [x, x+1] with scalar -(q + 1/q); one endpoint
    overlapping at x or at x+1; and three two-arc rewirings (adjacent
    fuse, nested at left endpoints, nested at right endpoints), each
    with scalar 1.  Any other pattern certifies the input was not a
    valid bracket.
    """
    if not 1 <= x <= L - 1:
        raise ValueError(f"bond index must lie in [1, {L - 1}]: {x}")
    b = canonical_bracket(b)
    role_x, arc_x = _role(x, b)
    role_y, arc_y = _role(x + 1, b)

    if role_x == "free" and role_y == "free":
        return None
    if arc_x == arc_y:
        # exclusion leaves only [x, x+1] itself
        return b, -a.two_delta

    rest = tuple(arc for arc in b if arc not in (arc_x, arc_y))
    pair = (x, x + 1)
    if role_x == "free":
        if role_y == "left":
            # [x+1, z] slides onto the bond, freeing z
            return canonical_bracket(rest + (pair,)), 1.0
        raise ValueError(f"site {x} unpaired inside {arc_y}: invalid bracket")
    if role_y == "free":
        if role_x == "right":
            return canonical_bracket(rest + (pair,)), 1.0
        raise ValueError(f"site {x + 1} unpaired inside {arc_x}: invalid bracket")

    if role_x == "right" and role_y == "left":
        # adjacent arcs [w, x], [x+1, z] fuse into [w, z]
        new_arc = (arc_x[0], arc_y[1])
    elif role_x == "left" and role_y == "left":
        # [x+1, z] nested in [x, v]: leftover arc [z, v]
        new_arc = (arc_y[1], arc_x[1])
    elif role_x == "right" and role_y == "right":
        # [w, x] nested in [u, x+1]: leftover arc [u, w]
        new_arc = (arc_y[0], arc_x[0])
    else:
        raise ValueError(
            f"arcs {arc_x} and {arc_y} cross at bond {x}: invalid bracket"
        )
    return canonical_bracket(rest + (pair, new_arc)), 1.0


def bond_sum(bonds, L, n, a, divisor):
    """Sum over the bonds of the generator matrices on ``brackets(L, n)``,
    each scalar divided by divisor; column b collects its moves in bond
    order."""
    basis = brackets(L, n)
    index = {b: i for i, b in enumerate(basis)}
    rows, cols, vals = [], [], []
    for j, b in enumerate(basis):
        for x in bonds:
            move = tl_apply(x, b, L, a)
            if move is None:
                continue
            result, scalar = move
            rows.append(index[result])
            cols.append(j)
            vals.append(scalar / divisor)
    mat = sp.coo_matrix(
        (np.array(vals, dtype=np.float64), (rows, cols)),
        shape=(len(basis), len(basis)),
    ).tocsr()
    return SparseOperator(mat, "general")


def tl_matrix(x, L, n, a):
    return bond_sum((x,), L, n, a, 1.0)


def hw_matrix(L, n, a):
    """The kink chain, -(q + 1/q)^-1 times the generators over bonds 1..L-1."""
    return bond_sum(range(1, L), L, n, a, -a.two_delta)


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
    hw = brackets(L, n)
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


# ------------------------------------------------- COO array references
#
# The array builders as they stood before the sector matrices were
# written directly in CSR order: per-bond (row, column, value) lists with
# every hop's row found by binary search, assembled through COO; the
# mirror by bit reversal and search; and the even block through
# fancy-indexed CSR copies.  The direct builders must reproduce their
# arrays byte for byte.


@lru_cache(maxsize=None)
def coo_masks(L, n):
    """Descending masks of the sector: the lexicographic order of tuples."""
    configs, _ = sector(L, n)
    if L > 62:
        masks = np.array([mask(c, L) for c in configs], dtype=object)
    else:
        sites = np.array(configs, dtype=np.int64).reshape(len(configs), n)
        masks = (np.int64(1) << (L - sites)).sum(axis=1, dtype=np.int64)
    masks.flags.writeable = False
    return masks


def _search(masks, queries):
    ascending = masks[::-1]
    pos = np.searchsorted(ascending, np.asarray(queries, dtype=masks.dtype))
    assert np.all(ascending[np.minimum(pos, len(masks) - 1)] == queries)
    return len(masks) - 1 - pos


def _down(masks, L, p):
    return ((masks >> (L - p)) & 1).astype(bool)


def coo_sector_hamiltonian(L, n, bc, a):
    masks = coo_masks(L, n)
    dim = len(masks)
    idx = np.arange(dim)
    diag = np.zeros(dim)
    rows, cols, vals = [], [], []
    n_bonds = L if bc.tag == "cyclic" else L - 1
    for x in range(1, n_bonds + 1):
        y = x % L + 1
        down_x, down_y = _down(masks, L, x), _down(masks, L, y)
        differ = down_x != down_y
        term = np.where(differ, 0.5, 0.0)
        if bc.tag == "kink":
            term += -(a.alpha / 2.0) * (down_y.astype(float) - down_x.astype(float))
        diag += term
        flip = (1 << (L - x)) | (1 << (L - y))
        rows.append(idx[differ])
        cols.append(_search(masks, masks[differ] ^ flip))
        vals.append(np.full(len(rows[-1]), -a.hop))
    if bc.tag == "droplet":
        diag += (bc.delta / 2.0) * (
            _down(masks, L, 1).astype(float) + _down(masks, L, L).astype(float)
        )
    mat = sp.coo_matrix(
        (
            np.concatenate(vals + [diag]),
            (np.concatenate(rows + [idx]), np.concatenate(cols + [idx])),
        ),
        shape=(dim, dim),
    ).tocsr()
    return SparseOperator(mat, "symmetric")


def searched_mirror_rows(L, n):
    masks = coo_masks(L, n)
    mirrored = np.zeros_like(masks)
    for p in range(L):
        mirrored |= ((masks >> p) & 1) << (L - 1 - p)
    return _search(masks, mirrored)


def coo_even_block(op, mirror):
    mat = op.matrix
    dim = op.dim
    idx = np.arange(dim, dtype=np.int64)
    mirror = np.asarray(mirror, dtype=np.int64)
    if mirror.shape != (dim,) or np.any((mirror < 0) | (mirror >= dim)):
        raise ValueError(f"mirror must map the {dim} rows onto themselves")
    if not np.array_equal(mirror[mirror], idx):
        raise ValueError("mirror is not an involution")
    if (mat[mirror][:, mirror] != mat).nnz:
        raise ValueError("the operator does not commute with the mirror")
    reps = np.flatnonzero(mirror >= idx)
    m = len(reps)
    orbit = np.empty(dim, dtype=np.int64)
    orbit[reps] = np.arange(m)
    orbit[mirror[reps]] = np.arange(m)
    weight = np.where(mirror[reps] == reps, 1.0, math.sqrt(0.5))
    lift = sp.csr_matrix((weight[orbit], (idx, orbit)), shape=(dim, m))
    sub = mat[reps]
    rows = np.repeat(np.arange(m), np.diff(sub.indptr))
    cols = orbit[sub.indices]
    block = sp.csr_matrix(
        (sub.data * weight[cols] / weight[rows], (rows, cols)), shape=(m, m)
    )
    block = block + block.T
    block.data /= 2.0
    return SparseOperator(block, "symmetric"), lift
