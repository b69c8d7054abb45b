"""Central arrangement lct: lattice enumeration and the braid closed form."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from kstab import (
    CentralArrangement,
    Flat,
    InputError,
    LinearForm,
    SizeError,
    braid_arrangement,
    diagonal_discrepancy,
    intersection_lattice,
    lct_braid,
    lct_central,
)
from kstab import arrangements
from kstab.arrangements import MAX_BRAID_G, braid_pairs

F = Fraction


# ---------------------------------------------------------------------------
# a Fraction row-reduction oracle, independent of the integer engine


def rref(rows):
    """Reduced row echelon form as (basis, pivots); the basis tuple is
    a canonical representative of the row space."""
    basis = []
    pivots = []
    for row in rows:
        red = reduce_row(row, basis, pivots)
        piv = next((j for j, x in enumerate(red) if x != 0), None)
        if piv is None:
            continue
        red = tuple(x / red[piv] for x in red)
        for i, b in enumerate(basis):
            if b[piv] != 0:
                basis[i] = tuple(x - b[piv] * y for x, y in zip(b, red))
        pos = 0
        while pos < len(pivots) and pivots[pos] < piv:
            pos += 1
        basis.insert(pos, red)
        pivots.insert(pos, piv)
    return tuple(basis), tuple(pivots)


def reduce_row(row, basis, pivots):
    red = [F(x) for x in row]
    for b, piv in zip(basis, pivots):
        c = red[piv]
        if c != 0:
            for j in range(len(red)):
                red[j] -= c * b[j]
    return tuple(red)


def in_rowspace(row, basis, pivots):
    return all(x == 0 for x in reduce_row(row, basis, pivots))


def rank(rows):
    return len(rref(rows)[0])


def brute_force_flats(arr):
    """Independent oracle: close every subset of hyperplanes.

    For each nonempty subset, the flat it spans is recorded by its
    canonical row space; members are all hyperplanes whose form lies
    in that row space.
    """
    forms = [f.coefficients for f in arr.forms]
    seen = {}
    for size in range(1, len(forms) + 1):
        for subset in combinations(range(len(forms)), size):
            rows = [forms[i] for i in subset]
            basis, pivots = rref(rows)
            if basis in seen:
                continue
            members = frozenset(
                i for i, f in enumerate(forms) if in_rowspace(f, basis, pivots)
            )
            seen[basis] = (len(basis), members)
    return sorted(
        (rk, len(members), tuple(sorted(members)))
        for rk, members in seen.values()
    )


def flat_stats(flats):
    return sorted(
        (f.rank, f.count, tuple(sorted(f.member_indices))) for f in flats
    )


# ---------------------------------------------------------------------------
# the partition lattice of a braid arrangement, an oracle for the engine


def set_partitions(g):
    """All set partitions of {0..g-1} as tuples of sorted blocks."""
    def rec(elements):
        if not elements:
            yield ()
            return
        first, rest = elements[0], elements[1:]
        for sub in rec(rest):
            yield ((first,),) + sub
            for i, block in enumerate(sub):
                yield sub[:i] + ((first,) + block,) + sub[i + 1:]

    yield from rec(tuple(range(g)))


def partition_flat(g, blocks):
    """The braid flat of a set partition: the pairs inside its blocks."""
    pair_index = {p: idx for idx, p in enumerate(braid_pairs(g))}
    members = frozenset(
        pair_index[(a, b)]
        for block in blocks
        for a, b in combinations(sorted(block), 2)
    )
    count = sum(comb(len(b), 2) for b in blocks)
    return Flat(member_indices=members, rank=g - len(blocks), count=count)


def braid_flats(g):
    """All braid flats via the partition lattice (no matrices)."""
    return [
        partition_flat(g, blocks)
        for blocks in set_partitions(g)
        if len(blocks) < g  # all singletons: the ambient space
    ]


# ---------------------------------------------------------------------------
# construction invariants


def test_forms_are_normalized():
    assert LinearForm(["2", 0, "-4"]) == LinearForm([1, 0, -2])
    with pytest.raises(InputError):
        LinearForm([0, 0])


def test_arrangement_must_be_reduced():
    with pytest.raises(InputError):
        CentralArrangement(2, [[1, 0], [2, 0]])  # same hyperplane twice
    with pytest.raises(InputError):
        CentralArrangement(2, [])
    with pytest.raises(InputError):
        CentralArrangement(2, [[1, 0, 0]])  # wrong length


# ---------------------------------------------------------------------------
# intersection lattices


def test_braid3_lattice():
    flats = intersection_lattice(braid_arrangement(3))
    stats = sorted((f.rank, f.count) for f in flats)
    assert stats == [(1, 1), (1, 1), (1, 1), (2, 3)]


def test_single_hyperplane_lattice():
    flats = intersection_lattice(CentralArrangement(3, [[1, 2, 3]]))
    assert [(f.rank, f.count) for f in flats] == [(1, 1)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_coordinate_arrangement_lattice(n):
    # n coordinate forms: one flat per nonempty subset S, stats (|S|, |S|)
    forms = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    flats = intersection_lattice(CentralArrangement(n, forms))
    assert len(flats) == 2 ** n - 1
    expected = sorted(
        (len(s), len(s), tuple(sorted(s)))
        for size in range(1, n + 1)
        for s in combinations(range(n), size)
    )
    assert flat_stats(flats) == expected


def _random_arrangement(rng, n, max_forms=5, fractional=False):
    def entry():
        if fractional:
            return F(rng.randint(-4, 4), rng.randint(1, 5))
        return rng.randint(-2, 2)

    while True:
        rows = {
            tuple(entry() for _ in range(n))
            for _ in range(rng.randint(2, max_forms))
        }
        forms = sorted(
            {LinearForm(r) for r in rows if any(r)},
            key=lambda f: f.coefficients,
        )
        if forms:
            return CentralArrangement(n, forms)


def test_lattice_matches_brute_force_on_random_arrangements():
    rng = random.Random("lattice")
    for _ in range(8):
        arr = _random_arrangement(rng, rng.randint(2, 3))
        assert flat_stats(intersection_lattice(arr)) == brute_force_flats(arr)
    for _ in range(8):
        arr = _random_arrangement(rng, rng.randint(2, 4), 6, fractional=True)
        assert flat_stats(intersection_lattice(arr)) == brute_force_flats(arr)


def test_lattice_size_abort(monkeypatch):
    monkeypatch.setattr(arrangements, "MAX_CANDIDATES", 3)
    with pytest.raises(SizeError, match="exceeds 3 candidate"):
        intersection_lattice(braid_arrangement(5))


# ---------------------------------------------------------------------------
# lct values


def test_lct_braid3_via_lattice():
    cert = lct_central(braid_arrangement(3))
    assert cert.value == F(2, 3)
    assert [(f.rank, f.count) for f in cert.minimizers] == [(2, 3)]


def test_lct_single_hyperplane():
    assert lct_central(CentralArrangement(2, [[1, 1]])).value == 1


def test_lct_three_concurrent_lines():
    arr = CentralArrangement(2, [[1, 0], [0, 1], [1, 1]])
    cert = lct_central(arr)
    assert cert.value == F(2, 3)
    assert [(f.rank, f.count) for f in cert.minimizers] == [(2, 3)]


@pytest.mark.parametrize("g,expected", [(2, F(1)), (3, F(2, 3)), (5, F(2, 5))])
def test_lct_braid_closed_form(g, expected):
    cert = lct_braid(g)
    assert cert.value == expected
    # the one-block partition is always among the minimizers
    full = [f for f in cert.minimizers if f.rank == g - 1]
    assert full and full[0].count == comb(g, 2)


def test_lct_braid_size_cap():
    assert lct_braid(MAX_BRAID_G).value == F(2, MAX_BRAID_G)
    with pytest.raises(SizeError):
        lct_braid(MAX_BRAID_G + 1)


@pytest.mark.parametrize("g", range(2, 8))
def test_braid_fast_path_matches_generic(g):
    fast = lct_braid(g)
    generic = lct_central(braid_arrangement(g))
    assert fast.value == generic.value == F(2, g)
    assert fast.minimizers == generic.minimizers


@pytest.mark.parametrize("g", range(2, 9))
def test_partition_flats_match_matrix_flats(g):
    from_partitions = flat_stats(braid_flats(g))
    from_matrices = flat_stats(intersection_lattice(braid_arrangement(g)))
    assert from_partitions == from_matrices


@pytest.mark.parametrize("g", range(2, 8))
def test_braid_count_bound(g):
    # s(W) <= r(r+1)/2 for every braid flat
    for f in braid_flats(g):
        assert f.count <= f.rank * (f.rank + 1) // 2


def test_lct_bounds_hold_generally():
    rng = random.Random("bounds")
    for _ in range(10):
        arr = _random_arrangement(rng, rng.randint(2, 3))
        flats = intersection_lattice(arr)
        cert = lct_central(arr)
        assert cert.value <= 1
        assert cert.value >= F(min(f.rank for f in flats), len(arr.forms))


# ---------------------------------------------------------------------------
# symmetry invariance


def _random_gl(rng, n):
    while True:
        m = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if rank(m) == n:
            return m


def _apply(matrix, form):
    # pull back the form through the coordinate change x -> matrix x
    return tuple(
        sum(form[i] * matrix[i][j] for i in range(len(form)))
        for j in range(len(form))
    )


def test_lct_invariant_under_gl_and_permutation():
    rng = random.Random("gl")
    base = braid_arrangement(4)
    value = lct_central(base).value
    for _ in range(5):
        m = _random_gl(rng, 4)
        forms = [_apply(m, f.coefficients) for f in base.forms]
        rng.shuffle(forms)
        moved = CentralArrangement(4, forms)
        assert lct_central(moved).value == value


# ---------------------------------------------------------------------------
# the discrepancy identity


@pytest.mark.parametrize("g", range(2, 10))
def test_discrepancy_vanishing_point(g):
    assert diagonal_discrepancy(g, F(2, g)) == -1


def test_discrepancy_examples():
    assert diagonal_discrepancy(3, F(2, 3)) == -1
    assert diagonal_discrepancy(5, 0) == 3
    assert diagonal_discrepancy(4, F(2, 4)) == -1
    with pytest.raises(InputError):
        diagonal_discrepancy(1, F(1))
    with pytest.raises(InputError):
        diagonal_discrepancy(3, F(-1))
