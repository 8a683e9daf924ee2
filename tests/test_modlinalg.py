import random
from fractions import Fraction

from rigidity_forge.global_rigidity import stress_matrix
from rigidity_forge.modlinalg import (
    DEFAULT_PRIME,
    ModMatrix,
    RowBasis,
    is_prime,
    left_kernel_basis,
    left_kernel_sample,
    make_rng,
    rank,
    rank_of_rows,
)
from rigidity_forge.rigidity import placements

from helpers import forward_left_kernel_basis, forward_left_kernel_sample, random_graph

P = DEFAULT_PRIME


def sparse(row):
    return {j: x % P for j, x in enumerate(row) if x % P}


def matrix(rows, cols):
    return ModMatrix([sparse(row) for row in rows], cols)


def left_product(w, rows, cols):
    """w . M over Z_p, written out entry by entry."""
    return [sum(wi * row[j] for wi, row in zip(w, rows)) % P for j in range(cols)]


def rational_rank(rows):
    """Independent oracle: Gaussian elimination over exact rationals.

    Valid as a mod-p cross-check for small integer matrices: every minor is
    far below the modulus, so the ranks agree exactly, not just whp.
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    rk, col = 0, 0
    ncols = len(rows[0]) if rows else 0
    while rk < len(rows) and col < ncols:
        piv = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        for i in range(rk + 1, len(rows)):
            f = rows[i][col] / rows[rk][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rk])]
        rk += 1
        col += 1
    return rk


def test_default_prime_is_the_mersenne_prime():
    assert P == 2**61 - 1
    assert is_prime(P)


def test_rank_examples():
    assert rank(matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)) == 3
    assert rank(matrix([[0] * 5, [0] * 5], 5)) == 0
    assert rank(matrix([[1, 2, 3, 4], [2, 4, 6, 8]], 4)) == 1
    assert rank(matrix([], 4)) == 0
    assert rank(matrix([[], [], []], 0)) == 0


def test_rank_bounds_and_permutation_invariance():
    rng = random.Random(12)
    for _ in range(60):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-50, 50) for _ in range(c)] for _ in range(r)]
        rk = rank(matrix(rows, c))
        assert rk <= min(r, c)
        rng.shuffle(rows)
        perm = list(range(c))
        rng.shuffle(perm)
        shuffled = [[row[j] for j in perm] for row in rows]
        assert rank(matrix(shuffled, c)) == rk


def test_rank_matches_rational_oracle():
    rng = random.Random(77)
    for _ in range(80):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-30, 30) for _ in range(c)] for _ in range(r)]
        # plant some dependent rows
        if r >= 2 and rng.random() < 0.5:
            rows[-1] = [2 * x for x in rows[0]]
        sparse_rows = [sparse(row) for row in rows]
        assert rank_of_rows(sparse_rows, c, P) == rational_rank(rows)
        assert sparse_rows == [sparse(row) for row in rows]  # rows are not consumed


def test_row_basis_add_and_in_span():
    basis = RowBasis(P)
    assert basis.add({0: 1, 2: 5}) and basis.add({1: 3})
    assert not basis.add({0: 2, 1: 6, 2: 10})  # 2*(first) + 2*(second)
    assert basis.rank == 2
    assert basis.in_span({0: 1, 1: 1, 2: 5}) and not basis.in_span({2: 1})
    assert basis.rank == 2  # in_span leaves the basis alone
    assert basis.in_span({}) and not basis.add({})


def test_left_kernel_sample_examples():
    assert left_kernel_sample(matrix([[1]], 1), seed=4) == [0]
    assert left_kernel_sample(matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3), seed=4) == [0, 0, 0]
    w = left_kernel_sample(matrix([[1, 0], [1, 0]], 2), seed=4)
    assert w[0] != 0 and (w[0] + w[1]) % P == 0
    assert left_kernel_sample(matrix([[], []], 0), seed=4)[0] != 0  # no columns: all of Z_p^2


def test_left_kernel_sample_annihilates_exactly():
    rng = random.Random(5)
    for trial in range(40):
        r, c = rng.randint(1, 7), rng.randint(1, 5)
        rows = [[rng.randrange(P) if rng.random() < 0.7 else 0 for _ in range(c)] for _ in range(r)]
        m = matrix(rows, c)
        w = left_kernel_sample(m, seed=trial)
        assert left_product(w, rows, c) == [0] * c
        basis = left_kernel_basis(m)
        assert len(basis) == r - rank(m)
        assert any(w) == bool(basis)


def test_left_kernel_basis_is_canonical():
    # free rows are those in the span of the rows before them; the basis has
    # one vector per free row, 1 there and 0 at every other free row
    rng = random.Random(31)
    for _ in range(40):
        r, c = rng.randint(1, 7), rng.randint(1, 5)
        rows = [[rng.choice((0, 0, 1, 2, 3)) for _ in range(c)] for _ in range(r)]
        if r >= 3:
            rows[2] = [(a - b) % P for a, b in zip(rows[0], rows[1])]
        sparse_rows = [sparse(row) for row in rows]
        free = [i for i in range(r)
                if rank_of_rows(sparse_rows[: i + 1], c, P) == rank_of_rows(sparse_rows[:i], c, P)]
        basis = left_kernel_basis(ModMatrix(sparse_rows, c))
        assert len(basis) == len(free)
        for f, w in zip(free, basis):
            assert [w[g] for g in free] == [int(g == f) for g in free]
            assert left_product(w, rows, c) == [0] * c


def test_appending_row_in_row_space_keeps_rank():
    rng = random.Random(8)
    for trial in range(30):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randrange(100) for _ in range(c)] for _ in range(r)]
        coeffs = [rng.randrange(P) for _ in range(r)]
        extra = [sum(k * row[j] for k, row in zip(coeffs, rows)) % P for j in range(c)]
        assert rank(matrix(rows + [extra], c)) == rank(matrix(rows, c))
        basis = RowBasis(P)
        for row in rows:
            basis.add(sparse(row))
        assert basis.in_span(sparse(extra))


def test_kernel_sample_is_seed_deterministic():
    m = matrix([[1, 1], [2, 2], [3, 3], [4, 4]], 2)
    assert left_kernel_sample(m, seed=9) == left_kernel_sample(m, seed=9)
    rng_a, rng_b = make_rng(123), make_rng(123)
    assert [rng_a.randrange(P) for _ in range(5)] == [rng_b.randrange(P) for _ in range(5)]


# -- feed order ----------------------------------------------------------------


def rank_deficient_rows(rng, r, c):
    """Random rows of length c over Z_p whose rank is below min(r, c): one
    row is a combination of two others, one column a multiple of another."""
    rows = [[rng.randrange(P) if rng.random() < 0.6 else 0 for _ in range(c)] for _ in range(r)]
    a, b, i = rng.sample(range(r), 3)
    k = rng.randrange(P)
    rows[i] = [(x + k * y) % P for x, y in zip(rows[a], rows[b])]
    j = rng.randrange(c)
    for row in rows:
        row[j] = 2 * row[(j + 1) % c] % P
    return rows


def test_left_kernel_ignores_the_column_feed_order():
    # permuting the columns keeps the left kernel; the last-first column feed
    # must give what a first-to-last feed gives on the unpermuted matrix
    rng = random.Random(1401)
    for trial in range(60):
        r, c = rng.randint(3, 9), rng.randint(2, 7)
        rows = rank_deficient_rows(rng, r, c)
        m = matrix(rows, c)
        assert rank(m) < min(r, c)
        expect_basis = forward_left_kernel_basis(m)
        expect_sample = forward_left_kernel_sample(m, trial)
        for _ in range(3):
            perm = list(range(c))
            rng.shuffle(perm)
            shuffled = matrix([[row[j] for j in perm] for row in rows], c)
            assert left_kernel_basis(shuffled) == expect_basis
            assert left_kernel_sample(shuffled, trial) == expect_sample


def test_rank_of_rows_ignores_the_row_feed_order():
    rng = random.Random(1402)
    cases = []
    for _ in range(40):
        r, c = rng.randint(3, 9), rng.randint(2, 7)
        cases.append(([sparse(row) for row in rank_deficient_rows(rng, r, c)], c))
    for n in (8, 12, 16):
        g = random_graph(rng, n, 0.6)
        rows, stream = next(placements(g, 2, 1, rng.getrandbits(32), P))
        stress = left_kernel_sample(ModMatrix(rows, 2 * n, P), stream.getrandbits(64))
        assert any(stress)
        cases.append((stress_matrix(g, tuple(stress), P).data, n))
    for rows, cols in cases:
        forward = RowBasis(P)
        for row in rows:
            forward.add(row)
        for _ in range(4):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert rank_of_rows(shuffled, cols, P) == forward.rank
