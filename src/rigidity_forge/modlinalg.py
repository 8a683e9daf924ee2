"""Exact linear algebra over a prime field Z_p.

Every operation rests on one incremental row-echelon basis,
:class:`RowBasis`, whose rows are sparse: a row is a dict mapping each
column of a nonzero entry to that entry, reduced mod p (zero entries are
left out).  The modulus is taken on trust: it must be prime.  Every module
above this one computes over the one field :data:`DEFAULT_PRIME`, and each
randomized verdict draws :data:`TRIALS` placements.

All randomness flows through :func:`make_rng`, a Mersenne Twister
(``random.Random``) seeded with a 64-bit unsigned integer.  The generator
algorithm is fixed across platforms and CPython versions for the methods
used here (``getrandbits`` / ``randrange``), so every downstream verdict is
bit-reproducible from its seed.
"""

from __future__ import annotations

import random

#: The field of every verdict: the Mersenne prime 2^61 - 1.  One random
#: evaluation misses a generic rank r with probability at most r / (p - 1)
#: (Schwartz-Zippel: a nonzero r x r minor has degree r in coordinates drawn
#: from p - 1 values), below 6e-14 for every accepted input, where
#: r <= dn <= 120,000.
DEFAULT_PRIME = (1 << 61) - 1
#: The placements of every randomized verdict: a verdict misses only if
#: each of them does.
TRIALS = 2

MASK64 = (1 << 64) - 1

Row = dict[int, int]


def make_rng(seed: int) -> random.Random:
    """The documented PRNG: Mersenne Twister with a 64-bit unsigned seed."""
    return random.Random(seed & MASK64)


class RowBasis:
    """Row-echelon basis over Z_p, grown one sparse row at a time.

    ``pivots`` maps the leading (smallest) column of each basis row to the
    rest of that row, scaled so the leading entry is 1.  No two basis rows
    share a leading column.  Rows fed in increasing leading column fill in
    every later pivot row, so :meth:`extend` feeds them last-first.
    """

    __slots__ = ("p", "pivots")

    def __init__(self, p: int):
        self.p = p
        self.pivots: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, row: Row) -> Row:
        """A copy of row minus basis rows until its leading column is not a
        pivot; empty iff row lies in the span.  This is the one elimination
        loop of the package."""
        row = dict(row)
        pivots, p = self.pivots, self.p
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                break
            f = row.pop(lead)
            for j, x in prow.items():
                y = (row.get(j, 0) - f * x) % p
                if y:
                    row[j] = y
                else:
                    del row[j]
        return row

    def add(self, row: Row) -> bool:
        """Add row to the basis; True iff it was independent of the basis."""
        rest = self._reduce(row)
        if not rest:
            return False
        lead = min(rest)
        inv = pow(rest.pop(lead), -1, self.p)
        self.pivots[lead] = {j: x * inv % self.p for j, x in rest.items()}
        return True

    def in_span(self, row: Row) -> bool:
        """True iff row is a combination of the basis rows; the basis is unchanged."""
        return not self._reduce(row)

    def extend(self, rows: list[Row], cap: int | None = None) -> RowBasis:
        """Add rows last-first, stopping once the rank reaches cap; returns self.
        The span reached does not depend on the order, only the fill does."""
        for row in reversed(rows):
            if len(self.pivots) == cap:
                break
            self.add(row)
        return self


class ModMatrix:
    """A rows x cols matrix over Z_p held as sparse rows (see module doc)."""

    __slots__ = ("data", "rows", "cols", "p")

    def __init__(self, data: list[Row], cols: int, p: int = DEFAULT_PRIME):
        self.data = data
        self.rows = len(data)
        self.cols = cols
        self.p = p

    def __repr__(self) -> str:
        return f"ModMatrix({self.rows}x{self.cols} mod {self.p})"


def rank_of_rows(rows: list[Row], cols: int, p: int, cap: int | None = None) -> int:
    """Rank of the span of sparse rows; the rows are not changed.

    cols, the row length, states the matrix shape; the sparse elimination
    does not need it (perfbench reads it to count eliminated cells).  With a
    cap, elimination stops once the rank reaches it, so the result is
    min(rank, cap); a caller whose rank cannot exceed the cap loses nothing.
    """
    return RowBasis(p).extend(rows, cap).rank


def rank(m: ModMatrix) -> int:
    """Exact rank over Z_p; 0 for empty matrices."""
    return rank_of_rows(m.data, m.cols, m.p)


def _column_basis(m: ModMatrix) -> RowBasis:
    """Echelon basis of the column space of m, as vectors indexed by row.

    Its leading positions are the rows that are not combinations of earlier
    rows; the others are the free coordinates of the left kernel.  Both depend
    on the column space alone, so columns go in last-first for less fill; the
    row order stays, as it fixes the free rows and so every kernel vector.
    """
    columns: list[Row] = [{} for _ in range(m.cols)]
    for i, row in enumerate(m.data):
        for j, x in row.items():
            columns[j][i] = x
    return RowBasis(m.p).extend(columns)


def _kernel_vector(basis: RowBasis, w: list[int]) -> list[int]:
    """Fill the pivot coordinates of w, whose free coordinates are set, so
    that w is orthogonal to every basis row (back-substitution)."""
    p = basis.p
    for q in sorted(basis.pivots, reverse=True):
        w[q] = -sum(x * w[j] for j, x in basis.pivots[q].items()) % p
    return w


def left_kernel_basis(m: ModMatrix) -> list[list[int]]:
    """Basis of {w : w.m = 0}, each vector of length m.rows.

    The canonical basis: one vector per free row f, with entry 1 at f and 0
    at every other free row, in increasing order of f.
    """
    basis = _column_basis(m)
    out = []
    for f in range(m.rows):
        if f not in basis.pivots:
            w = [0] * m.rows
            w[f] = 1
            out.append(_kernel_vector(basis, w))
    return out


def left_kernel_sample(m: ModMatrix, seed: int, count: int = 1) -> tuple[int, list[list[int]]]:
    """The rank of m and `count` seeded random left-kernel elements, all from
    one column elimination; each is all-zero iff the kernel is trivial.

    Each is a uniform Z_p-combination of the :func:`left_kernel_basis`
    vectors, drawn as its free coordinates in increasing row order, one after
    another from one stream.  An all-zero draw is redrawn up to seven times,
    then the first free coordinate is set to 1, so the zero vector uniquely
    signals a trivial kernel.
    """
    basis = _column_basis(m)
    free = [f for f in range(m.rows) if f not in basis.pivots]
    rng, out = make_rng(seed), []
    for _ in range(count):
        w = [0] * m.rows
        draws = ([rng.randrange(m.p) for _ in free] for _ in range(8))
        for f, c in zip(free, next((c for c in draws if any(c)), [1])):
            w[f] = c
        out.append(_kernel_vector(basis, w) if free else w)
    return basis.rank, out
