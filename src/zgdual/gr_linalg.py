"""Matrices over Z[G] and the bridge to exact integer linear algebra.

Conventions, fixed once so non-abelian groups work unchanged:

* Modules are free *right* Z[G]-modules of column vectors; a GRMatrix acts
  on the left, entries multiplying entry-wise on the left.  Scalars act on
  the right, so matrix action is a module map.
* ``dual()`` is the involute-transpose.  It represents the Z-dual of the map
  under the pairing that identifies Z[G] with its Z-dual by matching the
  basis element g with the coordinate functional of g.  No signs.
* ``expand()`` replaces each entry c by the |G| x |G| integer matrix of left
  multiplication by c on the Z-basis of Z[G] in table order:
  block[i][j] = coefficient of g_i * g_j^{-1} in c.  With this convention
  expansion is a ring homomorphism, and expand(dual(A)) equals the plain
  transpose of expand(A) -- no basis reindexing is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from zgdual.group_core import FiniteGroup, GroupRingElement
from zgdual.int_linalg import IntegerMatrix, solve_integer


@dataclass(frozen=True)
class GRMatrix:
    """A rows x cols matrix over Z[G]: a map Z[G]^cols -> Z[G]^rows."""

    group: FiniteGroup
    rows: int
    cols: int
    entries: tuple[tuple[GroupRingElement, ...], ...]

    def __post_init__(self):
        if self.cols < 0 or len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError(f"entry grid does not match declared shape {self.rows}x{self.cols}")
        for row in self.entries:
            for e in row:
                if e.group != self.group:
                    raise ValueError("matrix entry belongs to a different group")

    # -- constructors -------------------------------------------------

    @staticmethod
    def _trusted(group: FiniteGroup, rows: int, cols: int, entries) -> GRMatrix:
        """A GRMatrix with no checks, for a grid of the given shape built
        from entries of ``group`` by an operation on checked matrices.
        """
        M = object.__new__(GRMatrix)
        M.__dict__.update(group=group, rows=rows, cols=cols, entries=entries)
        return M

    @staticmethod
    def from_rows(group: FiniteGroup, rows) -> GRMatrix:
        grid = tuple(tuple(row) for row in rows)
        nrows = len(grid)
        ncols = len(grid[0]) if nrows else 0
        return GRMatrix(group, nrows, ncols, grid)

    @staticmethod
    def zeros(group: FiniteGroup, rows: int, cols: int) -> GRMatrix:
        z = GroupRingElement.zero(group)
        return GRMatrix(group, rows, cols, tuple((z,) * cols for _ in range(rows)))

    @staticmethod
    def identity(group: FiniteGroup, n: int) -> GRMatrix:
        one = GroupRingElement.one(group)
        z = GroupRingElement.zero(group)
        return GRMatrix(
            group, n, n, tuple(tuple(one if i == j else z for j in range(n)) for i in range(n))
        )

    @staticmethod
    def scalar(element: GroupRingElement, n: int) -> GRMatrix:
        """Diagonal matrix acting by left multiplication with ``element``."""
        z = GroupRingElement.zero(element.group)
        return GRMatrix(
            element.group,
            n,
            n,
            tuple(tuple(element if i == j else z for j in range(n)) for i in range(n)),
        )

    @staticmethod
    def one_by_one(element: GroupRingElement) -> GRMatrix:
        return GRMatrix(element.group, 1, 1, ((element,),))

    # -- algebra ------------------------------------------------------

    def _check_group(self, other: GRMatrix):
        if self.group != other.group:
            raise ValueError("matrices over different group rings")

    def __matmul__(self, other: GRMatrix) -> GRMatrix:
        self._check_group(other)
        if self.cols != other.rows:
            raise ValueError(f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        G = self.group
        N = G.order
        mul = G.mul_table
        z = GroupRingElement.zero(G)
        # each row of other once, as (column, support) pairs of its nonzero entries
        other_rows = [
            [(j, e.support) for j, e in enumerate(row) if e.support] for row in other.entries
        ]
        grid = []
        for arow in self.entries:
            acc = {}  # column -> coefficient list of the output entry
            for a, brow in zip(arow, other_rows):
                sa = a.support
                if not (sa and brow):
                    continue
                for j, sb in brow:
                    c = acc.get(j)
                    if c is None:
                        c = acc[j] = [0] * N
                    for ia, ca in sa:
                        mrow = mul[ia]
                        for ib, cb in sb:
                            c[mrow[ib]] += ca * cb
            grid.append(
                tuple(
                    GroupRingElement(G, tuple(acc[j])) if j in acc else z
                    for j in range(other.cols)
                )
            )
        return GRMatrix._trusted(G, self.rows, other.cols, tuple(grid))

    def __add__(self, other: GRMatrix) -> GRMatrix:
        self._check_group(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return GRMatrix._trusted(
            self.group,
            self.rows,
            self.cols,
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> GRMatrix:
        return GRMatrix._trusted(
            self.group, self.rows, self.cols, tuple(tuple(-a for a in row) for row in self.entries)
        )

    def __sub__(self, other: GRMatrix) -> GRMatrix:
        return self + (-other)

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def dual(self) -> GRMatrix:
        """Involute-transpose: the dual map Z[G]^rows -> Z[G]^cols."""
        z = GroupRingElement.zero(self.group)
        columns = zip(*self.entries) if self.rows else ((),) * self.cols
        grid = tuple(tuple(e.involute() if any(e.coeffs) else z for e in col) for col in columns)
        return GRMatrix._trusted(self.group, self.cols, self.rows, grid)

    def expand(self) -> IntegerMatrix:
        """Integer matrix of the same map on Z-bases (see module docstring),
        built as sparse rows from the supports of the entries.

        Block (i, j) at row a has the coefficient of h at column b where
        g_a g_b^{-1} == h, so term (h, v) of entry (i, j) puts v at row
        i N + a, column j N + index(h^{-1} g_a); distinct terms of one
        entry land in distinct columns.
        """
        G = self.group
        N = G.order
        # shift[h][a] is the index of h^{-1} g_a
        shift = [G.mul_table[h] for h in G.inv_table]
        lines = []
        for entry_row in self.entries:
            terms = [(j * N, shift[h], v) for j, e in enumerate(entry_row) for h, v in e.support]
            for a in range(N):
                lines.append({base + s[a]: v for base, s, v in terms})
        return IntegerMatrix._from_sparse_rows(self.cols * N, lines)

    def augmented(self) -> IntegerMatrix:
        """Entrywise augmentation: the induced map on trivial coefficients."""
        lines = [{j: a for j, e in enumerate(row) if (a := e.augmentation())} for row in self.entries]
        return IntegerMatrix._from_sparse_rows(self.cols, lines)


def stack_columns(B: GRMatrix) -> IntegerMatrix:
    """Integer coordinates of the Z[G]-columns of B, stacked as in expand().

    Row block i holds the coefficient vectors of row i, so for any A,
    expand(A) @ stack_columns(X) == stack_columns(A @ X).
    """
    N = B.group.order
    lines = [{} for _ in range(B.rows * N)]
    for i, row in enumerate(B.entries):
        for j, e in enumerate(row):
            for a, v in e.support:
                lines[i * N + a][j] = v
    return IntegerMatrix._from_sparse_rows(B.cols, lines)


def fold_columns(group: FiniteGroup, X: IntegerMatrix, gr_cols: int) -> GRMatrix:
    """Inverse of stack_columns: the gr_cols x X.cols matrix over Z[G]."""
    N = group.order
    coeffs = [[[0] * N for _ in range(X.cols)] for _ in range(gr_cols)]
    for i, line in enumerate(X.sparse_rows):
        j, a = divmod(i, N)
        for l, v in line.items():
            coeffs[j][l][a] = v
    grid = tuple(tuple(GroupRingElement(group, tuple(c)) for c in row) for row in coeffs)
    return GRMatrix._trusted(group, gr_cols, X.cols, grid)


def solve_gr_linear(A: GRMatrix, B: GRMatrix):
    """An X over Z[G] with A @ X == B, or None when no solution exists.

    Solved by expanding to an exact integer system and folding the solution
    back; the coordinate bijection makes this faithful, so None really means
    there is no Z[G]-linear solution.  Deterministic via SNF back-substitution.
    """
    A._check_group(B)
    if A.rows != B.rows:
        raise ValueError(f"A has {A.rows} rows but B has {B.rows}")
    X = solve_integer(A.expand(), stack_columns(B))
    if X is None:
        return None
    return fold_columns(A.group, X, A.cols)


def invert_gr_matrix(A: GRMatrix):
    """Two-sided inverse of a square GRMatrix, or None if not a unit."""
    if A.rows != A.cols:
        raise ValueError("only square matrices can be inverted")
    X = solve_gr_linear(A, GRMatrix.identity(A.group, A.rows))
    if X is None:
        return None
    if (X @ A) != GRMatrix.identity(A.group, A.rows):
        return None
    return X
