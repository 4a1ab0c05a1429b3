"""Matrices over Z[G] and the bridge to exact integer linear algebra.

A GRMatrix holds its nonzero entries as sparse rows, a dict column ->
nonzero GroupRingElement per row, as IntegerMatrix holds its integers, and
each entry holds only its nonzero terms.  Products, sums, duals, expansion
and augmentation read and build only those; the dense ``entries`` grid is
built only when something reads it, and each matrix builds its dual once.

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

from zgdual.group_core import FiniteGroup, GroupRingElement, _nonzero
from zgdual.int_linalg import IntegerMatrix, solve_integer


class GRMatrix:
    """A rows x cols matrix over Z[G]: a map Z[G]^cols -> Z[G]^rows.

    ``sparse_rows`` holds row i as a dict column -> nonzero entry; the
    row-major grid ``entries`` is built from them on its first read.  A
    matrix is built from a checked grid (``GRMatrix(group, rows, cols,
    entries)``, ``from_rows``, ``one_by_one``), by ``zeros`` and
    ``identity``, or, by the library's builders, from sparse rows.
    Equality reads the shape, the group and the nonzeros; hashing reads the
    shape and the nonzero coefficients.  ``dual()`` is built once and kept;
    the dual does not refer back, so no matrix is part of a reference cycle.
    ``_reductions`` is ChainComplex.reduction's store of the Smith
    decompositions of this very matrix, so every complex holding it reads
    one reduction.  ``_summand`` is the link that complexes._direct_sum
    writes on each boundary it builds, and that ChainComplex.reduction
    reads: (the summand complex, its degree, the positions of the appended
    ``one`` entries).
    """

    __slots__ = ("group", "rows", "cols", "sparse_rows", "_entries", "_dual", "_reductions", "_summand")

    def __init__(self, group: FiniteGroup, rows: int, cols: int, entries):
        if cols < 0 or len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError(f"entry grid does not match declared shape {rows}x{cols}")
        for row in entries:
            for e in row:
                if e.group != group:
                    raise ValueError("matrix entry belongs to a different group")
        self.group, self.rows, self.cols = group, rows, cols
        self._entries = self._dual = self._reductions = self._summand = None
        self.sparse_rows = tuple({j: e for j, e in enumerate(row) if e.support} for row in entries)

    # -- constructors -------------------------------------------------

    @staticmethod
    def _from_sparse_rows(group: FiniteGroup, cols: int, lines) -> GRMatrix:
        """The len(lines) x cols matrix whose row i is lines[i], for the
        library's own builders.  Nothing is checked: each line must be a
        dict from columns in range(cols) to nonzero elements of ``group``,
        and is kept, not copied.
        """
        M = object.__new__(GRMatrix)
        M.sparse_rows = tuple(lines)
        M.group, M.rows, M.cols = group, len(M.sparse_rows), cols
        M._entries = M._dual = M._reductions = M._summand = None
        return M

    @property
    def entries(self) -> tuple[tuple[GroupRingElement, ...], ...]:
        if self._entries is None:
            z = GroupRingElement.zero(self.group)
            self._entries = tuple(tuple(line.get(j, z) for j in range(self.cols)) for line in self.sparse_rows)
        return self._entries

    def __eq__(self, other):
        if other.__class__ is not GRMatrix:
            return NotImplemented
        return (self.rows, self.cols, self.group, self.sparse_rows) == (
            other.rows,
            other.cols,
            other.group,
            other.sparse_rows,
        )

    def __hash__(self):
        lines = tuple(frozenset((j, e.support) for j, e in line.items()) for line in self.sparse_rows)
        return hash((self.rows, self.cols, lines))

    def __repr__(self):
        shape = f"rows={self.rows!r}, cols={self.cols!r}"
        return f"GRMatrix(group={self.group!r}, {shape}, entries={self.entries!r})"

    @staticmethod
    def from_rows(group: FiniteGroup, rows) -> GRMatrix:
        grid = tuple(tuple(row) for row in rows)
        nrows = len(grid)
        ncols = len(grid[0]) if nrows else 0
        return GRMatrix(group, nrows, ncols, grid)

    @staticmethod
    def zeros(group: FiniteGroup, rows: int, cols: int) -> GRMatrix:
        if rows < 0 or cols < 0:
            raise ValueError(f"entry grid does not match declared shape {rows}x{cols}")
        return GRMatrix._from_sparse_rows(group, cols, [{} for _ in range(rows)])

    @staticmethod
    def identity(group: FiniteGroup, n: int) -> GRMatrix:
        I = GRMatrix.zeros(group, n, n)
        one = GroupRingElement.one(group)
        for i, line in enumerate(I.sparse_rows):
            line[i] = one
        return I

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
        # each row of other once, as (column, support) pairs of its entries
        other_rows = [[(j, e.support) for j, e in line.items()] for line in other.sparse_rows]
        lines = []
        for line in self.sparse_rows:
            acc = {}  # column -> dense coefficient list of the output entry
            for k, a in line.items():
                brow = other_rows[k]
                if not brow:
                    continue
                sa = a.support
                for j, sb in brow:
                    c = acc.get(j)
                    if c is None:
                        c = acc[j] = [0] * N
                    for ia, ca in sa:
                        mrow = mul[ia]
                        for ib, cb in sb:
                            c[mrow[ib]] += ca * cb
            lines.append({j: GroupRingElement._from_support(G, t) for j, c in acc.items() if (t := _nonzero(c))})
        return GRMatrix._from_sparse_rows(G, other.cols, lines)

    def __add__(self, other: GRMatrix) -> GRMatrix:
        self._check_group(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        lines = []
        for a, b in zip(self.sparse_rows, other.sparse_rows):
            line = dict(a)
            for j, e in b.items():
                s = line[j] + e if j in line else e
                if s.support:
                    line[j] = s
                else:
                    del line[j]
            lines.append(line)
        return GRMatrix._from_sparse_rows(self.group, self.cols, lines)

    def __neg__(self) -> GRMatrix:
        return GRMatrix._from_sparse_rows(
            self.group, self.cols, [{j: -e for j, e in line.items()} for line in self.sparse_rows]
        )

    def __sub__(self, other: GRMatrix) -> GRMatrix:
        return self + (-other)

    @property
    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def dual(self) -> GRMatrix:
        """Involute-transpose: the dual map Z[G]^rows -> Z[G]^cols.

        Built once per matrix and kept, which is safe because no builder
        changes a matrix after it is built.  The dual does not refer back:
        its own dual() is a new matrix equal to this one, built once in turn.
        """
        D = self._dual
        if D is None:
            lines = [{} for _ in range(self.cols)]
            for i, line in enumerate(self.sparse_rows):
                for j, e in line.items():
                    lines[j][i] = e.involute()
            D = self._dual = GRMatrix._from_sparse_rows(self.group, self.rows, lines)
        return D

    def expand(self) -> IntegerMatrix:
        """Integer matrix of the same map on Z-bases (see module docstring),
        built as sparse rows from the supports of the nonzero entries.

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
        for line in self.sparse_rows:
            terms = [(j * N, shift[h], v) for j, e in line.items() for h, v in e.support]
            for a in range(N):
                lines.append({base + s[a]: v for base, s, v in terms})
        return IntegerMatrix._from_sparse_rows(self.cols * N, lines)

    def augmented(self) -> IntegerMatrix:
        """Entrywise augmentation: the induced map on trivial coefficients."""
        lines = [{j: a for j, e in line.items() if (a := e.augmentation())} for line in self.sparse_rows]
        return IntegerMatrix._from_sparse_rows(self.cols, lines)


def stack_columns(B: GRMatrix) -> IntegerMatrix:
    """Integer coordinates of the Z[G]-columns of B, stacked as in expand().

    Row block i holds the coefficient vectors of row i, so for any A,
    expand(A) @ stack_columns(X) == stack_columns(A @ X).
    """
    N = B.group.order
    lines = [{} for _ in range(B.rows * N)]
    for i, line in enumerate(B.sparse_rows):
        for j, e in line.items():
            for a, v in e.support:
                lines[i * N + a][j] = v
    return IntegerMatrix._from_sparse_rows(B.cols, lines)


def fold_columns(group: FiniteGroup, X: IntegerMatrix, gr_cols: int) -> GRMatrix:
    """Inverse of stack_columns: the gr_cols x X.cols matrix over Z[G]."""
    N = group.order
    terms = [{} for _ in range(gr_cols)]  # row -> column -> support, in index order
    for i, line in enumerate(X.sparse_rows):
        j, a = divmod(i, N)
        row = terms[j]
        for l, v in line.items():
            t = row.get(l)
            if t is None:
                row[l] = [(a, v)]
            else:
                t.append((a, v))
    lines = [{l: GroupRingElement._from_support(group, tuple(t)) for l, t in row.items()} for row in terms]
    return GRMatrix._from_sparse_rows(group, X.cols, lines)


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
    """Two-sided inverse of a square GRMatrix, or None if not a unit.

    Only A @ X == I is solved, exactly, and that suffices: for square
    matrices over Z[G], G finite, a one-sided inverse is two-sided.  expand
    is an injective ring map into square integer matrices, so A X == I gives
    expand(A) expand(X) == I.  Over Z the determinants multiply to 1, so
    expand(A) is invertible and expand(X) expand(A) == I too; that is
    expand(X A), and injectivity gives X A == I.
    """
    if A.rows != A.cols:
        raise ValueError("only square matrices can be inverted")
    return solve_gr_linear(A, GRMatrix.identity(A.group, A.rows))
