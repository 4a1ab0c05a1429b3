"""Exact integer matrix algebra: Smith normal form, solving, homology.

Matrices hold Python ints as sparse rows, a dict column -> nonzero value
per row; every library builder and reader works on those, and the dense
``entries`` grid is built only when something reads it.  Every
computation is exact.
Empty matrices (zero rows or columns) are first class: rank-0 modules occur
at the ends of chain complexes, so all conventions below degrade gracefully.
For the empty cases: the SNF of a matrix with no nonzero entry has an empty
invariant-factor list, and a kernel basis of a 0 x n matrix is the identity.

Homology reads no transforms.  At a spot Z^m between two maps with
outgoing @ incoming == 0, ker/im has free rank m - rank(outgoing) -
rank(incoming), and its torsion is the invariant factors of incoming that
exceed 1 (see homology_from_invariants).

A decomposition is its shape, its diagonal and two logs.  smith_normal_form
reduces sparse rows and always records its row and column operations; a
consumer replays them on the vectors it needs (back_substitute on B and Y,
the kernel columns, one row of U).  D, U and V are built only when read.
So one decomposition of a matrix serves every reader, and, with the logs
swapped (SmithDecomposition.transposed), every reader of its transpose: a
column of V is a row of the transposed decomposition's U.  A matrix that
adds a partial permutation of 1s past a decomposed block reads that
decomposition extended by swaps (SmithDecomposition.extended), with no
new reduction.

Adding -1 times a line to an equal line clears it without touching its
entries (_add_line).  The operation is the same, only cheaper, so it
changes no pivot, no diagonal and no log entry.

smith_normal_form walks only the nonempty rows below its current
position.  An empty row there stays empty: a row operation adds only to a
row with an entry in the pivot column or to the pivot row, and a swap only
moves a row.  So that list of rows only ever loses members and stays
sorted, and the walk picks the same rows in the same order as a scan of
every position would.  The zero rows that expansions append, and every
row a clear empties, cost the reduction nothing after that.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property


class IntegerMatrix:
    """A rows x cols matrix over Z, stored as sparse rows.

    ``sparse_rows`` holds row i as a dict column -> nonzero value; the
    row-major grid ``entries`` is built from them on its first read.  A
    matrix is built from a checked grid of integers (``IntegerMatrix(rows,
    cols, entries)``, ``from_rows``) or, by the library's builders, from
    sparse rows.  Equality and hashing read the shape and the nonzeros.
    """

    __slots__ = ("rows", "cols", "sparse_rows", "_entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]):
        if cols < 0 or len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError(f"entry grid does not match declared shape {rows}x{cols}")
        self.rows, self.cols, self._entries = rows, cols, None
        # operator.index refuses a float or a string, and stores a bool or sympy.Integer as int
        self.sparse_rows = tuple({j: v for j, v in enumerate(map(operator.index, row)) if v} for row in entries)

    @staticmethod
    def _from_sparse_rows(cols: int, lines) -> IntegerMatrix:
        """The len(lines) x cols matrix whose row i is lines[i], for the
        library's own builders.  Nothing is checked: each line must be a
        dict from columns in range(cols) to nonzero ints, and is kept, not
        copied.
        """
        M = object.__new__(IntegerMatrix)
        M.sparse_rows = tuple(lines)
        M.rows, M.cols, M._entries = len(M.sparse_rows), cols, None
        return M

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        if self._entries is None:
            self._entries = tuple(tuple(line.get(j, 0) for j in range(self.cols)) for line in self.sparse_rows)
        return self._entries

    def __eq__(self, other):
        if other.__class__ is not IntegerMatrix:
            return NotImplemented
        return (self.rows, self.cols, self.sparse_rows) == (other.rows, other.cols, other.sparse_rows)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(line.items()) for line in self.sparse_rows)))

    def __repr__(self):
        return f"IntegerMatrix(rows={self.rows!r}, cols={self.cols!r}, entries={self.entries!r})"

    @staticmethod
    def from_rows(rows) -> IntegerMatrix:
        grid = tuple(tuple(row) for row in rows)
        nrows = len(grid)
        ncols = len(grid[0]) if nrows else 0
        return IntegerMatrix(nrows, ncols, grid)

    @staticmethod
    def zeros(rows: int, cols: int) -> IntegerMatrix:
        if rows < 0 or cols < 0:
            raise ValueError(f"entry grid does not match declared shape {rows}x{cols}")
        return IntegerMatrix._from_sparse_rows(cols, [{} for _ in range(rows)])

    def __matmul__(self, other: IntegerMatrix) -> IntegerMatrix:
        if self.cols != other.rows:
            raise ValueError(f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        lines = []
        for line in self.sparse_rows:
            acc = {}
            for k, a in line.items():
                _add_line(acc, other.sparse_rows[k], a)
            lines.append(acc)
        return IntegerMatrix._from_sparse_rows(other.cols, lines)

    def transpose(self) -> IntegerMatrix:
        lines = [{} for _ in range(self.cols)]
        for i, line in enumerate(self.sparse_rows):
            for j, v in line.items():
                lines[j][i] = v
        return IntegerMatrix._from_sparse_rows(self.rows, lines)

    @property
    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def column(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range for {self.cols} columns")
        return tuple(line.get(j, 0) for line in self.sparse_rows)


def _combine_rows(coeffs, M: IntegerMatrix) -> tuple[int, ...]:
    """coeffs @ M for a vector of M.rows integers, read from M's sparse rows."""
    out = [0] * M.cols
    for c, line in zip(coeffs, M.sparse_rows):
        for j, v in line.items():
            out[j] += c * v
    return tuple(out)


# A logged operation is a triple (a, b, q) on lines (rows of A for the row
# log, columns for the column log): add q times line b to line a when
# q != 0, swap lines a and b when q == 0, negate line a when a == b.


def _add_line(R, S, q):
    """R += q * S on sparse lines (dicts index -> nonzero), q != 0.

    A line cancelled by an equal one (q == -1 and R == S) is cleared after
    one dict comparison instead of an update per entry: R - S is the empty
    line either way, so the caller's log entry and every later step are
    those of the entrywise loop.  The rows of an expanded norm element are
    all equal, and this is how the Smith column clear empties them.
    """
    if q == -1 and R == S:
        R.clear()
        return
    for j, v in S.items():
        x = R.get(j, 0) + q * v
        if x:
            R[j] = x
        else:
            del R[j]


def _replay(ops, lines, transposed=False):
    """Apply logged operations to sparse lines in place; returns ``lines``.

    Forward, each operation acts on ``lines`` as it acted on the rows of A:
    the row log on the rows of B gives U @ B.  With ``transposed`` the
    transposes act in reverse order: the column log on the rows of Y gives
    V @ Y, and the row log on the rows of the identity gives U transposed.
    """
    for a, b, q in reversed(ops) if transposed else ops:
        if a == b:
            lines[a] = {j: -v for j, v in lines[a].items()}
        elif not q:
            lines[a], lines[b] = lines[b], lines[a]
        elif transposed:
            _add_line(lines[b], lines[a], q)
        else:
            _add_line(lines[a], lines[b], q)
    return lines


def _unit_lines(ops, size: int, first: int, last: int) -> list[dict[int, int]]:
    """The sparse rows of columns first..last-1 of the transposed replay of
    ``ops`` on I_size: columns of V for the column log, rows of U for the
    row log.
    """
    return _replay(ops, [{j - first: 1} if first <= j < last else {} for j in range(size)], transposed=True)


def _unit_columns(ops, size: int, first: int, last: int) -> list[tuple[int, ...]]:
    lines = _unit_lines(ops, size, first, last)
    return [tuple(line.get(k, 0) for line in lines) for k in range(last - first)]


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D diagonal, for a rows x cols A.

    ``diagonal`` lists the nonzero invariant factors d_1 | d_2 | ... ; the
    remaining diagonal entries of D are zero, so rank(A) == len(diagonal).

    The transforms are kept as the logs of the row and the column
    operations that reduced A (``row_ops``, ``col_ops``).  D, U and V are
    built from the diagonal and the logs only when read; consumers that
    need a few vectors replay the logs on just those: ``U_row``,
    ``kernel_columns`` and ``back_substitute``.
    """

    rows: int
    cols: int
    diagonal: tuple[int, ...]
    row_ops: tuple[tuple[int, int, int], ...]
    col_ops: tuple[tuple[int, int, int], ...]

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    @cached_property
    def D(self) -> IntegerMatrix:
        lines = [{i: d} for i, d in enumerate(self.diagonal)]
        return IntegerMatrix._from_sparse_rows(self.cols, lines + [{} for _ in range(self.rows - self.rank)])

    @cached_property
    def U(self) -> IntegerMatrix:
        return IntegerMatrix._from_sparse_rows(self.rows, _replay(self.row_ops, [{i: 1} for i in range(self.rows)]))

    @cached_property
    def V(self) -> IntegerMatrix:
        return IntegerMatrix._from_sparse_rows(self.cols, _unit_lines(self.col_ops, self.cols, 0, self.cols))

    def U_row(self, i: int) -> tuple[int, ...]:
        """Row i of U, by one replay of the row log."""
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range for {self.rows} rows")
        return _unit_columns(self.row_ops, self.rows, i, i + 1)[0]

    def kernel_columns(self) -> list[tuple[int, ...]]:
        """The columns of V past the rank: a Z-basis of ker(A)."""
        return _unit_columns(self.col_ops, self.cols, self.rank, self.cols)

    def transposed(self) -> SmithDecomposition:
        """The decomposition of A transposed, with no new reduction.

        Transposing U @ A @ V == D gives V^T @ A^T @ U^T == D^T.  A logged
        operation replayed on rows acts as the transpose of the same
        operation on columns, so the two logs swap roles; the shape swaps
        and the diagonal stays.
        """
        return SmithDecomposition(self.cols, self.rows, self.diagonal, row_ops=self.col_ops, col_ops=self.row_ops)

    def extended(self, rows: int, cols: int, ones) -> SmithDecomposition:
        """The decomposition of the rows x cols matrix M that holds A, the
        matrix this decomposes, as its leading block and a 1 at each (row,
        column) of ``ones``, with no new reduction.  Each 1 lies past A's
        rows and columns, alone in its row and its column; every other
        entry of M is zero.

        A's logs act on the leading block alone, so they are kept: they
        take M to D(A) plus the 1s, which swaps then bring to the diagonal,
        after A's unit factors and before its other ones.  The diagonal,
        A's units, one 1 per entry of ``ones``, then A's non-units, is
        still a divisibility chain.  A ``ones`` that breaks that shape
        raises AssertionError.
        """
        m, n = self.rows, self.cols
        if not (
            rows >= m
            and cols >= n
            and all(m <= i < rows and n <= j < cols for i, j in ones)
            and len({i for i, _ in ones}) == len({j for _, j in ones}) == len(ones)
        ):
            raise AssertionError(f"the 1s are not a partial permutation past a {m}x{n} block in {rows}x{cols}")
        s = next((t for t, d in enumerate(self.diagonal) if d != 1), self.rank)
        unit, rest = range(s), range(s, self.rank)
        return SmithDecomposition(
            rows,
            cols,
            self.diagonal[:s] + (1,) * len(ones) + self.diagonal[s:],
            row_ops=self.row_ops + _swaps([*unit, *(i for i, _ in ones), *rest], rows),
            col_ops=self.col_ops + _swaps([*unit, *(j for _, j in ones), *rest], cols),
        )


def _swaps(order, size: int) -> tuple[tuple[int, int, int], ...]:
    """Logged swaps of ``size`` lines that bring line order[t] to position t
    for every t < len(order)."""
    at, where = list(range(size)), list(range(size))  # the line at a position, the position of a line
    ops = []
    for t, line in enumerate(order):
        p = where[line]
        if p != t:
            other = at[t]
            at[t], at[p], where[line], where[other] = line, other, t, p
            ops.append((t, p, 0))
    return tuple(ops)


def smith_normal_form(A: IntegerMatrix) -> SmithDecomposition:
    """Diagonalize A by unimodular row/column operations.

    The pivot is the first entry of least absolute value in row-major order
    of the live block, which keeps coefficient growth in check on the
    small dense matrices produced by group-ring expansion.  The live block
    is kept as sparse rows, and the row and column operations are logged
    (see SmithDecomposition).

    Columns are permuted, not moved: rows stay keyed by the column of A,
    ``perm[t]`` is the column of A at position t and ``pos`` is its
    inverse, so a column swap exchanges two entries of each list and
    touches no row.  The pivot rule and both logs speak of positions: a
    logged column index is a position, never a column of A, which is what
    the replays of the column log expect.

    At step t, live rows hold no entry left of position t, so every row
    operation touches only the live block.  Once column t is clear below
    the pivot, a column operation against column t changes only row t.

    ``live`` lists, in increasing order, the positions below t whose rows
    are nonempty; the pivot search reads row t and then ``live``, and the
    column clear and the divisibility search read ``live`` alone.  No row
    ever joins it.  A row below t changes only by a clear against row t,
    which it meets only if it has an entry in the pivot column, so is
    nonempty; row t changes by negation, by the row clear and by adding a
    divisibility row; a swap moves a row and leaves positions, which are
    all the list holds, in place.  So an empty row below t stays empty,
    and the list only loses positions, which keeps it sorted: the pivot
    row's old position when row t was empty before the swap, a row that a
    clear empties, and t itself as t advances.  The pivots, the diagonal
    and both logs are those of a scan over every position below t.

    The row swaps, column swaps and sign changes are written in place, so
    no helper is called per operation; each logs what a call would have
    logged.  A pivot row with one entry needs no search: its entry is the
    row's least, so that entry's position is the leftmost one of least
    absolute value, and it is read directly.  Row t with one entry has no
    row clear: the clear walks the row's positions other than t, and
    there are none, so skipping it adds no operation to either log.
    """
    m, n = A.rows, A.cols
    rows = list(map(dict, A.sparse_rows))
    perm, pos = list(range(n)), list(range(n))
    row_ops, col_ops = [], []
    log_row, log_col = row_ops.append, col_ops.append
    # the positions below t whose rows are nonempty, in increasing order
    live = [i for i in range(1, m) if rows[i]]
    limit = min(m, n)
    t = 0
    while t < limit:
        # the first least |entry| in row-major order: the earliest row with
        # the least row minimum, then its leftmost position with that value
        R = rows[t]
        best = pi = None
        if R:
            best, pi = min(map(abs, R.values())), t
        if best != 1:
            for i in live:
                a = min(map(abs, rows[i].values()))
                if pi is None or a < best:
                    best, pi = a, i
                    if a == 1:
                        break
        if pi is None:
            break
        P = rows[pi]
        if len(P) == 1:
            (c,) = P
            pj = pos[c]
        else:
            pj = min(pos[j] for j, v in P.items() if v == best or v == -best)
        if pi != t:
            if not R:
                live.remove(pi)  # the empty row t moves down to pi
            rows[t], rows[pi] = P, R
            log_row((t, pi, 0))
        if pj != t:
            ca, cb = perm[t], perm[pj]
            perm[t], perm[pj], pos[ca], pos[cb] = cb, ca, pj, t
            log_col((t, pj, 0))
        c = perm[t]
        if P[c] < 0:
            P = rows[t] = {j: -x for j, x in P.items()}
            log_row((t, t, -1))

        while True:
            # clear column t then row t; re-pivot on any nonzero remainder;
            # P is row t and c the column of A at position t
            p = P[c]
            dirty = emptied = False
            for i in live:
                R = rows[i]
                v = R.get(c)
                if v:
                    q = v // p
                    if q:
                        _add_line(R, P, -q)
                        log_row((i, t, -q))
                        emptied = emptied or not R
                    if c in R:
                        # the remainder is smaller than |p|: it becomes the pivot
                        rows[t], rows[i] = R, P
                        log_row((t, i, 0))
                        P = R
                        if P[c] < 0:
                            P = rows[t] = {j: -x for j, x in P.items()}
                            log_row((t, t, -1))
                        dirty = True
                        break
            if emptied:
                live = [i for i in live if rows[i]]
            if dirty:
                continue
            if len(P) > 1:
                for j in sorted(map(pos.__getitem__, P)):
                    if j == t:
                        continue
                    k = perm[j]
                    v = P[k]
                    q = v // p
                    if q:
                        v -= q * p
                        if v:
                            P[k] = v
                        else:
                            del P[k]
                        log_col((j, t, -q))
                    if v:
                        # the remainder is smaller than |p|: it becomes the pivot
                        perm[t], perm[j], pos[c], pos[k] = k, c, j, t
                        log_col((t, j, 0))
                        c = k
                        if v < 0:
                            P = rows[t] = {j: -x for j, x in P.items()}
                            log_row((t, t, -1))
                        dirty = True
                        break
                if dirty:
                    continue
            # column and row are clear; enforce divisibility of the block
            if p == 1:
                break
            bad = next((i for i in live if any(v % p for v in rows[i].values())), None)
            if bad is None:
                break
            _add_line(P, rows[bad], 1)
            log_row((t, bad, 1))
        t += 1
        if live and live[0] == t:
            del live[0]

    # every row is now empty or holds its diagonal entry alone
    diagonal = tuple(rows[i][perm[i]] for i in range(t))
    return SmithDecomposition(m, n, diagonal, row_ops=tuple(row_ops), col_ops=tuple(col_ops))


def determinant(A: IntegerMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    M = [[line.get(j, 0) for j in range(n)] for line in A.sparse_rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not M[k][k]:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        pivot = M[k][k]
        for i in range(k + 1, n):
            Mi, Mk = M[i], M[k]
            mik = Mi[k]
            for j in range(k + 1, n):
                Mi[j] = (Mi[j] * pivot - mik * Mk[j]) // prev
            Mi[k] = 0
        prev = pivot
    return sign * M[n - 1][n - 1]


def kernel_basis(A: IntegerMatrix) -> IntegerMatrix:
    """Columns spanning ker(A) as a pure sublattice of Z^cols.

    The kernel of an integer matrix is saturated, so the basis obtained from
    the SNF right transform spans every integer kernel vector over Z.
    """
    snf = smith_normal_form(A)
    return IntegerMatrix._from_sparse_rows(A.cols - snf.rank, _unit_lines(snf.col_ops, A.cols, snf.rank, A.cols))


def solve_integer(A: IntegerMatrix, B: IntegerMatrix):
    """An integral X with A @ X == B, or None when no such X exists.

    Deterministic: free coordinates of the SNF back-substitution are zero.
    """
    return back_substitute(smith_normal_form(A), B)


def back_substitute(snf: SmithDecomposition, B: IntegerMatrix):
    """solve_integer for the matrix A that ``snf`` decomposes, reusing its
    logs.

    A @ X == B becomes D @ Y == U @ B with X == V @ Y.  U @ B is the row
    log replayed on the rows of B; free coordinates of Y are zero, and
    V @ Y is the column log replayed backwards on the rows of Y.

    A zero B returns the zero snf.cols x B.cols matrix without a replay:
    both logs act linearly, so U @ 0 == 0, Y == 0 and V @ Y == 0, which is
    the X the full replay gives.
    """
    if B.rows != snf.rows:
        raise ValueError(f"A has {snf.rows} rows but B has {B.rows}")
    if not any(B.sparse_rows):
        return IntegerMatrix.zeros(snf.cols, B.cols)
    r = snf.rank
    C = _replay(snf.row_ops, list(map(dict, B.sparse_rows)))
    # rows past the rank must vanish; divisibility on the rest
    if any(C[r:]):
        return None
    Y = []
    for d, line in zip(snf.diagonal, C):
        quotients = {}
        for j, v in line.items():
            q, rem = divmod(v, d)
            if rem:
                return None
            quotients[j] = q
        Y.append(quotients)
    Y.extend({} for _ in range(snf.cols - r))
    return IntegerMatrix._from_sparse_rows(B.cols, _replay(snf.col_ops, Y, transposed=True))


@dataclass
class ReducedLattice:
    """An LLL-reduced lattice basis with its integral Gram-Schmidt data.

    ``d`` are the Gram determinants (d[0] == 1) and ``lam[i][j]`` the scaled
    projection coefficients d[j+1] * mu_ij, as in the all-integer LLL.
    """

    basis: list[list[int]]
    d: list[int]
    lam: list[list[int]]


def lll_reduce(rows: list[list[int]]) -> ReducedLattice:
    """All-integer LLL reduction of linearly independent lattice basis rows.

    Produces a basis of the same lattice whose vectors are short and nearly
    orthogonal; used to surface sparse elements (e.g. unit-like chain maps)
    of solution lattices.  Exact arithmetic throughout (de Weger's integral
    Gram-Schmidt bookkeeping), Lovasz parameter delta = 3/4.
    """
    b = [list(r) for r in rows]
    m = len(b)
    dn, dd = 3, 4  # delta = dn / dd

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    d = [1] * (m + 1)
    lam = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1):
            u = dot(b[i], b[j])
            for k in range(j):
                u = (d[k + 1] * u - lam[i][k] * lam[j][k]) // d[k]
            if j < i:
                lam[i][j] = u
            else:
                d[i + 1] = u
                if u <= 0:
                    raise ValueError("basis rows are not linearly independent")
    if m <= 1:
        return ReducedLattice(b, d, lam)

    def size_reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            bk, bl = b[k], b[l]
            for idx in range(len(bk)):
                bk[idx] -= q * bl[idx]
            for j in range(l):
                lam[k][j] -= q * lam[l][j]
            lam[k][l] -= q * d[l + 1]

    k = 1
    while k < m:
        size_reduce(k, k - 1)
        if dd * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) < dn * d[k] * d[k]:
            # swap b_k and b_{k-1}, updating the integral GSO data
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            lam_prev = lam[k][k - 1]
            newd = (d[k - 1] * d[k + 1] + lam_prev * lam_prev) // d[k]
            for i in range(k + 1, m):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lam_prev * t) // d[k]
                lam[i][k - 1] = (newd * t + lam_prev * lam[i][k]) // d[k + 1]
            d[k] = newd
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return ReducedLattice(b, d, lam)


def babai_nearest(red: ReducedLattice, target: list[int]) -> list[int]:
    """The lattice vector produced by Babai nearest-plane for ``target``.

    With an LLL-reduced basis this lands on a lattice point close to the
    target (exactly the target when it already lies in the lattice).  All
    arithmetic is integral: lam_t[j] is the integer d[j] <t, b*_j>.
    """
    b, d, lam = red.basis, red.d, red.lam
    m = len(b)
    t = list(target)
    if m == 0:
        return [0] * len(target)
    lam_t = [0] * m
    for j in range(m):
        u = sum(x * y for x, y in zip(t, b[j]))
        for k in range(j):
            u = (d[k + 1] * u - lam_t[k] * lam[j][k]) // d[k]
        lam_t[j] = u
    for i in range(m - 1, -1, -1):
        c = (2 * lam_t[i] + d[i + 1]) // (2 * d[i + 1])  # nearest integer
        if c:
            bi = b[i]
            for idx in range(len(t)):
                t[idx] -= c * bi[idx]
            for j in range(i):
                lam_t[j] -= c * lam[i][j]
    return [x - y for x, y in zip(target, t)]


@dataclass(frozen=True)
class AbelianGroupInfo:
    """A finitely generated abelian group in invariant-factor form.

    ``torsion`` lists the invariant factors > 1 with each dividing the next,
    so equality of AbelianGroupInfo is equality of abstract groups.
    """

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if any(t <= 1 for t in self.torsion):
            raise ValueError("torsion entries must exceed 1")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion entries must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @staticmethod
    def free(rank: int) -> AbelianGroupInfo:
        return AbelianGroupInfo(rank, ())

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def homology_from_invariants(middle: int, outgoing_rank: int, incoming_factors) -> AbelianGroupInfo:
    """ker(outgoing)/im(incoming) at a spot Z^middle, from two reductions.

    The rank identity: ker(outgoing) is a pure sublattice of rank
    middle - rank(outgoing), so Z^middle/ker(outgoing) is free and
    0 -> ker/im -> Z^middle/im -> Z^middle/ker -> 0 splits.  Hence

        free rank = middle - rank(outgoing) - rank(incoming)
        torsion   = the invariant factors of incoming that exceed 1.

    ``incoming_factors`` are the nonzero invariant factors of incoming, so
    rank(incoming) == len(incoming_factors).
    """
    return AbelianGroupInfo(
        free_rank=middle - outgoing_rank - len(incoming_factors),
        torsion=tuple(d for d in incoming_factors if d > 1),
    )


def homology_pair(incoming: IntegerMatrix, outgoing: IntegerMatrix) -> AbelianGroupInfo:
    """ker(outgoing)/im(incoming) where outgoing @ incoming == 0.

    ``incoming`` maps into the middle module Z^m (m = incoming.rows =
    outgoing.cols); ``outgoing`` maps out of it.  Two SNFs and the rank
    identity of homology_from_invariants.
    """
    if incoming.rows != outgoing.cols:
        raise ValueError(
            f"middle module mismatch: incoming has {incoming.rows} rows, outgoing has {outgoing.cols} cols"
        )
    if not (outgoing @ incoming).is_zero:
        raise ValueError("outgoing . incoming is nonzero: not a complex at this spot")
    return homology_from_invariants(
        incoming.rows,
        smith_normal_form(outgoing).rank,
        smith_normal_form(incoming).diagonal,
    )
