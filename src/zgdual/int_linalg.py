"""Exact integer matrix algebra: Smith normal form, solving, homology.

Matrices are immutable grids of Python ints; every computation is exact.
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
column of V is a row of the transposed decomposition's U.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class IntegerMatrix:
    """A rows x cols matrix over Z, stored as a row-major grid."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError(
                f"entry grid does not match declared shape {self.rows}x{self.cols}"
            )

    @staticmethod
    def from_rows(rows) -> IntegerMatrix:
        grid = tuple(tuple(int(v) for v in row) for row in rows)
        nrows = len(grid)
        ncols = len(grid[0]) if nrows else 0
        return IntegerMatrix(nrows, ncols, grid)

    @staticmethod
    def zeros(rows: int, cols: int) -> IntegerMatrix:
        return IntegerMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> IntegerMatrix:
        return IntegerMatrix(
            n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    def __matmul__(self, other: IntegerMatrix) -> IntegerMatrix:
        if self.cols != other.rows:
            raise ValueError(f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        bt = list(zip(*other.entries)) if other.rows else [()] * other.cols
        grid = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in bt) for row in self.entries
        )
        if not self.rows:
            grid = ()
        return IntegerMatrix(self.rows, other.cols, grid)

    def transpose(self) -> IntegerMatrix:
        if self.rows == 0:
            return IntegerMatrix(self.cols, 0, tuple(() for _ in range(self.cols)))
        return IntegerMatrix(self.cols, self.rows, tuple(zip(*self.entries)))

    @property
    def is_zero(self) -> bool:
        return all(not v for row in self.entries for v in row)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)


# A logged operation is a triple (a, b, q) on lines (rows of A for the row
# log, columns for the column log): add q times line b to line a when
# q != 0, swap lines a and b when q == 0, negate line a when a == b.


def _add_line(lines, dst, src, q):
    """lines[dst] += q * lines[src] on sparse lines (dicts index -> nonzero)."""
    S = lines[src]
    if S:
        R = lines[dst]
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
            _add_line(lines, b, a, q)
        else:
            _add_line(lines, a, b, q)
    return lines


def _sparse_rows(M: IntegerMatrix) -> list[dict[int, int]]:
    return [{j: v for j, v in enumerate(row) if v} for row in M.entries]


def _dense(lines, width: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(line.get(j, 0) for j in range(width)) for line in lines)


def _unit_columns(ops, size: int, first: int, last: int) -> list[tuple[int, ...]]:
    """Columns first..last-1 of the transposed replay of ``ops`` on I_size:
    columns of V for the column log, rows of U for the row log.
    """
    lines = [{j - first: 1} if first <= j < last else {} for j in range(size)]
    _replay(ops, lines, transposed=True)
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
        zero = (0,) * self.cols
        grid = tuple(zero[:i] + (d,) + zero[i + 1 :] for i, d in enumerate(self.diagonal))
        return IntegerMatrix(self.rows, self.cols, grid + (zero,) * (self.rows - self.rank))

    @cached_property
    def U(self) -> IntegerMatrix:
        m = self.rows
        lines = _replay(self.row_ops, [{i: 1} for i in range(m)])
        return IntegerMatrix(m, m, _dense(lines, m))

    @cached_property
    def V(self) -> IntegerMatrix:
        n = self.cols
        lines = _replay(self.col_ops, [{j: 1} for j in range(n)], transposed=True)
        return IntegerMatrix(n, n, _dense(lines, n))

    def U_row(self, i: int) -> tuple[int, ...]:
        """Row i of U, by one replay of the row log."""
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


def smith_normal_form(A: IntegerMatrix) -> SmithDecomposition:
    """Diagonalize A by unimodular row/column operations.

    The pivot is the first entry of least absolute value in row-major order
    of the live block, which keeps coefficient growth in check on the
    small dense matrices produced by group-ring expansion.  The live block
    is kept as sparse rows, and the row and column operations are logged
    (see SmithDecomposition).

    At step t, live rows hold no entry left of column t, so every row
    operation touches only the live block.  Once column t is clear below
    the pivot, a column operation against column t changes only row t.
    """
    m, n = A.rows, A.cols
    rows = _sparse_rows(A)
    row_ops, col_ops = [], []
    t = 0

    def row_swap(a, b):
        rows[a], rows[b] = rows[b], rows[a]
        row_ops.append((a, b, 0))

    def col_swap(a, b):
        for i in range(t, m):
            R = rows[i]
            if a in R or b in R:
                va, vb = R.pop(a, 0), R.pop(b, 0)
                if vb:
                    R[a] = vb
                if va:
                    R[b] = va
        col_ops.append((a, b, 0))

    def make_pivot_positive():
        R = rows[t]
        if R[t] < 0:
            rows[t] = {j: -v for j, v in R.items()}
            row_ops.append((t, t, -1))

    limit = min(m, n)
    while t < limit:
        # the first least |entry| in row-major order: the earliest row with
        # the least row minimum, then its leftmost column with that value
        best = pi = None
        for i in range(t, m):
            R = rows[i]
            if R:
                a = min(map(abs, R.values()))
                if pi is None or a < best:
                    best, pi = a, i
                    if a == 1:
                        break
        if pi is None:
            break
        pj = min(j for j, v in rows[pi].items() if v == best or v == -best)
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        make_pivot_positive()

        while True:
            # clear column t then row t; re-pivot on any nonzero remainder
            p = rows[t][t]
            dirty = False
            for i in range(t + 1, m):
                v = rows[i].get(t)
                if v:
                    q = v // p
                    if q:
                        _add_line(rows, i, t, -q)
                        row_ops.append((i, t, -q))
                    if t in rows[i]:
                        row_swap(t, i)  # remainder is smaller than |p|
                        make_pivot_positive()
                        dirty = True
                        break
            if dirty:
                continue
            R = rows[t]
            for j in sorted(R):
                if j == t:
                    continue
                v = R[j]
                q = v // p
                if q:
                    v -= q * p
                    if v:
                        R[j] = v
                    else:
                        del R[j]
                    col_ops.append((j, t, -q))
                if v:
                    col_swap(t, j)
                    make_pivot_positive()
                    dirty = True
                    break
            if dirty:
                continue
            # column and row are clear; enforce divisibility of the block
            p = rows[t][t]
            if p == 1:
                break
            bad = next((i for i in range(t + 1, m) if any(v % p for v in rows[i].values())), None)
            if bad is None:
                break
            _add_line(rows, t, bad, 1)
            row_ops.append((t, bad, 1))
        t += 1

    # every row is now empty or holds its diagonal entry alone
    diagonal = tuple(rows[i][i] for i in range(t))
    return SmithDecomposition(m, n, diagonal, row_ops=tuple(row_ops), col_ops=tuple(col_ops))


def determinant(A: IntegerMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    M = [list(row) for row in A.entries]
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
    cols = smith_normal_form(A).kernel_columns()
    if not cols:
        return IntegerMatrix(A.cols, 0, tuple(() for _ in range(A.cols)))
    grid = tuple(tuple(col[i] for col in cols) for i in range(A.cols))
    return IntegerMatrix(A.cols, len(cols), grid)


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
    """
    if B.rows != snf.rows:
        raise ValueError(f"A has {snf.rows} rows but B has {B.rows}")
    r = snf.rank
    C = _replay(snf.row_ops, _sparse_rows(B))
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
    return IntegerMatrix(snf.cols, B.cols, _dense(_replay(snf.col_ops, Y, transposed=True), B.cols))


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
    def trivial() -> AbelianGroupInfo:
        return AbelianGroupInfo(0, ())

    @staticmethod
    def free(rank: int) -> AbelianGroupInfo:
        return AbelianGroupInfo(rank, ())

    @staticmethod
    def cyclic(n: int) -> AbelianGroupInfo:
        return AbelianGroupInfo(0, (n,)) if n > 1 else AbelianGroupInfo(0, ())

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
