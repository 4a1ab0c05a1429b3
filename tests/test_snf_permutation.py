"""Differential test of smith_normal_form against the physical column exchange.

``smith_normal_form`` permutes its columns through ``perm``/``pos`` and
never moves an entry between dict keys.  ``reference_snf`` below is the
reduction as it stood before that, kept verbatim: its ``col_swap`` walks
every live row and moves the two entries.  Both must pick the same pivots,
so they must return the same diagonal and the same two logs, on every
reduction the benchmark workloads make and on random sparse matrices.

The library's ``_add_line`` clears a line cancelled by an equal one
without walking it.  The reference shares none of that: it adds lines
entry by entry (``reference_add_line``) and replays logs with its own copy
of ``_replay``.  Matrices with repeated and negated rows and expanded norm
elements, whose rows are all equal, reach the shortcut; replaying each log
on equal lines reaches it with every coefficient the logs hold.
"""

from __future__ import annotations

import os
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from zgdual import int_linalg
from zgdual.gr_linalg import GRMatrix
from zgdual.group_core import norm_element
from zgdual.int_linalg import (
    IntegerMatrix,
    SmithDecomposition,
    _add_line,
    _replay,
    back_substitute,
    smith_normal_form,
)
from zgdual.lens import lens_complex

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def reference_add_line(R, S, q):
    """R += q * S on sparse lines (dicts index -> nonzero), q != 0."""
    for j, v in S.items():
        x = R.get(j, 0) + q * v
        if x:
            R[j] = x
        else:
            del R[j]


def reference_replay(ops, lines, transposed=False):
    """int_linalg._replay, adding lines with reference_add_line."""
    for a, b, q in reversed(ops) if transposed else ops:
        if a == b:
            lines[a] = {j: -v for j, v in lines[a].items()}
        elif not q:
            lines[a], lines[b] = lines[b], lines[a]
        elif transposed:
            reference_add_line(lines[b], lines[a], q)
        else:
            reference_add_line(lines[a], lines[b], q)
    return lines


def reference_snf(A: IntegerMatrix) -> SmithDecomposition:
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
    rows = list(map(dict, A.sparse_rows))
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
                        reference_add_line(rows[i], rows[t], -q)
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
            reference_add_line(rows[t], rows[bad], 1)
            row_ops.append((t, bad, 1))
        t += 1

    # every row is now empty or holds its diagonal entry alone
    diagonal = tuple(rows[i][i] for i in range(t))
    return SmithDecomposition(m, n, diagonal, row_ops=tuple(row_ops), col_ops=tuple(col_ops))


def _same(A: IntegerMatrix, got: SmithDecomposition):
    want = reference_snf(A)
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert got.diagonal == want.diagonal
    assert got.row_ops == want.row_ops
    assert got.col_ops == want.col_ops
    # each log, replayed both ways on equal lines, as back_substitute and
    # the transform reads may replay it on any lines
    for ops, size in ((got.row_ops, got.rows), (got.col_ops, got.cols)):
        for transposed in (False, True):
            equal = [{0: 1, 1: -2} for _ in range(size)]
            assert _replay(ops, [dict(line) for line in equal], transposed) == reference_replay(ops, equal, transposed)


# -- every reduction of one pass of each benchmark workload ----------------

# reductions in one pass at seed 1, as the traced benchmark counts them,
# and how many distinct matrices they reduce
WORKLOAD_CALLS = {"lens_sweep": 100, "assembly_search": 42, "nonabelian_cli": 170}
WORKLOAD_DISTINCT = {"lens_sweep": 76, "assembly_search": 38, "nonabelian_cli": 45}


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, BENCH)
    try:
        import workloads as bench_workloads
    finally:
        sys.path.remove(BENCH)
    return bench_workloads


@pytest.mark.parametrize("name", sorted(WORKLOAD_CALLS))
def test_workload_reductions_match_reference(name, workloads, tmp_path, monkeypatch):
    items = workloads.WORKLOADS[name](1, str(tmp_path))
    captured = []

    def capture(A):
        # a copy, so that nothing the caller later does to A reaches the comparison
        snapshot = IntegerMatrix._from_sparse_rows(A.cols, [dict(line) for line in A.sparse_rows])
        result = smith_normal_form(A)
        captured.append((snapshot, result))
        return result

    # rebind it wherever zgdual imported it by name, as the benchmark's tracer does
    for modname, module in list(sys.modules.items()):
        in_zgdual = modname == "zgdual" or modname.startswith("zgdual.")
        if in_zgdual and getattr(module, "smith_normal_form", None) is smith_normal_form:
            monkeypatch.setattr(module, "smith_normal_form", capture)
    for item in items:
        assert item.check(item.run()) == []
    monkeypatch.undo()
    assert int_linalg.smith_normal_form is smith_normal_form

    assert len(captured) == WORKLOAD_CALLS[name]
    assert len({A for A, _ in captured}) == WORKLOAD_DISTINCT[name]
    for A, result in captured:
        _same(A, result)


# -- random sparse matrices -------------------------------------------------

# no unit among the nonzeros, so pivots are non-unit, remainders force
# re-pivots, and 2 | 3-style blocks reach the divisibility step
NON_UNIT = st.sampled_from((0, 0, 0, 2, -2, 3, -3, 4, 6, -6, 9, 10, -15))
ANY = st.one_of(st.just(0), st.just(0), st.integers(-12, 12))


@st.composite
def sparse_matrices(draw):
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    values = draw(st.sampled_from((NON_UNIT, ANY)))
    grid = [[draw(values) for _ in range(n)] for _ in range(m)]
    # empty rows and columns at random places
    for i in draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=m)):
        grid[i] = [0] * n
    for j in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)):
        for row in grid:
            row[j] = 0
    return IntegerMatrix(m, n, tuple(map(tuple, grid)))


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
@example(IntegerMatrix(0, 4, ()))
@example(IntegerMatrix(3, 0, ((), (), ())))
@example(IntegerMatrix.from_rows([[0, 0, 0], [0, 0, 0]]))
@example(IntegerMatrix.from_rows([[2, 0], [0, 3]]))  # the divisibility step
@example(IntegerMatrix.from_rows([[0, 0, 4, 6], [0, 0, 6, 9], [0, 0, 0, 0], [10, 0, 0, 15]]))
@example(IntegerMatrix.from_rows([[0, 6, 4], [9, 0, 6], [0, 0, 0]]))
def test_random_sparse_matches_reference(A):
    got = smith_normal_form(A)
    _same(A, got)
    assert got.U @ A @ got.V == got.D


# -- stage-6 shapes: identity blocks, zero rows and zero columns -------------


@st.composite
def stage6_shaped_matrices(draw):
    """A small random block summed with identity blocks, as the stage-6
    expansions build them, with zero rows and columns mixed in and the rows
    permuted: at most 24 rows and 24 columns, most of them empty or unit."""
    values = draw(st.sampled_from((NON_UNIT, ANY)))
    k, l = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    blocks = [[[draw(values) for _ in range(l)] for _ in range(k)]]
    for size in draw(st.lists(st.integers(1, 6), max_size=3)):
        blocks.insert(draw(st.integers(0, len(blocks))), [[int(i == j) for j in range(size)] for i in range(size)])
    n = sum(len(block[0]) if block else 0 for block in blocks)
    grid = []
    at = 0
    for block in blocks:
        width = len(block[0]) if block else 0
        grid += [[0] * at + row + [0] * (n - at - width) for row in block]
        at += width
    grid += [[0] * n for _ in range(draw(st.integers(0, 24 - len(grid))))]
    for _ in range(draw(st.integers(0, 24 - n))):
        j = draw(st.integers(0, n))
        grid = [row[:j] + [0] + row[j:] for row in grid]
        n += 1
    grid = [grid[i] for i in draw(st.permutations(range(len(grid))))]
    return IntegerMatrix(len(grid), n, tuple(map(tuple, grid)))


# the three ways smith_normal_form's list of nonempty rows changes or is skipped
PIVOT_BELOW_EMPTY_ROW = IntegerMatrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 2, 0], [0, 0, 1]])
CLEAR_EMPTIES_A_ROW = IntegerMatrix.from_rows([[1, 0, 0], [0, 0, 0], [2, 0, 0], [3, 0, 1]])
DIVISIBILITY_PASSES_EMPTY_ROWS = IntegerMatrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 3]])


@settings(max_examples=150, deadline=None)
@given(stage6_shaped_matrices())
@example(PIVOT_BELOW_EMPTY_ROW)
@example(CLEAR_EMPTIES_A_ROW)
@example(DIVISIBILITY_PASSES_EMPTY_ROWS)
def test_stage6_shapes_match_reference(A):
    got = smith_normal_form(A)
    _same(A, got)
    assert got.U @ A @ got.V == got.D


def test_examples_reach_the_nonempty_row_list():
    """The fixed stage-6 examples above reach the paths they are there for."""
    # row 0 is empty, so the pivot row 3 trades places with it
    below = smith_normal_form(PIVOT_BELOW_EMPTY_ROW)
    assert below.row_ops[0] == (0, 3, 0) and below.diagonal == (1, 2)
    # the clear against row 0 empties row 2 and leaves row 3 with an entry
    cleared = smith_normal_form(CLEAR_EMPTIES_A_ROW)
    assert cleared.row_ops[:2] == ((2, 0, -2), (3, 0, -3)) and cleared.diagonal == (1, 1)
    # the divisibility search passes the empty rows 1 and 2 to reach row 3
    divisible = smith_normal_form(DIVISIBILITY_PASSES_EMPTY_ROWS)
    assert (0, 3, 1) in divisible.row_ops and divisible.diagonal == (1, 6)


# -- one-entry rows: the pivot column read directly, no row clear ----------


@st.composite
def one_entry_row_matrices(draw):
    """A signed permutation matrix, or I_k summed with a small random block,
    with the rows and the columns permuted: every row of a permutation, and
    every row of I_k, is a one-entry pivot row."""
    k = draw(st.integers(0, 8))
    if draw(st.booleans()):
        diagonal, block = [draw(st.sampled_from((1, -1))) for _ in range(k)], []
    else:
        values = draw(st.sampled_from((NON_UNIT, ANY)))
        size = draw(st.integers(1, 5))
        diagonal, block = [1] * k, [[draw(values) for _ in range(size)] for _ in range(size)]
    n = k + len(block)
    grid = [[0] * n for _ in range(n)]
    for i, d in enumerate(diagonal):
        grid[i][i] = d
    for i, row in enumerate(block):
        grid[k + i][k:] = row
    grid = [grid[i] for i in draw(st.permutations(range(n)))]
    columns = draw(st.permutations(range(n)))
    return IntegerMatrix(n, n, tuple(tuple(row[j] for j in columns) for row in grid))


# a one-entry pivot row that is not a unit, with no remainder and with one
ONE_ENTRY_NON_UNIT = IntegerMatrix.from_rows([[4, 6], [0, 2]])
ONE_ENTRY_REMAINDER = IntegerMatrix.from_rows([[3, 5], [0, 2]])
# row t is empty and takes the one-entry pivot row below it by a swap
EMPTY_ROW_TAKES_PIVOT = IntegerMatrix.from_rows([[0, 0], [0, 3], [2, 0]])


@settings(max_examples=150, deadline=None)
@given(one_entry_row_matrices())
@example(IntegerMatrix.from_rows([[0, -1, 0], [0, 0, 1], [-1, 0, 0]]))  # a signed permutation
@example(IntegerMatrix.from_rows([[1, 0, 0], [0, 2, 4], [0, 6, 3]]))  # I_1 summed with a block
@example(ONE_ENTRY_NON_UNIT)
@example(ONE_ENTRY_REMAINDER)
@example(EMPTY_ROW_TAKES_PIVOT)
def test_one_entry_rows_match_reference(A):
    got = smith_normal_form(A)
    _same(A, got)
    assert got.U @ A @ got.V == got.D


def test_examples_reach_one_entry_pivot_rows():
    """The fixed one-entry examples above reach the paths they are there for."""
    # pivot row 1 is {1: 2}: swapped up, its column swapped in, nothing left
    # to clear in row 0 after the column clear
    plain = smith_normal_form(ONE_ENTRY_NON_UNIT)
    assert plain.row_ops == ((0, 1, 0), (1, 0, -3)) and plain.col_ops == ((0, 1, 0),)
    assert plain.diagonal == (2, 4)
    # the column clear leaves 5 - 2 * 2 == 1 in row 1, which becomes the pivot
    remainder = smith_normal_form(ONE_ENTRY_REMAINDER)
    assert remainder.row_ops[:3] == ((0, 1, 0), (1, 0, -2), (0, 1, 0)) and remainder.diagonal == (1, 6)
    # row 0 is empty; pivot row 2 is {0: 2}, the least of the nonempty rows
    swapped = smith_normal_form(EMPTY_ROW_TAKES_PIVOT)
    assert swapped.row_ops[0] == (0, 2, 0) and swapped.diagonal == (1, 6)


# -- repeated rows, negated rows and norm elements --------------------------


@st.composite
def repeated_row_matrices(draw):
    """Rows drawn from a few distinct ones, each kept, negated, doubled or
    zeroed, so that rows equal to the pivot row and to its negative occur."""
    n = draw(st.integers(1, 8))
    values = draw(st.sampled_from((NON_UNIT, ANY)))
    distinct = [[draw(values) for _ in range(n)] for _ in range(draw(st.integers(1, 3)))]
    grid = []
    for _ in range(draw(st.integers(1, 8))):
        row, scale = draw(st.sampled_from(distinct)), draw(st.sampled_from((1, 1, -1, 2, 0)))
        grid.append([scale * v for v in row])
    return IntegerMatrix(len(grid), n, tuple(map(tuple, grid)))


@settings(max_examples=150, deadline=None)
@given(repeated_row_matrices())
@example(IntegerMatrix.from_rows([[1, 1, 1], [1, 1, 1], [-1, -1, -1]]))
@example(IntegerMatrix.from_rows([[3, 3], [3, 3], [-3, -3], [6, 6]]))  # a non-unit pivot row
@example(IntegerMatrix.from_rows([[1, 2], [1, 3]]))  # one support, different values
@example(IntegerMatrix.from_rows([[2, 0], [0, 3], [0, 3]]))  # the divisibility step
def test_repeated_rows_match_reference(A):
    got = smith_normal_form(A)
    _same(A, got)
    assert got.U @ A @ got.V == got.D


def test_norm_elements_match_reference(groups):
    """Sigma over each small group, and L(n)'s boundary(2), which is Sigma:
    every row of the expansion equals the pivot row."""
    matrices = [GRMatrix.one_by_one(norm_element(G)).expand() for G in groups]
    matrices += [lens_complex(n).boundary(2).expand() for n in (2, 3, 5, 12, 31)]
    for A in matrices:
        got = smith_normal_form(A)
        _same(A, got)
        assert got.diagonal == (1,)
        assert got.U @ A @ got.V == got.D


LINES = st.dictionaries(st.integers(0, 6), st.integers(-5, 5).filter(bool), max_size=6)


@settings(max_examples=300, deadline=None)
@given(LINES, LINES, st.sampled_from((-2, -1, 1, 2)), st.sampled_from(("equal", "negated", "unrelated")))
@example({0: 1, 3: -2}, {}, -1, "equal")
@example({0: 1, 3: -2}, {}, 1, "equal")
@example({0: 1, 3: -2}, {}, -1, "negated")
@example({}, {}, -1, "equal")
def test_add_line_matches_entrywise_loop(S, other, q, relation):
    """R += q * S for R equal to S, to -S, or unrelated to it."""
    R = {"equal": dict(S), "negated": {j: -v for j, v in S.items()}, "unrelated": dict(other)}[relation]
    want = dict(R)
    reference_add_line(want, S, q)
    before = dict(S)
    _add_line(R, S, q)
    assert R == want
    assert S == before


def test_examples_reach_repivots_and_divisibility():
    """The fixed examples above do exercise the branches they are there for."""
    divisible = reference_snf(IntegerMatrix.from_rows([[2, 0], [0, 3]]))
    assert (0, 1, 1) in divisible.row_ops and divisible.diagonal == (1, 6)
    swapped = smith_normal_form(IntegerMatrix.from_rows([[0, 6, 4], [9, 0, 6], [0, 0, 0]]))
    assert any(q == 0 and a != b for a, b, q in swapped.col_ops)
    assert any(q for _, _, q in swapped.col_ops)


# -- a decomposition extended by a partial permutation of 1s -----------------


def with_ones(A: IntegerMatrix, rows: int, cols: int, ones) -> IntegerMatrix:
    """The rows x cols matrix holding A as its leading block and a 1 at each
    (row, column) of ``ones``."""
    lines = [dict(line) for line in A.sparse_rows] + [{} for _ in range(rows - A.rows)]
    for i, j in ones:
        lines[i][j] = 1
    return IntegerMatrix._from_sparse_rows(cols, lines)


@st.composite
def extended_blocks(draw):
    """A random sparse A, up to 6 rows and columns past it, and a random
    partial permutation of 1s on those: none, some, interleaved with zero
    rows and columns, or all of them."""
    A = draw(sparse_matrices())
    extra_rows, extra_cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    count = draw(st.integers(0, min(extra_rows, extra_cols)))
    rows = draw(st.permutations(range(A.rows, A.rows + extra_rows)))[:count]
    cols = draw(st.permutations(range(A.cols, A.cols + extra_cols)))[:count]
    return A, A.rows + extra_rows, A.cols + extra_cols, tuple(zip(rows, cols))


@settings(max_examples=150, deadline=None)
@given(extended_blocks(), st.randoms(use_true_random=False))
@example((IntegerMatrix.from_rows([[2, 0], [0, 6]]), 4, 4, ((2, 3), (3, 2))), random.Random(0))  # non-unit factors, all 1s
@example((IntegerMatrix.from_rows([[3, 1], [1, 3]]), 4, 5, ((3, 4),)), random.Random(0))  # a unit before a non-unit
@example((IntegerMatrix.from_rows([[1, 2], [2, 4]]), 5, 5, ((4, 3), (2, 2))), random.Random(0))  # rank-deficient A
@example((IntegerMatrix.from_rows([[0, 6, 4], [9, 0, 6]]), 4, 6, ()), random.Random(0))  # no 1s, zero rows and columns
@example((IntegerMatrix(0, 0, ()), 3, 2, ((0, 1), (2, 0))), random.Random(0))  # the 0 x 0 block
@example((IntegerMatrix(0, 0, ()), 0, 0, ()), random.Random(0))
def test_extended_decomposition_is_one_of_the_whole(case, rng):
    A, rows, cols, ones = case
    M = with_ones(A, rows, cols, ones)
    got = smith_normal_form(A).extended(rows, cols, ones)
    assert (got.rows, got.cols) == (rows, cols)
    assert got.U @ M @ got.V == got.D
    assert got.diagonal == smith_normal_form(M).diagonal
    T = got.transposed()
    assert T.U @ M.transpose() @ T.V == T.D
    kernel = got.kernel_columns()
    assert len(kernel) == cols - got.rank
    assert all((M @ IntegerMatrix(cols, 1, tuple((v,) for v in column))).is_zero for column in kernel)

    def grid(height):
        return IntegerMatrix(height, 2, tuple((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(height)))

    fresh = smith_normal_form(M)
    for _ in range(3):
        solvable = M @ grid(cols)
        X = back_substitute(got, solvable)
        assert X is not None and M @ X == solvable
        B = grid(rows)
        X = back_substitute(got, B)
        assert (X is None) == (back_substitute(fresh, B) is None)
        assert X is None or M @ X == B


@pytest.mark.parametrize(
    "rows, cols, ones",
    [
        (2, 3, ((0, 2),)),  # a 1 in the block's rows
        (3, 2, ((2, 1),)),  # a 1 in the block's columns
        (4, 4, ((2, 2), (2, 3))),  # two 1s in one row
        (4, 4, ((2, 3), (3, 3))),  # two 1s in one column
        (3, 3, ((3, 2),)),  # a row out of range
        (1, 2, ()),  # fewer rows than the block
    ],
)
def test_extension_refuses_a_broken_block(rows, cols, ones):
    snf = smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 6]]))
    with pytest.raises(AssertionError, match="partial permutation"):
        snf.extended(rows, cols, ones)
