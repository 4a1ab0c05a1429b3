"""The library's sparse builders against dense references.

Every integer matrix the library builds is stored as sparse rows.
GRMatrix.expand, stack_columns and the iso-search constraint matrix are
checked here against a dense grid built from their definition, one entry
at a time: the two must be equal, hash alike, and reduce to the same Smith
decomposition, diagonal and both logs, when the reduction starts from the
sparse rows and when it starts from the dense grid.  The other producers
(augmented, transpose, @, the decomposition's D, U and V, kernel_basis,
back_substitute's solution, zeros and identity) are checked against a grid
computed densely: equal entries, == and hash agree, no stored zero and
every column in range.
"""

import random
from functools import lru_cache, partial

import pytest

from conftest import (
    make_dihedral4,
    make_quaternion8,
    presentation_complex,
    sym3_presentation,
    twisted_lens,
    twisted_sym3_presentation,
)
from zgdual.dual_form import (
    _chain_map_constraints,
    _lattice_offsets,
    dual_head_segment,
    tail_segment,
    to_dual_form_stage6,
)
from zgdual.gr_linalg import stack_columns
from zgdual.int_linalg import IntegerMatrix, back_substitute, kernel_basis, smith_normal_form
from zgdual.lens import lens_complex


def dense_expand(A):
    """Block (i, j) row a, column b: the coefficient of g_a g_b^{-1} in A[i][j]."""
    G = A.group
    N, mul, inv = G.order, G.mul_table, G.inv_table
    return [
        [A.entries[i][j].coeffs[mul[a][inv[b]]] for j in range(A.cols) for b in range(N)]
        for i in range(A.rows)
        for a in range(N)
    ]


def dense_stack_columns(B):
    N = B.group.order
    return [[B.entries[i][j].coeffs[a] for j in range(B.cols)] for i in range(B.rows) for a in range(N)]


def dense_constraints(a, b):
    """Row (deg, p, q, r) of the chain-map constraints, one full-width row at
    a time: D[p][j] acts on entry (j, q) of h_deg by left multiplication,
    and -d[j][q] on entry (p, j) of h_{deg-1} by right multiplication, read
    as the transpose of its expansion under the inversion permutation.
    """
    N, inv = a.group.order, a.group.inv_table
    offsets, total = _lattice_offsets(a, b)
    rows = []
    for deg in (1, 2):
        D = dense_expand(b.boundary(deg))
        d = dense_expand(a.boundary(deg))
        for p in range(b.ranks[deg - 1]):
            for q in range(a.ranks[deg]):
                for r in range(N):
                    row = [0] * total
                    for j in range(b.ranks[deg]):
                        for s in range(N):
                            row[offsets[deg] + (j * a.ranks[deg] + q) * N + s] = D[p * N + r][j * N + s]
                    for j in range(a.ranks[deg - 1]):
                        for c in range(N):
                            row[offsets[deg - 1] + (p * a.ranks[deg - 1] + j) * N + c] = -d[
                                j * N + inv[c]
                            ][q * N + inv[r]]
                    rows.append(row)
    return IntegerMatrix(len(rows), total, tuple(map(tuple, rows)))


def assert_same_matrix_and_reduction(M, reference):
    """M (sparse-built) equals the reference grid and reduces as its dense copy."""
    sparse_snf = smith_normal_form(M)  # from M's sparse rows, before any grid exists
    dense = IntegerMatrix.from_rows(M.entries) if M.rows else IntegerMatrix(0, M.cols, ())
    assert (M.rows, M.cols) == (reference.rows, reference.cols)
    assert M.sparse_rows == reference.sparse_rows  # nonzeros only, every column in range
    assert M == reference and M == dense
    assert hash(M) == hash(reference) == hash(dense)
    dense_snf = smith_normal_form(dense)
    assert sparse_snf.diagonal == dense_snf.diagonal
    assert sparse_snf.row_ops == dense_snf.row_ops
    assert sparse_snf.col_ops == dense_snf.col_ops


def grid(rows, cols, lists):
    return IntegerMatrix(rows, cols, tuple(map(tuple, lists)))


def generating_pair(G):
    """An element of greatest order and the first element outside the
    subgroup it generates: a generating pair whenever that subgroup has
    index 2, as in Q8 and D4.
    """
    def powers(g):
        out, x = [G.identity_index], g
        while x != G.identity_index:
            out.append(x)
            x = G.mul_table[x][g]
        return out

    g = max(range(G.order), key=lambda x: len(powers(x)))
    h = next(x for x in range(G.order) if x not in powers(g))
    return [g, h]


def group_presentation(make_group):
    G = make_group()
    return presentation_complex(G, generating_pair(G))


BUILDERS = {
    **{f"L({n})": partial(lens_complex, n) for n in range(2, 14)},
    **{f"twisted L({n})": partial(twisted_lens, n) for n in range(3, 7)},
    "S3 presentation": lambda: sym3_presentation()[0],
    "twisted S3 presentation": twisted_sym3_presentation,
    "Q8 presentation": partial(group_presentation, make_quaternion8),
    "D4 presentation": partial(group_presentation, make_dihedral4),
}


@lru_cache(maxsize=None)
def complex_named(name):
    return BUILDERS[name]()


@pytest.mark.parametrize("name", BUILDERS)
def test_every_boundary_expands_as_its_definition(name):
    C = complex_named(name)
    for i in range(1, C.top_degree + 1):
        d = C.boundary(i)
        M = d.expand()
        N = d.group.order
        assert_same_matrix_and_reduction(M, grid(d.rows * N, d.cols * N, dense_expand(d)))


@pytest.mark.parametrize("name", BUILDERS)
def test_stacked_columns_solve_as_their_definition(name):
    C = complex_named(name)
    for i in range(1, C.top_degree + 1):
        B = C.boundary(i)  # boundary(i) @ X == B is solved by X == I
        S = stack_columns(B)
        reference = grid(B.rows * B.group.order, B.cols, dense_stack_columns(B))
        assert S == reference and hash(S) == hash(reference)
        snf = C.reduction(i)
        X = back_substitute(snf, S)
        assert X is not None and X == back_substitute(snf, reference)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("twisted", [False, True])
def test_stage6_constraints_match_their_definition(n, twisted):
    C6 = to_dual_form_stage6(twisted_lens(n) if twisted else lens_complex(n)).complex
    tail, head = tail_segment(C6), dual_head_segment(C6)
    for a, b in ((tail, head), (head, tail)):
        assert_same_matrix_and_reduction(_chain_map_constraints(a, b), dense_constraints(a, b))


def test_sparse_and_dense_rows_read_back_as_each_other():
    M = grid(2, 3, [[0, -2, 0], [0, 0, 0]])
    assert M.sparse_rows == ({1: -2}, {})
    S = IntegerMatrix._from_sparse_rows(3, [{1: -2}, {}])
    assert S.entries == M.entries and S == M and hash(S) == hash(M)
    assert IntegerMatrix._from_sparse_rows(4, []) == IntegerMatrix(0, 4, ())


# -- the other producers against dense grids -----------------------------


def assert_matches_grid(M, rows, cols, lists):
    """M, as built by the library, against the checked grid constructor."""
    reference = grid(rows, cols, lists)
    assert (M.rows, M.cols) == (rows, cols)
    assert M.entries == reference.entries
    assert M == reference and hash(M) == hash(reference)
    for line in M.sparse_rows:
        assert 0 not in line.values()
        assert all(0 <= j < cols for j in line)


def dense_mul(a, b, inner, cols):
    return [[sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)] for row in a]


def dense_replay(ops, size, transposed=False):
    """The logged operations replayed on the rows of the identity grid, as
    SmithDecomposition documents them: forward gives U, transposed gives V.
    """
    lines = [[int(i == j) for j in range(size)] for i in range(size)]
    for a, b, q in reversed(ops) if transposed else ops:
        if a == b:
            lines[a] = [-v for v in lines[a]]
        elif not q:
            lines[a], lines[b] = lines[b], lines[a]
        else:
            dst, src = (b, a) if transposed else (a, b)
            lines[dst] = [x + q * y for x, y in zip(lines[dst], lines[src])]
    return lines


def random_grid(rng, rows, cols):
    return [[rng.randint(-3, 3) if rng.random() < 0.4 else 0 for _ in range(cols)] for _ in range(rows)]


SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (6, 3)]


@pytest.mark.parametrize("name", BUILDERS)
def test_augmented_is_its_definition(name):
    C = complex_named(name)
    for d in C.differentials:
        assert_matches_grid(d.augmented(), d.rows, d.cols, [[e.augmentation() for e in row] for row in d.entries])


@pytest.mark.parametrize("seed", range(4))
def test_transpose_and_product_of_grids(seed):
    rng = random.Random(seed)
    for rows, cols in SHAPES:
        a = random_grid(rng, rows, cols)
        A = grid(rows, cols, a)
        assert_matches_grid(A.transpose(), cols, rows, [[a[i][j] for i in range(rows)] for j in range(cols)])
        assert [A.column(j) for j in range(cols)] == [tuple(row[j] for row in a) for j in range(cols)]
        with pytest.raises(IndexError):
            A.column(cols)
        for width in (0, 1, 4):
            b = random_grid(rng, cols, width)
            assert_matches_grid(A @ grid(cols, width, b), rows, width, dense_mul(a, b, cols, width))
        # an all-zero product stores no zero
        assert_matches_grid(A @ IntegerMatrix.zeros(cols, 2), rows, 2, [[0, 0]] * rows)


@pytest.mark.parametrize("name", BUILDERS)
def test_transpose_and_product_of_expansions(name):
    C = complex_named(name)
    for i in range(1, C.top_degree):
        d, e = C.boundary(i), C.boundary(i + 1)
        N = d.group.order
        m, k, n = d.rows * N, d.cols * N, e.cols * N
        a, b = dense_expand(d), dense_expand(e)
        assert_matches_grid(d.expand().transpose(), k, m, [list(col) for col in zip(*a)] if m else [[]] * k)
        assert_matches_grid(d.expand() @ e.expand(), m, n, dense_mul(a, b, k, n))


def assert_decomposition_producers(A, a, rhs):
    """D, U, V, kernel_basis and back_substitute against dense replays of
    the logs, with U A V == D checked on the grids."""
    m, n = A.rows, A.cols
    snf = smith_normal_form(A)
    r = snf.rank
    u, v = dense_replay(snf.row_ops, m), dense_replay(snf.col_ops, n, transposed=True)
    d = [[snf.diagonal[i] if i == j and i < r else 0 for j in range(n)] for i in range(m)]
    assert dense_mul(dense_mul(u, a, m, n), v, n, n) == d
    assert_matches_grid(snf.D, m, n, d)
    assert_matches_grid(snf.U, m, m, u)
    assert_matches_grid(snf.V, n, n, v)
    assert_matches_grid(kernel_basis(A), n, n - r, [row[r:] for row in v])
    for b in rhs:
        width = len(b[0]) if b else 0
        ub = dense_mul(u, b, m, width)
        X = back_substitute(snf, grid(m, width, b))
        solvable = not any(any(row) for row in ub[r:]) and all(
            x % snf.diagonal[i] == 0 for i in range(r) for x in ub[i]
        )
        assert (X is not None) == solvable
        if solvable:
            y = [[x // snf.diagonal[i] for x in ub[i]] for i in range(r)] + [[0] * width] * (n - r)
            x = dense_mul(v, y, n, width)
            assert dense_mul(a, x, n, width) == b
            assert_matches_grid(X, n, width, x)


@pytest.mark.parametrize("seed", range(4))
def test_decomposition_producers_of_grids(seed):
    rng = random.Random(100 + seed)
    for rows, cols in SHAPES:
        a = random_grid(rng, rows, cols)
        # one right-hand side in the image of A, one arbitrary
        image = dense_mul(a, random_grid(rng, cols, 2), cols, 2)
        assert_decomposition_producers(grid(rows, cols, a), a, [image, random_grid(rng, rows, 3)])


@pytest.mark.parametrize("name", BUILDERS)
def test_decomposition_producers_of_expansions(name):
    C = complex_named(name)
    for i in range(1, C.top_degree + 1):
        d = C.boundary(i)
        # boundary(i) @ X == boundary(i) is solved by X == I
        assert_decomposition_producers(d.expand(), dense_expand(d), [dense_stack_columns(d)])


def test_zeros_and_identity():
    for rows, cols in SHAPES:
        assert_matches_grid(IntegerMatrix.zeros(rows, cols), rows, cols, [[0] * cols] * rows)
    for n in range(5):
        assert_matches_grid(IntegerMatrix.identity(n), n, n, [[int(i == j) for j in range(n)] for i in range(n)])
    for rows, cols in [(-1, 0), (0, -1)]:
        with pytest.raises(ValueError, match="declared shape"):
            IntegerMatrix.zeros(rows, cols)
    with pytest.raises(ValueError, match="declared shape"):
        IntegerMatrix.identity(-1)
