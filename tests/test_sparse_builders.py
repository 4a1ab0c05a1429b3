"""The library's sparse builders against dense references.

GRMatrix.expand, stack_columns and the iso-search constraint matrix build
their integer matrices as sparse rows.  Each is checked here against a
dense grid built from its definition, one entry at a time: the two must be
equal, hash alike, and reduce to the same Smith decomposition, diagonal and
both logs, when the reduction starts from the sparse rows and when it
starts from the dense grid.
"""

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
from zgdual.int_linalg import IntegerMatrix, back_substitute, smith_normal_form
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
