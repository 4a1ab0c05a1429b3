"""The library's sparse builders against dense references.

Every integer matrix the library builds is stored as sparse rows.
GRMatrix.expand, stack_columns and the iso-search constraint matrix are
checked here against a dense grid built from their definition, one entry
at a time: the two must be equal, hash alike, and reduce to the same Smith
decomposition, diagonal and both logs, when the reduction starts from the
sparse rows and when it starts from the dense grid.  The other producers
(augmented, transpose, @, the decomposition's D, U and V, kernel_basis,
back_substitute's solution and zeros) are checked against a grid
computed densely: equal entries, == and hash agree, no stored zero and
every column in range.

Every GRMatrix is stored as sparse rows too.  Its producers (the checked
constructors, zeros, identity, @, +, -, dual, fold_columns and the
dual-form builders _direct_sum and _unflatten_triple)
are checked the same way against grids of GroupRingElements computed entry
by entry, and its readers (_flatten, _diag_aug_residue, matrix_to_json)
against the same grids.
"""

import random
from functools import lru_cache, partial

import pytest

from conftest import (
    expansion,
    integer_identity,
    make_dihedral4,
    make_quaternion8,
    make_sym3,
    presentation_complex,
    scalar_matrix,
    sym3_presentation,
    twisted_lens,
    twisted_sym3_presentation,
)
from zgdual.dual_form import (
    _chain_map_constraints,
    _diag_aug_residue,
    _flatten,
    _lattice_offsets,
    _unflatten_triple,
    dual_head_segment,
    tail_segment,
    to_dual_form_stage6,
)
from zgdual.group_core import GroupRingElement, cyclic_group, gr_mul, norm_element
from zgdual.gr_linalg import GRMatrix, fold_columns, stack_columns
from zgdual.int_linalg import IntegerMatrix, back_substitute, kernel_basis, smith_normal_form
from zgdual.lens import lens_complex
from zgdual.serialize import matrix_to_json


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
        assert_matches_grid(integer_identity(n), n, n, [[int(i == j) for j in range(n)] for i in range(n)])
    for rows, cols in [(-1, 0), (0, -1)]:
        with pytest.raises(ValueError, match="declared shape"):
            IntegerMatrix.zeros(rows, cols)
    with pytest.raises(ValueError, match="declared shape"):
        integer_identity(-1)


# -- the Z[G] producers against dense grids ------------------------------

GR_GROUPS = {"C5": partial(cyclic_group, 5), "S3": make_sym3, "Q8": make_quaternion8}


def assert_gr_matches_grid(M, G, rows, cols, lists):
    """M, as built by the library, against the grid of entries it should
    have and the checked grid constructor."""
    entries = tuple(map(tuple, lists))
    reference = GRMatrix(G, rows, cols, entries)
    assert (M.group, M.rows, M.cols) == (G, rows, cols)
    assert M.entries == entries == reference.entries
    assert M == reference and hash(M) == hash(reference)
    for line in M.sparse_rows:
        assert not any(e.is_zero for e in line.values())
        assert all(0 <= j < cols for j in line)


def random_element(rng, G):
    """Zero half the time, otherwise an element with about half its terms zero."""
    if rng.random() < 0.5:
        return GroupRingElement.zero(G)
    return GroupRingElement(G, tuple(rng.randint(-2, 2) if rng.random() < 0.5 else 0 for _ in range(G.order)))


def random_gr_grid(rng, G, rows, cols):
    return [[random_element(rng, G) for _ in range(cols)] for _ in range(rows)]


def gr_grid(G, rows, cols, lists):
    return GRMatrix(G, rows, cols, tuple(map(tuple, lists)))


def dense_gr_mul(G, a, b, inner, cols):
    out = []
    for row in a:
        out.append([])
        for j in range(cols):
            acc = GroupRingElement.zero(G)
            for k in range(inner):
                acc = acc + gr_mul(row[k], b[k][j])
            out[-1].append(acc)
    return out


@pytest.mark.parametrize("group", GR_GROUPS)
@pytest.mark.parametrize("seed", range(3))
def test_gr_algebra_of_grids(group, seed):
    G = GR_GROUPS[group]()
    rng = random.Random(200 + seed)
    for rows, cols in SHAPES:
        a, b = random_gr_grid(rng, G, rows, cols), random_gr_grid(rng, G, rows, cols)
        A, B = gr_grid(G, rows, cols, a), gr_grid(G, rows, cols, b)
        assert_gr_matches_grid(A, G, rows, cols, a)
        pairs = [list(zip(r, s)) for r, s in zip(a, b)]
        assert_gr_matches_grid(A + B, G, rows, cols, [[x + y for x, y in row] for row in pairs])
        assert_gr_matches_grid(A - B, G, rows, cols, [[x - y for x, y in row] for row in pairs])
        assert_gr_matches_grid(-A, G, rows, cols, [[-x for x in row] for row in a])
        dual = [[a[i][j].involute() for i in range(rows)] for j in range(cols)]
        assert_gr_matches_grid(A.dual(), G, cols, rows, dual)
        for width in (0, 1, 3):
            c = random_gr_grid(rng, G, cols, width)
            product = dense_gr_mul(G, a, c, cols, width)
            assert_gr_matches_grid(A @ gr_grid(G, cols, width, c), G, rows, width, product)
        for zero in (A + (-A), A - A):
            assert zero.sparse_rows == ({},) * rows and zero.is_zero
        assert A.is_zero == all(e.is_zero for row in a for e in row)
        # the readers of the nonzeros against the grid
        assert _flatten([A, B]) == [v for m in (a, b) for row in m for e in row for v in e.coeffs]
        diagonal = sum(a[i][i].augmentation() for i in range(min(rows, cols)))
        assert _diag_aug_residue(A) == diagonal % G.order
        assert matrix_to_json(A)["entries"] == [[e.terms() for e in row] for row in a]


def test_cancelling_products_store_nothing():
    for n in (2, 5, 7):
        G = cyclic_group(n)
        one, sigma = GroupRingElement.one(G), norm_element(G)
        one_minus_t = one - GroupRingElement.basis(G, 1)
        product = GRMatrix.one_by_one(one_minus_t) @ GRMatrix.one_by_one(sigma)
        assert product.sparse_rows == ({},) and product.is_zero
        # row 0 is (1 - t) Sigma + Sigma (1 - t) == 0; row 1 is Sigma^2 + 1 - t
        A = GRMatrix.from_rows(G, [[one_minus_t, sigma], [sigma, one]])
        B = GRMatrix.from_rows(G, [[sigma], [one_minus_t]])
        assert_gr_matches_grid(A @ B, G, 2, 1, [[GroupRingElement.zero(G)], [sigma.scale(n) + one_minus_t]])
        assert (A @ B).sparse_rows[0] == {}


@pytest.mark.parametrize("group", GR_GROUPS)
def test_gr_constructors(group):
    G = GR_GROUPS[group]()
    rng = random.Random(300)
    z, one = GroupRingElement.zero(G), GroupRingElement.one(G)
    for rows, cols in SHAPES:
        assert_gr_matches_grid(GRMatrix.zeros(G, rows, cols), G, rows, cols, [[z] * cols] * rows)
        a = random_gr_grid(rng, G, rows, cols)
        if rows:
            assert_gr_matches_grid(GRMatrix.from_rows(G, a), G, rows, cols, a)
    assert_gr_matches_grid(GRMatrix.from_rows(G, []), G, 0, 0, [])
    for n in range(4):
        def diagonal(x):
            return [[x if i == j else z for j in range(n)] for i in range(n)]

        assert_gr_matches_grid(GRMatrix.identity(G, n), G, n, n, diagonal(one))
        for x in (z, one, random_element(rng, G)):
            assert_gr_matches_grid(scalar_matrix(x, n), G, n, n, diagonal(x))
    for x in (z, one, GroupRingElement.basis(G, G.order - 1)):
        assert_gr_matches_grid(GRMatrix.one_by_one(x), G, 1, 1, [[x]])


def test_gr_constructors_reject_bad_grids():
    G, H = make_sym3(), cyclic_group(6)
    one = GroupRingElement.one(G)
    with pytest.raises(ValueError, match="different group"):
        GRMatrix(G, 1, 2, ((one, GroupRingElement.one(H)),))
    with pytest.raises(ValueError, match="different group"):
        GRMatrix.from_rows(G, [[one], [GroupRingElement.zero(H)]])
    with pytest.raises(ValueError, match="different group"):
        GRMatrix.one_by_one(GroupRingElement.one(H)) @ GRMatrix.one_by_one(one)
    for bad in (
        lambda: GRMatrix.from_rows(G, [[one, one], [one]]),
        lambda: GRMatrix(G, 2, 1, ((one,),)),
        lambda: GRMatrix(G, 0, -1, ()),
        lambda: GRMatrix.zeros(G, -1, 0),
        lambda: GRMatrix.zeros(G, 0, -1),
        lambda: GRMatrix.identity(G, -1),
        lambda: scalar_matrix(one, -1),
    ):
        with pytest.raises(ValueError, match="declared shape"):
            bad()


@pytest.mark.parametrize("group", GR_GROUPS)
def test_fold_columns_is_its_definition(group):
    G = GR_GROUPS[group]()
    N = G.order
    rng = random.Random(400)
    for gr_cols, width in [(0, 2), (2, 0), (1, 1), (3, 2)]:
        x = random_grid(rng, gr_cols * N, width)
        folded = fold_columns(G, grid(gr_cols * N, width, x), gr_cols)
        reference = [
            [GroupRingElement(G, tuple(x[j * N + a][l] for a in range(N))) for l in range(width)]
            for j in range(gr_cols)
        ]
        assert_gr_matches_grid(folded, G, gr_cols, width, reference)
        assert fold_columns(G, stack_columns(folded), gr_cols) == folded


def dense_direct_sum(d, r, c, identity):
    """d zero-padded by c columns over r new rows, the identity on the new
    columns when ``identity``."""
    z, one = GroupRingElement.zero(d.group), GroupRingElement.one(d.group)
    new = [[z] * d.cols + [one if identity and i == j else z for j in range(c)] for i in range(r)]
    return [list(row) + [z] * c for row in d.entries] + new


def assert_leading_blocks(f, small, big):
    """The components of f are the identity on the leading generators."""
    G = small.group
    z, one = GroupRingElement.zero(G), GroupRingElement.one(G)
    for M, s, t in zip(f.components, f.source.ranks, f.target.ranks):
        assert_gr_matches_grid(M, G, t, s, [[one if i == j else z for j in range(s)] for i in range(t)])
    assert (f.source, f.target) in ((small, big), (big, small))


@pytest.mark.parametrize("name", ["L(3)", "L(6)", "twisted L(4)", "S3 presentation", "Q8 presentation"])
def test_moves_build_their_definition(name):
    C = complex_named(name)
    T = C.top_degree
    for p in range(T):
        E, inclusion, projection = expansion(C, p, 2)
        extra = [2 if k in (p, p + 1) else 0 for k in range(T + 1)]
        for k in range(1, T + 1):
            d, r, c = C.boundary(k), extra[k - 1], extra[k]
            grown = dense_direct_sum(d, r, c, k == p + 1)
            assert_gr_matches_grid(E.boundary(k), C.group, d.rows + r, d.cols + c, grown)
        assert_leading_blocks(inclusion, C, E)
        assert_leading_blocks(projection, C, E)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("twisted", [False, True])
def test_unflattened_triples_are_their_coordinates(n, twisted):
    C6 = to_dual_form_stage6(twisted_lens(n) if twisted else lens_complex(n)).complex
    a, b = tail_segment(C6), dual_head_segment(C6)
    G = a.group
    N = G.order
    offsets, total = _lattice_offsets(a, b)
    rng = random.Random(500 + n)
    for vec in ([0] * total, [rng.randint(-2, 2) if rng.random() < 0.3 else 0 for _ in range(total)]):
        comps = _unflatten_triple(a, b, vec)
        for idx, M in enumerate(comps):
            rows, cols = b.ranks[idx], a.ranks[idx]
            base = [[offsets[idx] + (i * cols + j) * N for j in range(cols)] for i in range(rows)]
            reference = [[GroupRingElement(G, tuple(vec[s : s + N])) for s in row] for row in base]
            assert_gr_matches_grid(M, G, rows, cols, reference)
        assert _flatten(comps) == vec
