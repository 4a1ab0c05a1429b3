"""Property-based tests for the algebraic core."""

from hypothesis import example, given, settings, strategies as st

from conftest import (
    make_quaternion8,
    make_sym3,
    oracle_group_info,
    rational_rank,
    sheared_sum_complex,
    small_groups,
    spot_matrices,
    sympy_invariant_factors,
)
from zgdual.complexes import COEFFS, homology
from zgdual.group_core import GroupRingElement, norm_element
from zgdual.gr_linalg import GRMatrix, solve_gr_linear
from zgdual.int_linalg import (
    IntegerMatrix,
    back_substitute,
    determinant,
    homology_pair,
    kernel_basis,
    smith_normal_form,
    solve_integer,
)

GROUPS = small_groups()


@st.composite
def elements(draw, group=None):
    G = group if group is not None else draw(st.sampled_from(GROUPS))
    coeffs = draw(
        st.lists(st.integers(-4, 4), min_size=G.order, max_size=G.order).map(tuple)
    )
    return GroupRingElement(G, coeffs)


@st.composite
def element_pairs(draw):
    G = draw(st.sampled_from(GROUPS))
    return draw(elements(G)), draw(elements(G))


@st.composite
def composable_gr_matrices(draw):
    G = draw(st.sampled_from([g for g in GROUPS if g.order <= 8]))
    m = draw(st.integers(0, 3))
    n = draw(st.integers(0, 3))
    p = draw(st.integers(0, 3))

    def mat(rows, cols):
        return GRMatrix(
            G,
            rows,
            cols,
            tuple(tuple(draw(elements(G)) for _ in range(cols)) for _ in range(rows)),
        )

    return mat(m, n), mat(n, p)


@st.composite
def int_matrices(draw, max_dim=6, bound=6):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entries = tuple(
        tuple(draw(st.integers(-bound, bound)) for _ in range(cols)) for _ in range(rows)
    )
    return IntegerMatrix(rows, cols, entries)


@given(element_pairs())
def test_involution_is_anti_automorphism(pair):
    a, b = pair
    assert (a * b).involute() == b.involute() * a.involute()
    assert a.involute().involute() == a


@given(element_pairs())
def test_augmentation_is_ring_map(pair):
    a, b = pair
    assert (a * b).augmentation() == a.augmentation() * b.augmentation()


@given(elements())
def test_norm_element_absorbs(a):
    sigma = norm_element(a.group)
    assert sigma * a == sigma.scale(a.augmentation())


@given(composable_gr_matrices())
def test_dual_matrix_contravariant(pair):
    A, B = pair
    assert (A @ B).dual() == B.dual() @ A.dual()


@given(composable_gr_matrices())
def test_expand_regular_multiplicative(pair):
    A, B = pair
    assert (A @ B).expand() == A.expand() @ B.expand()


@given(composable_gr_matrices())
def test_expand_dual_commutes_with_transpose(pair):
    A, _ = pair
    assert A.dual().expand() == A.expand().transpose()


@settings(max_examples=60)
@given(int_matrices())
def test_snf_invariants(A):
    snf = smith_normal_form(A)
    assert snf.U @ A @ snf.V == snf.D
    assert abs(determinant(snf.U)) == 1
    assert abs(determinant(snf.V)) == 1
    for x, y in zip(snf.diagonal, snf.diagonal[1:]):
        assert y % x == 0
    assert list(snf.diagonal) == sympy_invariant_factors(A)


@st.composite
def sparse_int_matrices(draw, max_dim=8, bound=5):
    """Integer matrices of every density: all-zero, sparse (about one entry
    in five nonzero) and dense; 0 x n and m x 0 shapes included."""
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    density = draw(st.sampled_from(("zero", "sparse", "dense")))
    if density == "zero":
        return IntegerMatrix.zeros(rows, cols)
    nonzero = st.integers(-bound, bound).filter(bool)

    def entry():
        if density == "sparse" and draw(st.integers(0, 4)):
            return 0
        return draw(nonzero)

    return IntegerMatrix(rows, cols, tuple(tuple(entry() for _ in range(cols)) for _ in range(rows)))


def _grid(rows, cols, values):
    return IntegerMatrix(rows, cols, tuple(tuple(next(values) for _ in range(cols)) for _ in range(rows)))


@st.composite
def snf_systems(draw):
    """(A, B_solvable, B_arbitrary): A from sparse_int_matrices, B_solvable
    = A @ X for a random X, and a random B; both with two columns."""
    A = draw(sparse_int_matrices())
    small = st.lists(st.integers(-3, 3), min_size=2 * max(A.rows, A.cols), max_size=2 * max(A.rows, A.cols))
    X = _grid(A.cols, 2, iter(draw(small)))
    return A, A @ X, _grid(A.rows, 2, iter(draw(small)))


def _zero_system(rows, cols):
    return IntegerMatrix.zeros(rows, cols), IntegerMatrix.zeros(rows, 2), IntegerMatrix.zeros(rows, 2)


@settings(max_examples=80, deadline=None)
@given(snf_systems())
@example(_zero_system(0, 4))
@example(_zero_system(4, 0))
@example(_zero_system(3, 5))
def test_snf_log_replays_match_the_materialized_transforms(system):
    A, solvable, arbitrary = system
    snf = smith_normal_form(A)
    m, n, r = A.rows, A.cols, snf.rank
    # every replay is read before U and V are built, then compared with them
    u_rows = [snf.U_row(i) for i in range(m)]
    v_cols = [snf.transposed().U_row(j) for j in range(n)]
    kernel = snf.kernel_columns()
    solutions = [back_substitute(snf, B) for B in (solvable, arbitrary)]

    U, V = snf.U, snf.V
    assert U @ A @ V == snf.D
    assert u_rows == list(U.entries)
    assert v_cols == [V.column(j) for j in range(n)]
    assert kernel == [V.column(j) for j in range(r, n)]
    assert solutions[0] is not None
    first_r_columns = IntegerMatrix(n, r, tuple(row[:r] for row in V.entries))
    for B, X in zip((solvable, arbitrary), solutions):
        UB = U @ B
        if any(any(row) for row in UB.entries[r:]) or any(
            v % d for d, row in zip(snf.diagonal, UB.entries) for v in row
        ):
            assert X is None
            continue
        Y = IntegerMatrix(r, 2, tuple(tuple(v // d for v in row) for d, row in zip(snf.diagonal, UB.entries)))
        assert X == first_r_columns @ Y
        assert A @ X == B


# S3 and Q8 are the non-cyclic groups; C6 keeps a cyclic case with two
# different subgroup complexes
SPOT_GROUPS = [make_sym3(), make_quaternion8(), small_groups()[5]]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_memoized_homology_matches_oracle_on_sheared_complexes(data):
    G = data.draw(st.sampled_from(SPOT_GROUPS))
    g = data.draw(st.integers(0, G.order - 1))
    h = data.draw(st.integers(0, G.order - 1))
    length = data.draw(st.integers(1, 5))
    shears = [data.draw(elements(G)) for _ in range(length + 1)]
    C = sheared_sum_complex(G, g, h, shears, length)
    for coeff in COEFFS:
        for d in range(length + 1):
            assert homology(C, d, coeff) == oracle_group_info(*spot_matrices(C, d, coeff))


@settings(max_examples=60)
@given(int_matrices(max_dim=5, bound=4), st.data())
def test_solve_integer_round_trip(A, data):
    X0 = IntegerMatrix(
        A.cols,
        2,
        tuple(
            tuple(data.draw(st.integers(-3, 3)) for _ in range(2)) for _ in range(A.cols)
        ),
    )
    B = A @ X0
    X = solve_integer(A, B)
    assert X is not None
    assert A @ X == B


@settings(max_examples=60)
@given(int_matrices(max_dim=5, bound=3), st.data())
def test_homology_pair_matches_oracle(out, data):
    K = kernel_basis(out)
    coeffs = IntegerMatrix(
        K.cols,
        2,
        tuple(tuple(data.draw(st.integers(-2, 2)) for _ in range(2)) for _ in range(K.cols)),
    )
    inc = K @ coeffs
    assert homology_pair(inc, out) == oracle_group_info(inc, out)


@settings(max_examples=60)
@given(int_matrices(max_dim=5, bound=5))
def test_rank_matches_rational_oracle(A):
    assert smith_normal_form(A).rank == rational_rank(A)


@settings(max_examples=40)
@given(st.data())
def test_solve_gr_linear_round_trip(data):
    G = data.draw(st.sampled_from([g for g in GROUPS if g.order <= 6]))
    n = data.draw(st.integers(1, 2))

    def mat():
        return GRMatrix(
            G,
            n,
            n,
            tuple(tuple(data.draw(elements(G)) for _ in range(n)) for _ in range(n)),
        )

    A, X0 = mat(), mat()
    B = A @ X0
    X = solve_gr_linear(A, B)
    assert X is not None
    assert A @ X == B
