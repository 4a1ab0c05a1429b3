import random
from fractions import Fraction

import pytest

from conftest import integer_identity, oracle_group_info, rational_rank, sympy_invariant_factors
from zgdual.int_linalg import (
    AbelianGroupInfo,
    IntegerMatrix,
    back_substitute,
    determinant,
    homology_pair,
    kernel_basis,
    smith_normal_form,
    solve_integer,
)
from zgdual.lens import lens_complex


def rand_matrix(rng, rows, cols, bound=5):
    return IntegerMatrix(
        rows,
        cols,
        tuple(tuple(rng.randint(-bound, bound) for _ in range(cols)) for _ in range(rows)),
    )


def assert_snf_contract(A):
    snf = smith_normal_form(A)
    assert snf.U @ A @ snf.V == snf.D
    assert abs(determinant(snf.U)) == 1
    assert abs(determinant(snf.V)) == 1
    diag = snf.diagonal
    assert all(d > 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    # zeros trail in D
    limit = min(A.rows, A.cols)
    full = [snf.D.entries[i][i] for i in range(limit)]
    assert full[: len(diag)] == list(diag)
    assert all(v == 0 for v in full[len(diag) :])
    # D is diagonal in the rectangular sense
    for i in range(A.rows):
        for j in range(A.cols):
            if i != j:
                assert snf.D.entries[i][j] == 0
    return snf


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form(integer_identity(2)).diagonal == (1, 1)

    def test_two_three(self):
        A = IntegerMatrix.from_rows([[2, 0], [0, 3]])
        snf = assert_snf_contract(A)
        assert snf.diagonal == (1, 6)

    def test_zero_matrix(self):
        snf = smith_normal_form(IntegerMatrix.zeros(3, 2))
        assert snf.diagonal == ()
        assert snf.rank == 0

    def test_empty_shapes(self):
        for rows, cols in [(0, 0), (0, 3), (3, 0)]:
            snf = smith_normal_form(IntegerMatrix.zeros(rows, cols))
            assert snf.diagonal == ()

    @pytest.mark.parametrize("rows, cols", [(0, -3), (-1, 0), (-2, 3), (2, -3)])
    def test_negative_sizes_are_rejected(self, rows, cols):
        # with no rows, a negative column count still has an empty grid to match
        grid = tuple(() for _ in range(max(rows, 0)))
        with pytest.raises(ValueError, match="declared shape"):
            IntegerMatrix(rows, cols, grid)

    @pytest.mark.parametrize("value", [1.5, 2.0, "3", Fraction(1, 2), None])
    def test_non_integer_entries_are_rejected(self, value):
        with pytest.raises(TypeError):
            IntegerMatrix.from_rows([[value]])
        with pytest.raises(TypeError):
            IntegerMatrix(1, 2, ((0, value),))

    def test_integer_like_entries_are_stored_as_int(self):
        from sympy import Integer

        A = IntegerMatrix.from_rows([[True, Integer(3), False], [Integer(0), -2, 7]])
        assert A.sparse_rows == ({0: 1, 1: 3}, {1: -2, 2: 7})
        assert all(type(v) is int for line in A.sparse_rows for v in line.values())
        assert A == IntegerMatrix(2, 3, ((1, 3, 0), (0, -2, 7)))

    def test_contract_random(self):
        rng = random.Random(23)
        for _ in range(150):
            A = rand_matrix(rng, rng.randint(0, 6), rng.randint(0, 6))
            snf = assert_snf_contract(A)
            assert list(snf.diagonal) == sympy_invariant_factors(A)
            assert snf.rank == rational_rank(A)

    def test_wide_and_tall(self):
        A = IntegerMatrix.from_rows([[2, 4, 6, 8]])
        assert smith_normal_form(A).diagonal == (2,)
        B = IntegerMatrix.from_rows([[3], [6], [9]])
        assert smith_normal_form(B).diagonal == (3,)

    def test_u_row_checks_its_index(self):
        snf = smith_normal_form(IntegerMatrix.from_rows([[2, 4], [6, 8]]))
        assert [snf.U_row(i) for i in range(2)] == [tuple(row) for row in snf.U.entries]
        for i in (2, -1, 99):
            with pytest.raises(IndexError, match="out of range"):
                snf.U_row(i)

    def test_rank_oracle_up_to_12(self):
        rng = random.Random(101)
        for _ in range(20):
            A = rand_matrix(rng, rng.randint(8, 12), rng.randint(8, 12), 7)
            assert smith_normal_form(A).rank == rational_rank(A)


class TestDeterminant:
    def test_known(self):
        assert determinant(IntegerMatrix.from_rows([[2, 0], [0, 3]])) == 6
        assert determinant(IntegerMatrix.from_rows([[0, 1], [1, 0]])) == -1
        assert determinant(integer_identity(0)) == 1

    def test_against_fraction_elimination(self):
        rng = random.Random(29)
        for _ in range(100):
            n = rng.randint(1, 6)
            A = rand_matrix(rng, n, n)
            # oracle: LU over Fractions
            rows = [[Fraction(v) for v in row] for row in A.entries]
            det = Fraction(1)
            for k in range(n):
                pivot = next((i for i in range(k, n) if rows[i][k]), None)
                if pivot is None:
                    det = Fraction(0)
                    break
                if pivot != k:
                    rows[k], rows[pivot] = rows[pivot], rows[k]
                    det = -det
                det *= rows[k][k]
                inv = 1 / rows[k][k]
                for i in range(k + 1, n):
                    f = rows[i][k] * inv
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
            assert determinant(A) == det


class TestSolveInteger:
    def test_simple(self):
        A = IntegerMatrix.from_rows([[2]])
        assert solve_integer(A, IntegerMatrix.from_rows([[4]])) == IntegerMatrix.from_rows([[2]])
        assert solve_integer(A, IntegerMatrix.from_rows([[3]])) is None

    def test_diagonal(self):
        A = IntegerMatrix.from_rows([[1, 0], [0, 2]])
        B = IntegerMatrix.from_rows([[5], [6]])
        assert solve_integer(A, B) == IntegerMatrix.from_rows([[5], [3]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_integer(integer_identity(2), integer_identity(3))

    def test_soundness_random(self):
        rng = random.Random(31)
        for _ in range(150):
            m, n, p = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 2)
            A = rand_matrix(rng, m, n, 4)
            if rng.random() < 0.5:
                X0 = rand_matrix(rng, n, p, 3)
                B = A @ X0
                X = solve_integer(A, B)
                assert X is not None
                assert A @ X == B
            else:
                B = rand_matrix(rng, m, p, 4)
                X = solve_integer(A, B)
                if X is not None:
                    assert A @ X == B
                else:
                    # absence must be certified by the rational system or divisibility
                    assert not _rational_solvable_with_integrality(A, B)

    def test_empty_cases(self):
        A = IntegerMatrix.zeros(0, 3)
        B = IntegerMatrix.zeros(0, 2)
        X = solve_integer(A, B)
        assert X == IntegerMatrix.zeros(3, 2)
        A2 = IntegerMatrix.zeros(2, 0)
        assert solve_integer(A2, IntegerMatrix.zeros(2, 1)) == IntegerMatrix.zeros(0, 1)
        assert solve_integer(A2, IntegerMatrix.from_rows([[1], [0]])) is None

    def test_back_substitute_is_v_times_y_with_free_coordinates_zero(self):
        rng = random.Random(107)
        for _ in range(60):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            A = rand_matrix(rng, m, 2, 3) @ rand_matrix(rng, 2, n, 3)  # rank <= 2
            B = A @ rand_matrix(rng, n, 2, 3)
            snf = smith_normal_form(A)
            UB = snf.U @ B
            Y = IntegerMatrix.from_rows(
                [[UB.entries[i][j] // snf.diagonal[i] if i < snf.rank else 0 for j in range(2)] for i in range(n)]
            )
            X = back_substitute(snf, B)
            assert X == snf.V @ Y
            assert A @ X == B

    def test_solvable_instances_up_to_10(self):
        rng = random.Random(103)
        for _ in range(50):
            m, n = rng.randint(6, 10), rng.randint(6, 10)
            A = rand_matrix(rng, m, n, 4)
            X0 = rand_matrix(rng, n, 2, 3)
            B = A @ X0
            X = solve_integer(A, B)
            assert X is not None
            assert A @ X == B


def _rational_solvable_with_integrality(A, B):
    """Oracle: does an *integral* solution exist?  Brute force via sympy.

    Uses sympy's rational solve for existence over Q, then checks the
    divisibility conditions through its Smith normal form transforms done
    by hand over Fractions (only for small instances).
    """
    from sympy import Matrix, linsolve, symbols

    As = Matrix([list(r) for r in A.entries]) if A.rows else Matrix.zeros(0, A.cols)
    for j in range(B.cols):
        rhs = Matrix([B.entries[i][j] for i in range(B.rows)])
        xs = symbols(f"x0:{A.cols}")
        system = (As, rhs)
        sols = linsolve(system, *xs) if A.cols else None
        if A.cols == 0:
            if any(B.entries[i][j] for i in range(B.rows)):
                return False
            continue
        if not sols:
            return False
    # rational solutions exist for every column; integrality is what
    # solve_integer tests via divisibility, trust only a brute search here
    rng = random.Random(137)
    for _ in range(4000):
        X = [[rng.randint(-6, 6) for _ in range(B.cols)] for _ in range(A.cols)]
        if A @ IntegerMatrix.from_rows(X) == B if A.cols else B.is_zero:
            return True
    return False


class TestKernelBasis:
    def test_pure_lattice(self):
        rng = random.Random(37)
        for _ in range(100):
            A = rand_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
            K = kernel_basis(A)
            assert (A @ K).is_zero if K.cols else True
            assert K.cols == A.cols - rational_rank(A)
            if K.cols:
                # primitive: the invariant factors of the basis matrix are all 1
                assert sympy_invariant_factors(K) == [1] * K.cols

    def test_zero_rows(self):
        K = kernel_basis(IntegerMatrix.zeros(0, 4))
        assert K == integer_identity(4)

    def test_kernel_columns_are_the_basis_columns(self):
        rng = random.Random(41)
        for _ in range(30):
            A = rand_matrix(rng, rng.randint(0, 4), rng.randint(1, 5))
            K = kernel_basis(A)
            assert smith_normal_form(A).kernel_columns() == [K.column(j) for j in range(K.cols)]


def assert_transposed_contract(A, rng):
    At = A.transpose()
    T = smith_normal_form(A).transposed()
    assert T.U @ At @ T.V == T.D
    assert T.diagonal == smith_normal_form(At).diagonal
    for B in (rand_matrix(rng, At.rows, 2), At @ rand_matrix(rng, At.cols, 2)):
        X = back_substitute(T, B)
        assert (X is None) == (solve_integer(At, B) is None)
        assert X is None or At @ X == B
    K = T.kernel_columns()
    assert len(K) == At.cols - T.rank
    assert all(sum(a * x for a, x in zip(row, k)) == 0 for k in K for row in At.entries)
    if K:
        # primitive: the columns span the whole integer kernel
        assert sympy_invariant_factors(IntegerMatrix.from_rows(zip(*K))) == [1] * len(K)


class TestTransposedDecomposition:
    def test_random_matrices(self):
        rng = random.Random(43)
        for rows, cols in [(0, 0), (0, 3), (3, 0)] + [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(80)]:
            assert_transposed_contract(rand_matrix(rng, rows, cols), rng)

    def test_expanded_lens_boundaries(self):
        rng = random.Random(47)
        for n in range(2, 14):
            C = lens_complex(n)
            for i in range(1, 6):
                assert_transposed_contract(C.integer_matrix(i), rng)


class TestHomologyPair:
    def test_cyclic(self):
        inc = IntegerMatrix.from_rows([[7]])
        out = IntegerMatrix.from_rows([[0]])
        assert homology_pair(inc, out) == AbelianGroupInfo(0, (7,))

    def test_free(self):
        inc = IntegerMatrix.from_rows([[0]])
        out = IntegerMatrix.from_rows([[0]])
        assert homology_pair(inc, out) == AbelianGroupInfo(1, ())

    def test_lens_degree_one(self):
        # trivial-coefficient lens complex at degree 1: incoming x n, outgoing x 0
        for n in (2, 5, 9):
            inc = IntegerMatrix.from_rows([[n]])
            out = IntegerMatrix.from_rows([[0]])
            assert homology_pair(inc, out) == AbelianGroupInfo(0, (n,))

    def test_six_term_integer_complex(self):
        # maps (0, n, 0, n, 0) from degree 5 to 0 give (Z, Z/n, 0, Z/n, 0, Z)
        n = 6
        maps = {5: 0, 4: n, 3: 0, 2: n, 1: 0}  # maps[i]: degree i -> i-1
        expected = {
            0: AbelianGroupInfo.free(1),
            1: AbelianGroupInfo(0, (n,)),
            2: AbelianGroupInfo(0, ()),
            3: AbelianGroupInfo(0, (n,)),
            4: AbelianGroupInfo(0, ()),
            5: AbelianGroupInfo.free(1),
        }
        for d in range(6):
            inc = (
                IntegerMatrix.from_rows([[maps[d + 1]]])
                if d < 5
                else IntegerMatrix(1, 0, ((),))
            )
            out = IntegerMatrix.from_rows([[maps[d]]]) if d > 0 else IntegerMatrix(0, 1, ())
            assert homology_pair(inc, out) == expected[d]

    def test_rejects_nonzero_composition(self):
        with pytest.raises(ValueError):
            homology_pair(IntegerMatrix.from_rows([[1]]), IntegerMatrix.from_rows([[1]]))

    def test_against_oracle_random(self):
        rng = random.Random(41)
        checked = 0
        while checked < 120:
            m = rng.randint(1, 5)
            k = rng.randint(0, 4)
            l = rng.randint(0, 4)
            out = rand_matrix(rng, l, m, 3)
            K = kernel_basis(out)
            if K.cols == 0:
                inc = IntegerMatrix.zeros(m, k)
            else:
                coeffs = rand_matrix(rng, K.cols, k, 2)
                inc = K @ coeffs
            assert (out @ inc).is_zero
            assert homology_pair(inc, out) == oracle_group_info(inc, out)
            checked += 1


class TestAbelianGroupInfo:
    def test_canonical_form_enforced(self):
        with pytest.raises(ValueError):
            AbelianGroupInfo(0, (4, 2))  # not a divisibility chain
        with pytest.raises(ValueError):
            AbelianGroupInfo(0, (1,))

    def test_str(self):
        assert str(AbelianGroupInfo(0, ())) == "0"
        assert str(AbelianGroupInfo(1, ())) == "Z"
        assert str(AbelianGroupInfo(2, (2, 6))) == "Z^2 + Z/2 + Z/6"
