import random
from functools import partial

import pytest

from conftest import integer_identity, make_quaternion8, make_sym3, rational_rank, scalar_matrix
from zgdual.group_core import GroupRingElement, cyclic_group, gr_mul, norm_element
from zgdual.gr_linalg import (
    GRMatrix,
    invert_gr_matrix,
    solve_gr_linear,
)
from zgdual.int_linalg import IntegerMatrix, smith_normal_form


def tpow(G, e):
    return GroupRingElement.basis(G, e % G.order)


def poly(G, *terms):
    acc = GroupRingElement.zero(G)
    for coeff, e in terms:
        acc = acc + tpow(G, e).scale(coeff)
    return acc


def rand_element(rng, G, bound=3):
    return GroupRingElement(G, tuple(rng.randint(-bound, bound) for _ in range(G.order)))


def rand_gr_matrix(rng, G, rows, cols, bound=2):
    return GRMatrix(
        G,
        rows,
        cols,
        tuple(tuple(rand_element(rng, G, bound) for _ in range(cols)) for _ in range(rows)),
    )


def rand_sparse_gr_matrix(rng, G, rows, cols):
    """Entries zero with probability 1/2, the rest with mostly zero terms."""
    def entry():
        if rng.random() < 0.5:
            return GroupRingElement.zero(G)
        return GroupRingElement(
            G, tuple(rng.randint(-3, 3) if rng.random() < 0.3 else 0 for _ in range(G.order))
        )

    return GRMatrix(G, rows, cols, tuple(tuple(entry() for _ in range(cols)) for _ in range(rows)))


def triple_loop_matmul(A, B):
    """Reference product: every (i, k, j) triple, summed through gr_mul."""
    z = GroupRingElement.zero(A.group)
    grid = []
    for i in range(A.rows):
        out = []
        for j in range(B.cols):
            acc = z
            for k in range(A.cols):
                a, b = A.entries[i][k], B.entries[k][j]
                if not (a.is_zero or b.is_zero):
                    acc = acc + gr_mul(a, b)
            out.append(acc)
        grid.append(tuple(out))
    return GRMatrix(A.group, A.rows, B.cols, tuple(grid))


class TestCompose:
    def test_lens_composition_vanishes(self):
        G = cyclic_group(5)
        A = GRMatrix.one_by_one(poly(G, (1, 0), (-1, 1)))
        B = GRMatrix.one_by_one(norm_element(G))
        assert (A @ B).is_zero

    def test_identity(self):
        rng = random.Random(5)
        G = cyclic_group(4)
        B = rand_gr_matrix(rng, G, 2, 3)
        assert GRMatrix.identity(G, 2) @ B == B

    def test_alpha_times_x(self):
        # 1x1 composition [alpha][x] == [beta - 1] with x found by the solver
        G = cyclic_group(5)
        alpha = poly(G, (1, 2), (1, 1), (-1, 4), (-1, 3))
        beta = poly(G, (1, 0), (1, 1), (-1, 3))
        rhs = GRMatrix.one_by_one(beta - GroupRingElement.one(G))
        x = solve_gr_linear(GRMatrix.one_by_one(alpha), rhs)
        assert x is not None
        assert GRMatrix.one_by_one(alpha) @ x == rhs

    def test_shape_mismatch(self):
        G = cyclic_group(3)
        with pytest.raises(ValueError, match="cannot compose 2x2 with 3x3"):
            GRMatrix.identity(G, 2) @ GRMatrix.identity(G, 3)

    def test_group_mismatch(self):
        with pytest.raises(ValueError, match="matrices over different group rings"):
            GRMatrix.identity(cyclic_group(2), 1) @ GRMatrix.identity(cyclic_group(3), 1)

    def test_sparse_product_equals_the_triple_loop(self):
        rng = random.Random(17)
        for G in (make_sym3(), make_quaternion8(), cyclic_group(6), cyclic_group(1)):
            for _ in range(40):
                m, k, n = (rng.randint(0, 3) for _ in range(3))
                A = rand_sparse_gr_matrix(rng, G, m, k)
                B = rand_sparse_gr_matrix(rng, G, k, n)
                assert A @ B == triple_loop_matmul(A, B)
            # entries whose products cancel come out zero
            x = rand_element(rng, G)
            A = GRMatrix.from_rows(G, [[x, x]])
            B = GRMatrix.from_rows(G, [[GroupRingElement.one(G)], [-GroupRingElement.one(G)]])
            assert (A @ B).is_zero



class TestDualMatrix:
    def test_one_minus_t(self):
        G = cyclic_group(7)
        A = GRMatrix.one_by_one(poly(G, (1, 0), (-1, 1)))
        assert A.dual() == GRMatrix.one_by_one(poly(G, (1, 0), (-1, -1)))

    def test_involution(self):
        rng = random.Random(43)
        for G in (cyclic_group(4), make_sym3()):
            for _ in range(40):
                A = rand_gr_matrix(rng, G, rng.randint(0, 3), rng.randint(0, 3))
                assert A.dual().dual() == A

    def test_contravariance_2x2_over_c4(self):
        rng = random.Random(47)
        G = cyclic_group(4)
        for _ in range(60):
            A = rand_gr_matrix(rng, G, 2, 2)
            B = rand_gr_matrix(rng, G, 2, 2)
            assert (A @ B).dual() == B.dual() @ A.dual()

    def test_transpose_shape(self):
        G = cyclic_group(3)
        A = GRMatrix.zeros(G, 2, 5)
        assert A.dual().rows == 5 and A.dual().cols == 2


class TestExpandRegular:
    def test_identity_over_c3(self):
        G = cyclic_group(3)
        assert GRMatrix.identity(G, 1).expand() == integer_identity(3)

    def test_norm_is_all_ones(self):
        for n in (2, 4, 6):
            G = cyclic_group(n)
            E = GRMatrix.one_by_one(norm_element(G)).expand()
            assert E == IntegerMatrix.from_rows([[1] * n] * n)
            assert smith_normal_form(E).rank == 1
            assert rational_rank(E) == 1

    def test_one_minus_t_circulant_rank(self):
        for n in (2, 3, 5, 8):
            G = cyclic_group(n)
            E = GRMatrix.one_by_one(poly(G, (1, 0), (-1, 1))).expand()
            assert smith_normal_form(E).rank == n - 1
            assert rational_rank(E) == n - 1
            # kernel is spanned by the all-ones vector
            ones = IntegerMatrix.from_rows([[1]] * n)
            assert (E @ ones).is_zero

    def test_ring_homomorphism(self):
        rng = random.Random(53)
        for G in (cyclic_group(5), make_sym3()):
            for _ in range(40):
                A = rand_gr_matrix(rng, G, 2, 2)
                B = rand_gr_matrix(rng, G, 2, 2)
                assert (A @ B).expand() == A.expand() @ B.expand()

    def test_blocks_follow_the_documented_convention(self, groups):
        # block[a][b] == coefficient of g_a * g_b^{-1}, the trivial group included
        rng = random.Random(41)
        for G in groups:
            A = rand_gr_matrix(rng, G, 2, 3)
            E = A.expand()
            assert (E.rows, E.cols) == (2 * G.order, 3 * G.order)
            for i in range(2):
                for j in range(3):
                    for a in range(G.order):
                        for b in range(G.order):
                            g = G.mul_table[a][G.inv_table[b]]
                            assert E.entries[i * G.order + a][j * G.order + b] == A.entries[i][j].coeffs[g]

    def test_expand_dual_is_transpose(self):
        # the chosen block convention makes this exact with no reindexing
        rng = random.Random(59)
        for G in (cyclic_group(3), cyclic_group(4), make_sym3()):
            for _ in range(60):
                A = rand_gr_matrix(rng, G, 1, 1)
                assert A.dual().expand() == A.expand().transpose()

    def test_rank_invariant_under_units(self):
        # left/right multiplication by +-t^i diagonal units preserves Z-rank
        rng = random.Random(61)
        G = cyclic_group(6)
        for _ in range(30):
            A = rand_gr_matrix(rng, G, 2, 3)
            r = smith_normal_form(A.expand()).rank
            u = scalar_matrix(tpow(G, rng.randrange(6)).scale(rng.choice((1, -1))), 2)
            v = scalar_matrix(tpow(G, rng.randrange(6)).scale(rng.choice((1, -1))), 3)
            assert smith_normal_form((u @ A @ v).expand()).rank == r


class TestAugmentMatrix:
    def test_examples(self):
        G = cyclic_group(5)
        assert GRMatrix.one_by_one(poly(G, (1, 0), (-1, 1))).augmented() == IntegerMatrix.from_rows([[0]])
        assert GRMatrix.one_by_one(norm_element(G)).augmented() == IntegerMatrix.from_rows([[5]])

    def test_homomorphism(self):
        rng = random.Random(67)
        G = cyclic_group(4)
        for _ in range(40):
            A = rand_gr_matrix(rng, G, 2, 3)
            B = rand_gr_matrix(rng, G, 3, 2)
            assert (A @ B).augmented() == A.augmented() @ B.augmented()


class TestSolveGrLinear:
    def test_beta_prime(self):
        # (1 - t^-1) beta' = alpha has a solution; beta itself is one
        G = cyclic_group(5)
        alpha = poly(G, (1, 2), (1, 1), (-1, 4), (-1, 3))
        beta = poly(G, (1, 0), (1, 1), (-1, 3))
        A = GRMatrix.one_by_one(poly(G, (1, 0), (-1, -1)))
        B = GRMatrix.one_by_one(alpha)
        X = solve_gr_linear(A, B)
        assert X is not None
        assert A @ X == B
        assert A @ GRMatrix.one_by_one(beta) == B

    def test_beta_inverse(self):
        G = cyclic_group(5)
        beta = poly(G, (1, 0), (1, 1), (-1, 3))
        inv = invert_gr_matrix(GRMatrix.one_by_one(beta))
        assert inv is not None
        assert GRMatrix.one_by_one(beta) @ inv == GRMatrix.identity(G, 1)
        assert inv @ GRMatrix.one_by_one(beta) == GRMatrix.identity(G, 1)

    @pytest.mark.parametrize(
        "name, make_group", [("C6", partial(cyclic_group, 6)), ("S3", make_sym3), ("Q8", make_quaternion8)]
    )
    def test_inverse_is_two_sided_on_units(self, name, make_group):
        # units built as products of signed group elements on the diagonal
        # and elementary matrices; invert_gr_matrix solves A X == I only,
        # and both identities are checked here as oracles
        G = make_group()
        rng = random.Random(f"units-{name}")
        one, z = GroupRingElement.one(G), GroupRingElement.zero(G)
        for _ in range(25):
            n = rng.randint(1, 3)
            A = GRMatrix.identity(G, n)
            for _ in range(rng.randint(1, 6)):
                i, j = rng.randrange(n), rng.randrange(n)
                if i == j:
                    e = GroupRingElement.basis(G, rng.randrange(G.order)).scale(rng.choice((-1, 1)))
                else:
                    e = rand_element(rng, G, 2)
                A = A @ GRMatrix.from_rows(
                    G, [[e if (r, c) == (i, j) else one if r == c else z for c in range(n)] for r in range(n)]
                )
            X = invert_gr_matrix(A)
            assert X is not None
            assert X @ A == GRMatrix.identity(G, n)
            assert A @ X == GRMatrix.identity(G, n)

    def test_norm_not_a_unit(self):
        G = cyclic_group(2)
        assert solve_gr_linear(GRMatrix.one_by_one(norm_element(G)), GRMatrix.identity(G, 1)) is None

    def test_solution_exactness_random(self):
        rng = random.Random(71)
        for G in (cyclic_group(4), make_sym3()):
            for _ in range(40):
                A = rand_gr_matrix(rng, G, 2, 2)
                X0 = rand_gr_matrix(rng, G, 2, 2)
                B = A @ X0
                X = solve_gr_linear(A, B)
                assert X is not None
                assert A @ X == B

    def test_shape_errors(self):
        G = cyclic_group(3)
        with pytest.raises(ValueError):
            solve_gr_linear(GRMatrix.identity(G, 2), GRMatrix.identity(G, 3))


class TestShape:
    @pytest.mark.parametrize("rows, cols", [(0, -1), (-1, 0), (-2, 3), (2, -3)])
    def test_negative_sizes_are_rejected(self, rows, cols):
        # with no rows, a negative column count still has an empty grid to match
        G = cyclic_group(2)
        grid = tuple(() for _ in range(max(rows, 0)))
        with pytest.raises(ValueError, match="declared shape"):
            GRMatrix(G, rows, cols, grid)

    def test_empty_shapes_are_accepted(self):
        G = cyclic_group(2)
        for rows, cols in [(0, 0), (0, 3), (3, 0)]:
            M = GRMatrix(G, rows, cols, tuple(() for _ in range(rows)))
            assert (M.expand().rows, M.expand().cols) == (2 * rows, 2 * cols)
