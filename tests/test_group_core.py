import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    KLEIN_TABLE,
    c70_loop_table,
    make_klein,
    make_sym3,
    reference_group_from_table,
    small_groups,
)
from zgdual.group_core import (
    GroupRingElement,
    GroupTableError,
    cyclic_group,
    gr_mul,
    group_from_table,
    norm_element,
)


def tpow(G, e):
    return GroupRingElement.basis(G, e % G.order)


def poly(G, *terms):
    acc = GroupRingElement.zero(G)
    for coeff, e in terms:
        acc = acc + tpow(G, e).scale(coeff)
    return acc


class TestCyclicGroup:
    def test_trivial(self):
        G = cyclic_group(1)
        assert G.order == 1
        assert G.inv_table == (0,)
        assert G.identity_index == 0

    def test_order_two(self):
        G = cyclic_group(2)
        assert G.mul_table == ((0, 1), (1, 0))
        assert G.inv_table == (0, 1)

    def test_order_five_inverses(self):
        G = cyclic_group(5)
        assert G.inv_table == (0, 4, 3, 2, 1)
        # brute-force the inverses straight from the table
        for i in range(5):
            j = next(j for j in range(5) if G.mul_table[i][j] == 0 and G.mul_table[j][i] == 0)
            assert G.inv_table[i] == j

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclic_group(0)


class TestGroupFromTable:
    def test_klein_four(self):
        G = make_klein()
        assert G.order == 4
        assert G.inv_table == (0, 1, 2, 3)  # every element self-inverse
        assert G.identity_index == 0
        # independent check of the table against componentwise xor on bits
        for i in range(4):
            for j in range(4):
                assert KLEIN_TABLE[i][j] == i ^ j

    def test_matches_cyclic_two(self):
        assert group_from_table([[0, 1], [1, 0]]) == cyclic_group(2)

    def test_cyclic_table_is_addition_mod_n(self):
        for n in range(1, 13):
            table = cyclic_group(n).mul_table
            assert table == tuple(tuple((i + j) % n for j in range(n)) for i in range(n))

    @pytest.mark.parametrize(
        "table, reason, message",
        [
            ([], "shape", "empty multiplication table"),
            ([[0, 1], [1]], "shape", "multiplication table is not square"),
            ([[0, 1], [1, -1]], "range", "row 1 contains an out-of-range index"),
            ([[0, 2], [1, 0]], "range", "row 0 contains an out-of-range index"),
            ([[0, 1, 2], [1, 2, 0], [2, 0, "1"]], "range", "row 2 contains an out-of-range index"),
            ([[0, 1], [None, 0]], "range", "row 1 contains an out-of-range index"),
            ([[0, 1.5], [1, 0]], "range", "row 0 contains an out-of-range index"),
            ([[0, 1.0], [1.0, 0]], "range", "row 0 contains an out-of-range index"),
            ([[False, True], [True, False]], "range", "row 0 contains an out-of-range index"),
            # C3 with True in place of the 1 that starts row 1
            ([[0, 1, 2], [True, 2, 0], [2, 0, 1]], "range", "row 1 contains an out-of-range index"),
            # every row is checked for range before any row for being a permutation
            ([[0, 0, 1], [1, 2, 0], [2, 0, 3]], "range", "row 2 contains an out-of-range index"),
        ],
        ids=[
            "empty", "ragged", "entry-minus-1", "entry-n", "string-entry", "None-entry",
            "entry-1.5", "integral-float-entry", "bool-entries", "one-bool-entry",
            "latin-row-0-then-range-row-2",
        ],
    )
    def test_shape_and_range_reasons(self, table, reason, message):
        with pytest.raises(GroupTableError) as err:
            group_from_table(table)
        assert err.value.reason == reason
        assert str(err.value) == message

    def test_not_latin_square(self):
        with pytest.raises(GroupTableError) as err:
            group_from_table([[0, 1], [1, 1]])
        assert err.value.reason == "latin"
        assert str(err.value) == "row 1 is not a permutation (not a Latin square)"

    def test_rows_are_permutations_but_a_column_is_not(self):
        with pytest.raises(GroupTableError) as err:
            group_from_table([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
        assert err.value.reason == "latin"
        assert str(err.value) == "column 1 is not a permutation (not a Latin square)"

    def test_order_one(self):
        G = group_from_table([[0]])
        assert G == cyclic_group(1)
        assert (G.inv_table, G.identity_index, G.is_cyclic) == ((0,), 0, True)

    def test_missing_identity(self):
        # Latin square whose only left identity is not a right identity
        with pytest.raises(GroupTableError) as err:
            group_from_table([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
        assert err.value.reason == "identity"

    def test_missing_two_sided_inverse(self):
        loop = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
        with pytest.raises(GroupTableError) as err:
            group_from_table(loop)
        assert err.value.reason == "inverse"

    def test_nonassociative_loop(self):
        loop = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(GroupTableError) as err:
            group_from_table(loop)
        assert err.value.reason == "associativity"

    def test_associativity_verdict_matches_brute_force(self, groups):
        # relabel each small group and switch one random intercalate: Light's
        # test over a generating set must agree with the O(N^3) scan
        rng = random.Random(23)
        verdicts = []
        for G in groups:
            n = G.order
            for _ in range(6):
                perm = rng.sample(range(n), n)
                t = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(n):
                        t[perm[i]][perm[j]] = perm[G.mul_table[i][j]]
                quads = [
                    (r1, r2, c1, c2)
                    for r1 in range(n) for r2 in range(r1 + 1, n)
                    for c1 in range(n) for c2 in range(c1 + 1, n)
                    if t[r1][c1] == t[r2][c2] and t[r1][c2] == t[r2][c1]
                ]
                if quads:
                    r1, r2, c1, c2 = rng.choice(quads)
                    t[r1][c1], t[r1][c2] = t[r1][c2], t[r1][c1]
                    t[r2][c1], t[r2][c2] = t[r2][c2], t[r2][c1]
                associative = all(
                    t[t[a][b]][c] == t[a][t[b][c]]
                    for a in range(n) for b in range(n) for c in range(n)
                )
                try:
                    group_from_table(t)
                    reason = None
                except GroupTableError as err:
                    reason = err.reason
                if reason in ("identity", "inverse"):
                    continue
                assert (reason == "associativity") == (not associative)
                verdicts.append(associative)
        assert True in verdicts and False in verdicts

    def test_non_square(self):
        with pytest.raises(GroupTableError) as err:
            group_from_table([[0, 1]])
        assert err.value.reason == "shape"

    def test_associativity_checked_at_order_70(self):
        loop = c70_loop_table()
        n = len(loop)
        # brute force: the switched intercalate breaks associativity
        assert any(
            loop[loop[a][b]][c] != loop[a][loop[b][c]]
            for a in range(n) for b in range(n) for c in range(n)
        )
        with pytest.raises(GroupTableError) as err:
            group_from_table(loop)
        assert err.value.reason == "associativity"
        assert str(err.value) == "associativity fails at (1,1,2)"
        assert group_from_table(cyclic_group(70).mul_table) == cyclic_group(70)


def _outcome(validate, table):
    """The group validate builds from table, field by field, or the type,
    reason and message of what it raises."""
    try:
        G = validate(table)
    except Exception as exc:
        return type(exc), getattr(exc, "reason", None), str(exc)
    return G.order, G.mul_table, G.inv_table, G.identity_index, G.is_cyclic


def _latin_square(draw, n):
    """A Latin square of order n, built row by row: each row matches the
    columns to symbols they do not hold yet, which is possible by Hall's
    theorem, by augmenting paths that try the symbols in a drawn order."""
    t = []
    for _ in range(n):
        free = [set(range(n)) - {row[j] for row in t} for j in range(n)]
        rank = draw(st.permutations(range(n)))
        column_of = {}

        def augment(j, seen):
            for v in sorted(free[j] - seen, key=rank.index):
                seen.add(v)
                if v not in column_of or augment(column_of[v], seen):
                    column_of[v] = j
                    return True
            return False

        for j in range(n):
            augment(j, set())
        row = [0] * n
        for v, j in column_of.items():
            row[j] = v
        t.append(row)
    return t


@st.composite
def _tables(draw):
    """A fixture group's table relabelled, perhaps with one intercalate
    switched, or a Latin square of order 2-7, perhaps made a loop or given
    a left identity only; then at most two entries changed."""
    shape = draw(st.sampled_from(("group", "switched", "latin", "loop", "left identity")))
    if shape in ("group", "switched"):
        G = draw(st.sampled_from(small_groups()))
        n, m = G.order, G.mul_table
        p = draw(st.permutations(range(n)))
        t = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                t[p[i]][p[j]] = p[m[i][j]]
        e = p[G.identity_index]
        # off the identity's row, column and symbol: a loop with two-sided
        # inverses that is seldom associative
        quads = [
            (r1, r2, c1, c2)
            for r1 in range(n) for r2 in range(r1 + 1, n)
            for c1 in range(n) for c2 in range(c1 + 1, n)
            if t[r1][c1] == t[r2][c2] != e and t[r1][c2] == t[r2][c1] != e and e not in (r1, r2, c1, c2)
        ]
        if shape == "switched" and quads:
            r1, r2, c1, c2 = draw(st.sampled_from(quads))
            t[r1][c1], t[r1][c2] = t[r1][c2], t[r1][c1]
            t[r2][c1], t[r2][c2] = t[r2][c2], t[r2][c1]
    else:
        n = draw(st.integers(2, 7))
        t = _latin_square(draw, n)
    if shape == "loop":
        # the principal isotope at (a, b): u v = t[row(u)][col(v)], where
        # t[row(u)][b] = u and t[a][col(v)] = v, has the identity t[a][b];
        # most loops of order 5 or more have no inverses or are not associative
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        row = {t[i][b]: i for i in range(n)}
        col = {t[a][j]: j for j in range(n)}
        t = [[t[row[u]][col[v]] for v in range(n)] for u in range(n)]
    if shape == "left identity":
        # symbols renamed so that row a reads 0, 1, ..., n-1
        a = draw(st.integers(0, n - 1))
        name = {v: j for j, v in enumerate(t[a])}
        t = [[name[v] for v in row] for row in t]
    for _ in range(draw(st.integers(0, 2))):
        change = draw(st.sampled_from(("in range", "out of range", "bool", "float", "list", "string")))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if change == "bool":
            # False and True equal 0 and 1, so only the type check tells them apart
            b = draw(st.integers(0, min(n - 1, 1)))
            j = t[i].index(b) if b in t[i] else j
        v = t[i][j]
        if type(v) is int:
            t[i][j] = {
                "in range": draw(st.integers(0, n - 1)),
                "out of range": draw(st.sampled_from((-1, n, n + 7))),
                "bool": bool(v),
                "float": float(v),
                "list": [v],
                "string": str(v),
            }[change]
    return t


class TestOrderedReference:
    """group_from_table accepts by the group axioms alone and runs the Latin
    checks only on a rejected table; it must still agree with the ordered
    validator on every group, reason and message."""

    @settings(max_examples=400, deadline=None)
    @given(_tables())
    # row 0 is out of range before the list in row 2 is reached, and the other way round
    @example([[0, 5, 2], [1, 2, 0], [2, [0], 1]])
    @example([[0, [1], 2], [1, 2, 0], [2, 0, 5]])
    # a Latin failure in row 0 comes after the range check of every row
    @example([[0, 0, 2], [1, 2, 0], [2, [0], 1]])
    # 1.0 is in range by value, so only the type check of row 0 comes before the list
    @example([[0, 1.0, 2], [1, 2, 0], [2, [0], 1]])
    def test_matches_the_ordered_validator(self, table):
        assert _outcome(group_from_table, table) == _outcome(reference_group_from_table, table)


class TestGroupEquality:
    def test_equal_groups_hash_equal(self):
        a, b = cyclic_group(5), cyclic_group(5)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a == a

    def test_is_cyclic_stays_out_of_equality_and_hash(self):
        a = cyclic_group(5)
        b = replace(a, is_cyclic=False)
        assert a == b and hash(a) == hash(b)

    def test_relabelled_table_is_not_equal(self):
        a = cyclic_group(5)
        # swapping the labels 1 and 2 is no automorphism of C5, so the table changes
        perm = [0, 2, 1, 3, 4]
        table = [[0] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(5):
                table[perm[i]][perm[j]] = perm[(i + j) % 5]
        b = group_from_table(table)
        assert a != b and not (a == b)
        assert a != "not a group"

    def test_cyclic_groups_compare_by_order(self):
        standard = group_from_table([[(i + j) % 6 for j in range(6)] for i in range(6)])
        assert standard.is_cyclic
        assert cyclic_group(6) == standard and standard == cyclic_group(6)
        assert cyclic_group(5) != cyclic_group(6)


class TestGroupRingMultiplication:
    def test_norm_annihilates_one_minus_t(self):
        G = cyclic_group(5)
        assert (poly(G, (1, 0), (-1, 1)) * norm_element(G)).is_zero

    def test_beta_times_one_minus_tinv(self):
        # (1 + t - t^3)(1 - t^4) = t + t^2 - t^3 - t^4 in Z[C5]
        G = cyclic_group(5)
        lhs = poly(G, (1, 0), (1, 1), (-1, 3)) * poly(G, (1, 0), (-1, 4))
        assert lhs == poly(G, (1, 1), (1, 2), (-1, 3), (-1, 4))

    def test_t_squared_minus_one_times_even_powers(self):
        # (t^2 - 1)(1 + t^2 + t^4) = t - 1 in Z[C5]
        G = cyclic_group(5)
        lhs = poly(G, (1, 2), (-1, 0)) * poly(G, (1, 0), (1, 2), (1, 4))
        assert lhs == poly(G, (1, 1), (-1, 0))

    def test_group_mismatch(self):
        with pytest.raises(ValueError):
            gr_mul(GroupRingElement.one(cyclic_group(3)), GroupRingElement.one(cyclic_group(4)))

    def test_associativity_and_distributivity_random(self, groups):
        rng = random.Random(7)
        for _ in range(200):
            G = rng.choice(groups)
            a, b, c = (
                GroupRingElement(G, tuple(rng.randint(-3, 3) for _ in range(G.order)))
                for _ in range(3)
            )
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


class TestInvolution:
    def test_involute_one_minus_t(self):
        for n in (2, 3, 5, 8):
            G = cyclic_group(n)
            assert poly(G, (1, 0), (-1, 1)).involute() == poly(G, (1, 0), (-1, -1))

    def test_involute_norm(self, groups):
        for G in groups:
            assert norm_element(G).involute() == norm_element(G)

    def test_involution_squared(self, groups):
        rng = random.Random(11)
        for _ in range(200):
            G = rng.choice(groups)
            a = GroupRingElement(G, tuple(rng.randint(-4, 4) for _ in range(G.order)))
            assert a.involute().involute() == a

    def test_anti_automorphism(self, groups):
        rng = random.Random(13)
        for _ in range(200):
            G = rng.choice(groups)
            a = GroupRingElement(G, tuple(rng.randint(-3, 3) for _ in range(G.order)))
            b = GroupRingElement(G, tuple(rng.randint(-3, 3) for _ in range(G.order)))
            assert (a * b).involute() == b.involute() * a.involute()


class TestAugmentation:
    def test_norm(self):
        for n in (1, 2, 7):
            assert norm_element(cyclic_group(n)).augmentation() == n

    def test_one_minus_t(self):
        assert poly(cyclic_group(6), (1, 0), (-1, 1)).augmentation() == 0

    def test_proposition_beta(self):
        # beta has 2k positive and 2k-1 negative terms, so augmentation 1
        for k in range(1, 7):
            n = 4 * k + 1
            G = cyclic_group(n)
            beta = poly(G, *[(1, r) for r in range(-k + 1, k + 1)], *[(-1, r) for r in range(k + 2, 3 * k + 1)])
            assert beta.augmentation() == 1

    def test_ring_homomorphism(self, groups):
        rng = random.Random(17)
        for _ in range(200):
            G = rng.choice(groups)
            a = GroupRingElement(G, tuple(rng.randint(-3, 3) for _ in range(G.order)))
            b = GroupRingElement(G, tuple(rng.randint(-3, 3) for _ in range(G.order)))
            assert (a * b).augmentation() == a.augmentation() * b.augmentation()


class TestNormElement:
    def test_c3(self):
        assert norm_element(cyclic_group(3)) == poly(cyclic_group(3), (1, 0), (1, 1), (1, 2))

    def test_trivial_group(self):
        assert norm_element(cyclic_group(1)) == GroupRingElement.one(cyclic_group(1))

    def test_absorbs_everything(self, groups):
        rng = random.Random(19)
        for _ in range(150):
            G = rng.choice(groups)
            x = GroupRingElement(G, tuple(rng.randint(-3, 3) for _ in range(G.order)))
            sigma = norm_element(G)
            assert sigma * x == sigma.scale(x.augmentation())
            assert x * sigma == sigma.scale(x.augmentation())

    def test_central(self):
        G = make_sym3()
        sigma = norm_element(G)
        for i in range(G.order):
            g = GroupRingElement.basis(G, i)
            assert g * sigma == sigma * g


def test_nonabelian_involution_moves_coefficients():
    G = make_sym3()
    # pick a non-involutive element (a 3-cycle): its inverse differs
    i = next(i for i in range(G.order) if G.inv_table[i] != i)
    e = GroupRingElement.basis(G, i)
    assert e.involute() == GroupRingElement.basis(G, G.inv_table[i])


class TestCheckedCoefficients:
    @pytest.mark.parametrize("value", [0.5, 2.0, "1", Fraction(1, 2), None])
    def test_non_integer_coefficients_are_rejected(self, value):
        G = cyclic_group(3)
        with pytest.raises(TypeError):
            GroupRingElement(G, (value, 0, 0))
        with pytest.raises(TypeError):
            GroupRingElement.from_terms(G, [(value, 1)])

    def test_basis_checks_its_index_like_from_terms(self):
        G = cyclic_group(3)
        for index in (-1, G.order):
            with pytest.raises(ValueError, match=f"element index {index} out of range for order 3"):
                GroupRingElement.basis(G, index)
            with pytest.raises(ValueError, match=f"element index {index} out of range for order 3"):
                GroupRingElement.from_terms(G, [(1, index)])
        assert [GroupRingElement.basis(G, i).coeffs for i in range(3)] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    @pytest.mark.parametrize("index", [1.0, "1", None])
    def test_non_integer_indices_are_rejected(self, index):
        G = cyclic_group(3)
        with pytest.raises(TypeError):
            GroupRingElement.from_terms(G, [(1, index)])
        with pytest.raises(TypeError):
            GroupRingElement.basis(G, index)

    def test_integer_like_indices_are_stored_as_int(self):
        from sympy import Integer

        G = cyclic_group(3)
        for e in (
            GroupRingElement.from_terms(G, [(1, True), (2, Integer(2))]),
            GroupRingElement.basis(G, True) + GroupRingElement.basis(G, Integer(2)).scale(2),
        ):
            assert e.support == ((1, 1), (2, 2))
            assert all(type(i) is int for i, _ in e.support)
            assert e.terms() == [[1, 1], [2, 2]]

    def test_from_terms_rejects_a_float_that_sums_to_an_integer(self):
        with pytest.raises(TypeError):
            GroupRingElement.from_terms(cyclic_group(3), [(0.5, 1), (0.5, 1)])

    def test_scale_rejects_a_float(self):
        with pytest.raises(TypeError):
            GroupRingElement.one(cyclic_group(3)).scale(0.5)

    def test_integer_like_coefficients_are_stored_as_int(self):
        from sympy import Integer

        G = cyclic_group(3)
        for e in (
            GroupRingElement(G, [True, Integer(-2), False]),
            GroupRingElement.from_terms(G, [(True, 0), (Integer(-2), 1)]),
        ):
            assert e.coeffs == (1, -2, 0)
            assert all(type(a) is int for a in e.coeffs)
            assert e == poly(G, (1, 0), (-2, 1))

    def test_ring_operations_return_plain_int_tuples(self, groups):
        rng = random.Random(29)
        for G in groups:
            a, b = (GroupRingElement(G, tuple(rng.randint(-3, 3) for _ in range(G.order))) for _ in range(2))
            for e in (a + b, a - b, -a, a.scale(3), a.scale(-2), a.involute(), a * b, gr_mul(a, b)):
                assert e.group == G and type(e.coeffs) is tuple and len(e.coeffs) == G.order
                assert all(type(c) is int for c in e.coeffs)


class TestSparseElementsAgainstDenseVectors:
    """Each element stores its nonzero terms; every operation must agree
    with plain coefficient tuples, the representation it replaced."""

    @staticmethod
    def _vector(G, data):
        # mostly zeros, so that supports of every size occur
        coefficient = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))
        return data.draw(st.lists(coefficient, min_size=G.order, max_size=G.order).map(tuple))

    @staticmethod
    def _dense(e, G):
        """e's coefficient tuple, after checking that its support is the
        ascending nonzero terms of that tuple, in plain ints."""
        assert e.group == G
        c = e.coeffs
        assert type(c) is tuple and len(c) == G.order
        assert e.support == tuple((i, a) for i, a in enumerate(c) if a)
        assert all(type(i) is int and type(a) is int for i, a in e.support)
        return c

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_operations_match_coefficient_tuples(self, groups, data):
        G = data.draw(st.sampled_from(groups))
        N = G.order
        u = self._vector(G, data)
        v = u if data.draw(st.booleans()) else self._vector(G, data)
        k = data.draw(st.integers(-3, 3))
        a, b = GroupRingElement(G, u), GroupRingElement(G, v)
        product = [0] * N
        involute = [0] * N
        for i in range(N):
            involute[G.inv_table[i]] = u[i]
            for j in range(N):
                product[G.mul_table[i][j]] += u[i] * v[j]

        assert self._dense(a, G) == u
        assert self._dense(a + b, G) == tuple(x + y for x, y in zip(u, v))
        assert self._dense(a - b, G) == tuple(x - y for x, y in zip(u, v))
        assert self._dense(-a, G) == tuple(-x for x in u)
        assert self._dense(a.scale(k), G) == tuple(k * x for x in u)
        assert self._dense(a.scale(0), G) == (0,) * N
        assert self._dense(a.involute(), G) == tuple(involute)
        assert self._dense(gr_mul(a, b), G) == tuple(product)
        assert a.augmentation() == sum(u)
        assert a.is_zero == (not any(u))
        assert (a == b) == (u == v)
        assert a.terms() == [[x, i] for i, x in enumerate(u) if x]
        # the same terms, shuffled, split and padded with zeros, build an equal element
        terms = [(0, i) for i in range(N)] + [t for i, x in enumerate(u) if x for t in ((x - 1, i), (1, i))]
        data.draw(st.randoms(use_true_random=False)).shuffle(terms)
        again = GroupRingElement.from_terms(G, terms)
        assert again == a and hash(again) == hash(a)
        assert hash(GroupRingElement(G, v)) == hash(b)

    def test_adding_sparse_elements_allocates_nothing_of_the_group_size(self):
        G = cyclic_group(1000)
        a = GroupRingElement.from_terms(G, [(1, 0), (-1, 1)])
        b = GroupRingElement.from_terms(G, [(1, 1), (3, 500)])
        tracemalloc.start()
        try:
            total = a + b
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert total.terms() == [[1, 0], [3, 500]]
        # a dense vector of 1000 coefficients alone takes 8 kB
        assert peak < 1000
