import copy
import gc
import os
import pickle
import random
import sys
import weakref
from contextlib import contextmanager
from functools import partial

import pytest

from conftest import (
    conjugation,
    expansion,
    identity_map,
    leading_block_maps,
    make_dihedral4,
    make_quaternion8,
    make_sym3,
    scalar_diagonal_map,
    scalar_matrix,
    sym3_presentation,
    twisted_lens,
    twisted_sym3_duality,
    twisted_sym3_presentation,
)
from zgdual import complexes, dual_form
from zgdual.complexes import (
    ChainComplex,
    ChainHomotopy,
    ChainMap,
    commuting_squares,
    compose_maps,
    dualize_complex,
    euler_characteristic,
    five_complex_report,
    homology,
    is_chain_map,
    validate_complex,
    verify_homotopy,
)
from zgdual.dual_form import (
    ChainIsoPair,
    assemble_dual_form,
    dual_form_mismatch_reasons,
    dual_head_segment,
    is_anti_self_dual,
    normalize_duality,
    obstruction_check,
    recognize_dual_form,
    solve_chain_isomorphism,
    tail_segment,
    to_dual_form_stage6,
)
from zgdual.group_core import GroupRingElement, cyclic_group, norm_element
from zgdual.gr_linalg import GRMatrix, invert_gr_matrix
from zgdual.int_linalg import IntegerMatrix
from zgdual.lens import lens_asd_transform, lens_complex, lens_duality_map
from zgdual.serialize import complex_from_json, complex_to_json

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def tpow(G, e):
    return GroupRingElement.basis(G, e % G.order)


def poly(G, *terms):
    acc = GroupRingElement.zero(G)
    for coeff, e in terms:
        acc = acc + tpow(G, e).scale(coeff)
    return acc


def grid(G, rows):
    return GRMatrix.from_rows(G, [[c for c in row] for row in rows])


def stage6_segments(C):
    """The tail and the dual head of the stage-6 complex of C."""
    pipe = to_dual_form_stage6(C)
    return tail_segment(pipe.complex), dual_head_segment(pipe.complex)


def identity_triple(segment):
    return tuple(GRMatrix.identity(segment.group, r) for r in segment.ranks)


def assert_mutual_chain_isomorphism(tail, head, iso):
    """h: tail -> head and k: head -> tail are chain maps, inverse degreewise."""
    G = tail.group
    for i in (1, 2):
        assert head.boundary(i) @ iso.h[i] == iso.h[i - 1] @ tail.boundary(i)
        assert tail.boundary(i) @ iso.k[i] == iso.k[i - 1] @ head.boundary(i)
    for h, k in zip(iso.h, iso.k):
        assert k @ h == GRMatrix.identity(G, h.cols)
        assert h @ k == GRMatrix.identity(G, h.rows)


@contextmanager
def searching_without_products(monkeypatch):
    """Inside the block GRMatrix @ and _is_chain_iso raise: the search
    decides its trials with no Z[G] product and certifies no pair itself."""

    def no_product(*args):
        raise AssertionError("the search multiplied a Z[G] matrix or certified a pair")

    with monkeypatch.context() as patch:
        patch.setattr(GRMatrix, "__matmul__", no_product)
        patch.setattr(dual_form, "_is_chain_iso", no_product)
        yield


def perturbed(phi, rng):
    """phi + d S + S D for a seeded sparse S, D and d the boundaries of
    phi's source and target: a chain map homotopic to phi through S, drawn
    again until it moves an end component, so that normalizing it from a
    phi with +-1 ends needs a nonzero lift.  Returns the map and S."""
    src, tgt = phi.source, phi.target
    G = src.group
    T = src.top_degree

    def entry():
        if rng.random() < 0.5:
            return GroupRingElement.zero(G)
        terms = [(rng.choice((-2, -1, 1, 2)), rng.randrange(G.order)) for _ in range(rng.randint(1, 3))]
        return GroupRingElement.from_terms(G, terms)

    while True:
        S = tuple(
            GRMatrix.from_rows(G, [[entry() for _ in range(src.ranks[i])] for _ in range(tgt.ranks[i + 1])])
            for i in range(T)
        )
        comps = []
        for i, c in enumerate(phi.components):
            if i < T:
                c = c + tgt.boundary(i + 1) @ S[i]
            if i > 0:
                c = c + S[i - 1] @ src.boundary(i)
            comps.append(c)
        if comps[0] != phi.components[0] or comps[T] != phi.components[T]:
            return ChainMap(src, tgt, tuple(comps)), S


class TestSimpleMove:
    """The pipeline's moves, one expansion at a time (conftest.expansion)."""

    def test_expand_lens_at_zero(self):
        A = lens_complex(5)
        G = A.group
        E, _, _ = expansion(A, 0, 1)
        assert E.ranks == (2, 2, 1, 1, 1, 1)
        one = GroupRingElement.one(G)
        z = GroupRingElement.zero(G)
        assert E.boundary(1) == grid(G, [[poly(G, (1, 0), (-1, 1)), z], [z, one]])
        assert E.boundary(2) == grid(G, [[norm_element(G)], [z]])

    def test_maps_are_chain_maps_and_compose_to_identity(self):
        A = lens_complex(3)
        _, inclusion, projection = expansion(A, 2, 1)
        assert is_chain_map(inclusion).is_chain_map
        assert is_chain_map(projection).is_chain_map
        roundtrip = compose_maps(projection, inclusion)
        assert roundtrip.components == identity_map(A).components

    def test_homology_invariant_under_expand(self):
        A = lens_complex(5)
        for pos in (0, 2, 4):
            E, _, _ = expansion(A, pos, 2)
            for coeff in ("integral", "trivial"):
                for d in range(6):
                    assert homology(E, d, coeff) == homology(A, d, coeff)


def c3_with_a_rank_zero_module():
    """Over C3, ranks (1, 0, 1) with zero maps."""
    G = cyclic_group(3)
    return ChainComplex(G, (1, 0, 1), (GRMatrix.zeros(G, 1, 0), GRMatrix.zeros(G, 0, 1)))


ZERO_RANK_CASES = [partial(lens_complex, 4), c3_with_a_rank_zero_module]


class TestZeroRankSummands:
    @pytest.mark.parametrize("make", ZERO_RANK_CASES)
    def test_rank_zero_move_is_the_identity(self, make):
        C = make()
        for pos in range(C.top_degree):
            E, inclusion, projection = expansion(C, pos, 0)
            assert E == C
            assert inclusion == projection == identity_map(C)

    @pytest.mark.parametrize("make", ZERO_RANK_CASES)
    @pytest.mark.parametrize("rank", [1, 2])
    def test_expand_then_collapse_returns_the_input(self, make, rank):
        # collapsing is the projection onto the leading blocks: it restricts
        # every boundary of the expansion back to the input's
        C = make()
        for pos in range(C.top_degree):
            E, inclusion, projection = expansion(C, pos, rank)
            assert validate_complex(E).ok
            for k in range(1, C.top_degree + 1):
                restricted = projection.components[k - 1] @ E.boundary(k) @ inclusion.components[k]
                assert restricted == C.boundary(k)

    def test_grids_next_to_the_rank_zero_module(self):
        C = c3_with_a_rank_zero_module()
        G = C.group
        one, z = GroupRingElement.one(G), GroupRingElement.zero(G)
        E, _, _ = expansion(C, 0, 2)
        assert E.ranks == (3, 2, 1)
        assert E.boundary(1) == grid(G, [[z, z], [one, z], [z, one]])
        assert E.boundary(2) == grid(G, [[z], [z]])
        E, _, _ = expansion(C, 1, 2)
        assert E.ranks == (1, 2, 3)
        assert E.boundary(1) == grid(G, [[z, z]])
        assert E.boundary(2) == grid(G, [[z, one, z], [z, z, one]])


class TestStageSixPipeline:
    def test_lens_ranks_and_membership(self):
        A = lens_complex(5)
        pipe = to_dual_form_stage6(A)
        out = pipe.complex
        assert out.ranks == (2, 4, 6, 6, 4, 2)
        assert validate_complex(out).ok
        assert euler_characteristic(out) == 0
        assert five_complex_report(out).is_member
        assert pipe.moves == ((0, 1), (4, 1), (3, 2), (1, 2), (2, 3))

    def test_lens_blocks_match_displayed_matrices(self):
        # the five stage-6 differentials written out block by block
        A = lens_complex(5)
        G = A.group
        out = to_dual_form_stage6(A).complex
        one = GroupRingElement.one(G)
        z = GroupRingElement.zero(G)
        omt = poly(G, (1, 0), (-1, 1))  # 1 - t
        omti = poly(G, (1, 0), (-1, -1))  # 1 - t^-1
        sig = norm_element(G)
        assert out.boundary(1) == grid(G, [[omt, z, z, z], [z, one, z, z]])
        assert out.boundary(2) == grid(
            G,
            [
                [sig, z, z, z, z, z],
                [z, z, z, z, z, z],
                [z, one, z, z, z, z],
                [z, z, one, z, z, z],
            ],
        )
        assert out.boundary(3) == grid(
            G,
            [
                [omti, z, z, z, z, z],
                [z, z, z, z, z, z],
                [z, z, z, z, z, z],
                [z, z, z, one, z, z],
                [z, z, z, z, one, z],
                [z, z, z, z, z, one],
            ],
        )
        assert out.boundary(4) == grid(
            G,
            [
                [sig, z, z, z],
                [z, z, one, z],
                [z, z, z, one],
                [z, z, z, z],
                [z, z, z, z],
                [z, z, z, z],
            ],
        )
        assert out.boundary(5) == grid(G, [[omti, z], [z, one], [z, z], [z, z]])

    def test_invariance(self):
        for n in (3, 4):
            A = lens_complex(n)
            pipe = to_dual_form_stage6(A)
            for coeff in ("integral", "trivial"):
                for d in range(6):
                    assert homology(pipe.complex, d, coeff) == homology(A, d, coeff)
            forward, backward = leading_block_maps(A, pipe.complex)
            assert is_chain_map(forward).is_chain_map
            assert is_chain_map(backward).is_chain_map
            roundtrip = compose_maps(backward, forward)
            assert roundtrip.components == identity_map(A).components

    @pytest.mark.parametrize(
        "make",
        [partial(lens_complex, n) for n in range(2, 7)]
        + [partial(twisted_lens, n) for n in range(3, 7)]
        + [lambda: sym3_presentation()[0], twisted_sym3_presentation],
        ids=[f"L{n}" for n in range(2, 7)]
        + [f"twisted-L{n}" for n in range(3, 7)]
        + ["S3-presentation", "twisted-S3-presentation"],
    )
    def test_maps_are_the_composed_move_maps(self, make):
        # the pipeline's equivalences are its leading-block maps, as
        # to_dual_form_stage6 proves; the reference: the five expansions'
        # maps multiplied through
        C = make()
        pipe = to_dual_form_stage6(C)
        c = C.ranks
        plan = [(0, c[5]), (4, c[0]), (3, c[1] + c[5]), (1, c[4] + c[0]), (2, c[2] + c[4] + c[0])]
        current, forward, backward = C, identity_map(C), identity_map(C)
        for pos, rank in plan:
            current, inclusion, projection = expansion(current, pos, rank)
            forward = compose_maps(inclusion, forward)
            backward = compose_maps(backward, projection)
        assert pipe.complex == current
        assert pipe.moves == tuple(plan)
        leading_forward, leading_backward = leading_block_maps(C, pipe.complex)
        assert leading_forward == forward
        assert leading_backward == backward

    def test_requires_membership(self):
        G = cyclic_group(3)
        zero = GroupRingElement.zero(G)
        C = ChainComplex(G, (1,) * 6, tuple(GRMatrix.one_by_one(zero) for _ in range(5)))
        with pytest.raises(ValueError):
            to_dual_form_stage6(C)


class TestRecognition:
    def test_lens_recognized(self):
        for n in (2, 5, 9):
            view = recognize_dual_form(lens_complex(n))
            assert view is not None
            assert view.base.boundary(3) == GRMatrix.one_by_one(poly(cyclic_group(n), (1, 0), (-1, -1)))
            assert view.j_rank == n - 1
            assert view.form_rank == n - 1

    def test_asd_target_recognized(self):
        t = lens_asd_transform(5)
        view = recognize_dual_form(t.complex)
        assert view is not None
        assert view.base.boundary(3) == GRMatrix.one_by_one(t.alpha)

    def test_twisted_lens_not_recognized(self):
        C = twisted_lens(5)
        assert five_complex_report(C).is_member
        assert recognize_dual_form(C) is None
        reasons = dual_form_mismatch_reasons(C)
        assert any("boundary(5)" in r for r in reasons)

    def test_stage6_of_twisted_lens_not_recognized(self):
        # without the final conjugation step the mirrored shape need not hold
        pipe = to_dual_form_stage6(twisted_lens(5))
        assert recognize_dual_form(pipe.complex) is None
        assert dual_form_mismatch_reasons(pipe.complex)

    def test_stage6_of_dual_form_input_is_recognized(self):
        # a dual-form input keeps its mirror through the pipeline
        pipe = to_dual_form_stage6(lens_complex(5))
        assert recognize_dual_form(pipe.complex) is not None

    def test_form_rank_bounded_by_j_rank(self):
        views = [recognize_dual_form(lens_complex(n)) for n in range(2, 21)]
        views.append(recognize_dual_form(lens_asd_transform(9).complex))
        views.append(recognize_dual_form(to_dual_form_stage6(lens_complex(4)).complex))
        for v in views:
            assert v.form_rank <= v.j_rank

    def test_recognition_and_asd_reduce_nothing(self, monkeypatch):
        # the view reads j_rank and form_rank from the complex when asked
        def no_reduction(A):
            raise AssertionError("recognition and the ASD check reduce nothing")

        cases = [(lens_complex(n), False) for n in (2, 5, 9, 12)]
        cases += [(lens_asd_transform(n).complex, True) for n in (5, 9)]
        cases.append((to_dual_form_stage6(lens_complex(4)).complex, False))
        monkeypatch.setattr(complexes, "smith_normal_form", no_reduction)
        monkeypatch.setattr(dual_form, "smith_normal_form", no_reduction)
        views = [recognize_dual_form(C) for C, _ in cases]
        assert [is_anti_self_dual(v) for v in views] == [asd for _, asd in cases]
        assert recognize_dual_form(twisted_lens(5)) is None
        monkeypatch.undo()
        assert [v.j_rank for v in views[:4]] == [1, 4, 8, 11]


class TestPerStageInvariance:
    def test_every_move_preserves_everything(self):
        # each of the five expansion moves keeps d.d == 0, the Euler
        # characteristic, membership, and homology in both coefficient systems
        for n in (2, 9, 13):
            A = lens_complex(n)
            base = {
                (coeff, d): homology(A, d, coeff)
                for coeff in ("integral", "trivial")
                for d in range(6)
            }
            c = A.ranks
            plan = [(0, c[5]), (4, c[0]), (3, c[1] + c[5]), (1, c[4] + c[0]), (2, c[2] + c[4] + c[0])]
            current = A
            for pos, rank in plan:
                current, _, _ = expansion(current, pos, rank)
                assert validate_complex(current).ok
                assert euler_characteristic(current) == 0
                assert five_complex_report(current).is_member
                for (coeff, d), expected in base.items():
                    assert homology(current, d, coeff) == expected, (n, pos, coeff, d)


class TestDualizePreservesMembership:
    def test_lens_duals_are_members(self):
        from zgdual.complexes import dualize_complex as dc

        for n in (2, 5, 8):
            assert five_complex_report(dc(lens_complex(n))).is_member


class TestChainIsomorphismSolver:
    def test_identity_on_equal_segments(self):
        pipe = to_dual_form_stage6(lens_complex(5))
        tail = tail_segment(pipe.complex)
        head = dual_head_segment(pipe.complex)
        iso = solve_chain_isomorphism(tail, head)
        assert iso is not None
        G = pipe.complex.group
        assert iso.h == tuple(GRMatrix.identity(G, r) for r in tail.ranks)

    def test_unit_conjugated_segment(self):
        # conjugate the head by a recorded basis unit; the solver must still
        # find some isomorphism
        A = lens_complex(5)
        G = A.group
        tail, head = stage6_segments(A)

        def diag_u_1_1_1(u):
            rows = [list(row) for row in GRMatrix.identity(G, 4).entries]
            rows[0][0] = u
            return grid(G, rows)

        U = [GRMatrix.identity(G, r) for r in head.ranks]
        U[1] = diag_u_1_1_1(tpow(G, 2))
        U_inv = [GRMatrix.identity(G, r) for r in head.ranks]
        U_inv[1] = diag_u_1_1_1(tpow(G, -2))
        twisted_head = ChainComplex(
            G,
            head.ranks,
            (U_inv[0] @ head.boundary(1) @ U[1], U_inv[1] @ head.boundary(2) @ U[2]),
        )
        assert validate_complex(twisted_head).ok
        iso = solve_chain_isomorphism(tail, twisted_head, budget=48)
        assert iso is not None
        for i in (1, 2):
            assert twisted_head.boundary(i) @ iso.h[i] == iso.h[i - 1] @ tail.boundary(i)
        # decided by the second trial, the affine point id + x
        assert solve_chain_isomorphism(tail, twisted_head, budget=1) is None
        iso = solve_chain_isomorphism(tail, twisted_head, budget=2)
        assert iso is not None
        assert iso.h != identity_triple(tail)

    # The search tries the identity, then the affine point id + x, then the
    # Babai point nearest the identity; the lens family is decided by the
    # first trial and its unit twists by the second.

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_lens_identity_within_one_trial(self, n):
        tail, head = stage6_segments(lens_complex(n))
        iso = solve_chain_isomorphism(tail, head, budget=1)
        assert iso is not None
        assert iso.h == identity_triple(tail)

    def test_identity_trial_is_its_own_inverse(self, monkeypatch):
        def no_inversion(M):
            raise AssertionError("the identity trial inverts nothing")

        def no_product(A, B):
            raise AssertionError("the identity trial multiplies nothing")

        inputs = [lens_complex(n) for n in range(2, 7)] + [sym3_presentation()[0]]
        segments = [stage6_segments(C) for C in inputs]
        monkeypatch.setattr(dual_form, "invert_gr_matrix", no_inversion)
        monkeypatch.setattr(GRMatrix, "__matmul__", no_product)
        for tail, head in segments:
            iso = solve_chain_isomorphism(tail, head, budget=1)
            assert iso.h == iso.k == identity_triple(tail)

    @pytest.mark.parametrize("n", range(3, 12))
    def test_twisted_lens_needs_the_second_trial(self, n, monkeypatch):
        def no_lll(*args, **kwargs):
            raise AssertionError("the twisted lens search reached LLL")

        monkeypatch.setattr(dual_form, "lll_reduce", no_lll)
        tail, head = stage6_segments(twisted_lens(n))
        with searching_without_products(monkeypatch):
            assert solve_chain_isomorphism(tail, head, budget=1) is None
            iso = solve_chain_isomorphism(tail, head, budget=2)
        assert iso is not None
        assert iso.h != identity_triple(tail)
        assert_mutual_chain_isomorphism(tail, head, iso)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_identity_components_are_not_inverted(self, n, monkeypatch):
        # the affine point of twisted L(n) is the identity at degrees 1 and 2
        tail, head = stage6_segments(twisted_lens(n))
        inverted = []

        def recording(M):
            inverted.append(M)
            return invert_gr_matrix(M)

        monkeypatch.setattr(dual_form, "invert_gr_matrix", recording)
        iso = solve_chain_isomorphism(tail, head, budget=2)
        monkeypatch.undo()
        identities = identity_triple(tail)
        assert iso.h[1:] == identities[1:] and iso.h[0] != identities[0]
        assert inverted == [iso.h[0]]
        assert all(k == invert_gr_matrix(h) for h, k in zip(iso.h, iso.k))
        assert dual_form._is_chain_iso(tail, head, iso.h, iso.k)

    def test_twisted_sym3_presentation_needs_the_second_trial(self, monkeypatch):
        # a non-abelian input through identity, affine trial and assembly
        def no_lll(*args, **kwargs):
            raise AssertionError("the twisted S3 search reached LLL")

        monkeypatch.setattr(dual_form, "lll_reduce", no_lll)
        plain, _ = sym3_presentation()
        C = twisted_sym3_presentation()
        assert five_complex_report(C).is_member
        pipe = to_dual_form_stage6(C)
        tail, head = tail_segment(pipe.complex), dual_head_segment(pipe.complex)
        with searching_without_products(monkeypatch):
            assert solve_chain_isomorphism(tail, head, budget=1) is None
            iso = solve_chain_isomorphism(tail, head, budget=2)
        assert iso is not None
        assert_mutual_chain_isomorphism(tail, head, iso)

        assembled = assemble_dual_form(pipe.complex, iso)
        assert [homology(assembled.complex, d) for d in range(6)] == [homology(C, d) for d in range(6)]
        plain6 = to_dual_form_stage6(plain).complex
        plain_iso = solve_chain_isomorphism(tail_segment(plain6), dual_head_segment(plain6), budget=1)
        assert assembled.view.j_rank == assemble_dual_form(plain6, plain_iso).view.j_rank
        order = C.group.order
        assert assembled.view.j_rank % order == recognize_dual_form(plain).j_rank % order == order - 1

    @staticmethod
    def _elementary_head(row, col, unit):
        """L(3) stage-6 segments with the head's degree-1 basis changed by
        U1 = I + unit E_{row,col}: head d1 @ U1 and U1^-1 @ head d2."""
        tail, head = stage6_segments(lens_complex(3))
        G = head.group
        r = head.ranks[1]
        assert r == 4

        def elementary(e):
            return GRMatrix.identity(G, r) + GRMatrix.from_rows(
                G, [[e if (i, j) == (row, col) else GroupRingElement.zero(G) for j in range(r)]
                    for i in range(r)]
            )

        U1, U1_inv = elementary(unit), elementary(-unit)
        assert U1 @ U1_inv == GRMatrix.identity(G, r)
        moved = ChainComplex(G, head.ranks, (head.boundary(1) @ U1, U1_inv @ head.boundary(2)))
        assert validate_complex(moved).ok
        return tail, moved

    def test_affine_trial_finds_what_babai_misses(self, monkeypatch):
        # U1 = I - t^2 E_01: the affine point is an isomorphism, the Babai
        # point nearest the identity is not
        tail, head = self._elementary_head(0, 1, -tpow(lens_complex(3).group, 2))
        with searching_without_products(monkeypatch):
            assert solve_chain_isomorphism(tail, head, budget=1) is None
            iso = solve_chain_isomorphism(tail, head, budget=2)
        assert iso is not None
        assert_mutual_chain_isomorphism(tail, head, iso)

    def test_babai_fallback_finds_what_the_affine_trial_misses(self, monkeypatch):
        # U1 = I + t E_10: only the third trial, the Babai point, succeeds
        tail, head = self._elementary_head(1, 0, tpow(lens_complex(3).group, 1))
        with searching_without_products(monkeypatch):
            assert solve_chain_isomorphism(tail, head, budget=2) is None
            iso = solve_chain_isomorphism(tail, head, budget=3)
        assert iso is not None
        assert_mutual_chain_isomorphism(tail, head, iso)
        assert solve_chain_isomorphism(tail, head, budget=64).h == iso.h

    @pytest.mark.parametrize("make_group", [make_sym3, make_quaternion8, make_dihedral4])
    def test_constraints_give_the_chain_map_residual(self, make_group):
        # A @ vec(h) == vec(D h_deg - h_{deg-1} d) for any segments and any h
        G = make_group()
        rng = random.Random(G.order)

        def rand_matrix(rows, cols):
            return grid(G, [[GroupRingElement(G, tuple(rng.randint(-2, 2) for _ in range(G.order)))
                             for _ in range(cols)] for _ in range(rows)])

        def rand_segment(ranks):
            return ChainComplex(G, ranks, (rand_matrix(ranks[0], ranks[1]), rand_matrix(ranks[1], ranks[2])))

        for _ in range(4):
            a = rand_segment(tuple(rng.randint(1, 2) for _ in range(3)))
            b = rand_segment(tuple(rng.randint(1, 2) for _ in range(3)))
            A = dual_form._chain_map_constraints(a, b)
            for _ in range(3):
                h = [rand_matrix(b.ranks[i], a.ranks[i]) for i in range(3)]
                residual = [b.boundary(k) @ h[k] - h[k - 1] @ a.boundary(k) for k in (1, 2)]
                vec_h = IntegerMatrix.from_rows([[v] for v in dual_form._flatten(h)])
                assert A @ vec_h == IntegerMatrix.from_rows([[v] for v in dual_form._flatten(residual)])

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_is_an_error(self, budget):
        # None means a search ran and failed; a budget below 1 runs none
        tail, head = stage6_segments(lens_complex(3))
        with pytest.raises(ValueError, match=f"the search budget must be at least 1, got {budget}"):
            solve_chain_isomorphism(tail, head, budget=budget)

    def test_shape_mismatch(self):
        p5 = to_dual_form_stage6(lens_complex(5))
        p3 = to_dual_form_stage6(lens_complex(3))
        with pytest.raises(ValueError):
            solve_chain_isomorphism(tail_segment(p5.complex), dual_head_segment(p3.complex))


class TestAssembly:
    def test_identity_assembly_is_unchanged(self):
        pipe = to_dual_form_stage6(lens_complex(5))
        G = pipe.complex.group
        ident = tuple(GRMatrix.identity(G, r) for r in tail_segment(pipe.complex).ranks)
        iso = ChainIsoPair(h=ident, k=ident)
        asm = assemble_dual_form(pipe.complex, iso)
        assert asm.complex == pipe.complex
        assert asm.view is not None

    def test_twisted_lens_end_to_end(self):
        C = twisted_lens(5)
        pipe = to_dual_form_stage6(C)
        assert recognize_dual_form(pipe.complex) is None
        tail = tail_segment(pipe.complex)
        head = dual_head_segment(pipe.complex)
        iso = solve_chain_isomorphism(tail, head, budget=64)
        assert iso is not None, "solver should find an isomorphism for this instance"
        asm = assemble_dual_form(pipe.complex, iso)
        assert asm.view is not None
        assert is_chain_map(conjugation(pipe.complex, asm.complex, iso)).is_chain_map
        for d in range(6):
            assert homology(asm.complex, d, "integral") == homology(C, d, "integral")
            assert homology(asm.complex, d, "trivial") == homology(C, d, "trivial")

    def test_rejects_non_inverse_pair(self):
        pipe = to_dual_form_stage6(lens_complex(5))
        G = pipe.complex.group
        ranks = tail_segment(pipe.complex).ranks
        two = tuple(
            scalar_matrix(GroupRingElement.one(G).scale(2), r) for r in ranks
        )
        with pytest.raises(ValueError):
            assemble_dual_form(pipe.complex, ChainIsoPair(h=two, k=two))

    def test_rejects_an_invertible_pair_that_is_not_a_chain_map(self):
        # h = (1, diag(t, 1, 1, 1), 1) inverts degreewise but breaks the square at boundary(1)
        pipe = to_dual_form_stage6(lens_complex(5))
        G = pipe.complex.group
        tail, head = tail_segment(pipe.complex), dual_head_segment(pipe.complex)

        def diag_first(u):
            return GRMatrix.identity(G, 4) + GRMatrix.from_rows(
                G, [[u - GroupRingElement.one(G) if i == j == 0 else GroupRingElement.zero(G) for j in range(4)]
                    for i in range(4)]
            )

        h = (GRMatrix.identity(G, 2), diag_first(tpow(G, 1)), GRMatrix.identity(G, 6))
        k = (GRMatrix.identity(G, 2), diag_first(tpow(G, -1)), GRMatrix.identity(G, 6))
        assert all(k_i @ h_i == h_i @ k_i == GRMatrix.identity(G, h_i.rows) for h_i, k_i in zip(h, k))
        assert commuting_squares(tail, head, h, (1, 2)).failures == ("square at boundary(1) does not commute",)
        with pytest.raises(ValueError, match="not a pair of mutually inverse chain maps"):
            assemble_dual_form(pipe.complex, ChainIsoPair(h=h, k=k))

    @pytest.mark.parametrize("h_len, k_len", [(3, 2), (2, 2), (4, 3)])
    def test_iso_needs_three_components_per_side(self, h_len, k_len):
        pipe = to_dual_form_stage6(lens_complex(5))
        iso = solve_chain_isomorphism(tail_segment(pipe.complex), dual_head_segment(pipe.complex), budget=1)
        h, k = (iso.h + iso.h)[:h_len], (iso.k + iso.k)[:k_len]
        with pytest.raises(ValueError, match="not a pair of mutually inverse chain maps"):
            assemble_dual_form(pipe.complex, ChainIsoPair(h=h, k=k))

    @pytest.mark.parametrize("side", ["h", "k"])
    @pytest.mark.parametrize("shape", [(7, 7), (6, 7)], ids=["7x7", "6x7"])
    def test_iso_components_need_the_segment_shapes(self, side, shape, monkeypatch):
        # L(5)'s stage-6 segments have ranks (2, 4, 6): a third component of
        # any other shape is rejected before anything is multiplied
        pipe = to_dual_form_stage6(lens_complex(5))
        iso = solve_chain_isomorphism(tail_segment(pipe.complex), dual_head_segment(pipe.complex), budget=1)
        wrong = iso.h[:2] + (GRMatrix.zeros(pipe.complex.group, *shape),)
        pair = ChainIsoPair(h=wrong, k=iso.k) if side == "h" else ChainIsoPair(h=iso.h, k=wrong)

        def no_product(A, B):
            raise AssertionError("a wrong shape reached a product")

        monkeypatch.setattr(GRMatrix, "__matmul__", no_product)
        with pytest.raises(ValueError, match="not a pair of mutually inverse chain maps"):
            assemble_dual_form(pipe.complex, pair)

    @pytest.mark.parametrize("make", [partial(twisted_lens, n) for n in range(3, 12)] + [twisted_sym3_presentation])
    def test_conjugation_and_inverse_hold_as_oracles(self, make):
        # assemble_dual_form proves these instead of checking them at run time
        pipe = to_dual_form_stage6(make())
        tail, head = tail_segment(pipe.complex), dual_head_segment(pipe.complex)
        iso = solve_chain_isomorphism(tail, head, budget=2)
        asm = assemble_dual_form(pipe.complex, iso)
        assert is_chain_map(conjugation(pipe.complex, asm.complex, iso)).is_chain_map
        assert_mutual_chain_isomorphism(tail, head, iso)
        assert asm.view == recognize_dual_form(asm.complex)


class TestNormalizeDuality:
    def test_lens_fixed_point(self):
        # phi already has the normalized shape, so psi == phi and all lifts vanish
        A = lens_complex(7)
        view = recognize_dual_form(A)
        phi = lens_duality_map(7)
        nd = normalize_duality(view, phi)
        assert not nd.negated
        assert nd.homotopy.first.components == phi.components
        assert nd.theta1 == GRMatrix.identity(A.group, 1)
        assert nd.theta2 == GRMatrix.one_by_one(tpow(A.group, 1).scale(-1))
        assert all(h.is_zero for h in nd.homotopy.components)
        assert nd.theta1_aug_residue == 1
        assert nd.theta2_aug_residue == 7 - 1

    def test_globally_negated_input(self):
        A = lens_complex(5)
        view = recognize_dual_form(A)
        phi = lens_duality_map(5)
        neg = ChainMap(phi.source, phi.target, tuple(-c for c in phi.components))
        assert is_chain_map(neg).end_scalars == (-1, 1)
        nd = normalize_duality(view, neg)
        assert nd.negated
        assert nd.homotopy.first.components == phi.components
        # the homotopy ends at the negated input negated again
        assert nd.homotopy.second.components == phi.components
        assert verify_homotopy(nd.homotopy).ok

    def test_conjugated_duality_on_asd_target(self):
        # f phi f* on the anti-self-dual representative normalizes cleanly
        t = lens_asd_transform(5)
        view = recognize_dual_form(t.complex)
        conj = t.homotopy.first
        nd = normalize_duality(view, conj)
        assert verify_homotopy(nd.homotopy).ok
        assert nd.theta1_aug_residue == 1
        assert nd.theta2_aug_residue == 4
        # central square identity is part of the construction; re-check
        assert view.base.boundary(3) @ nd.theta2 == nd.theta1 @ view.base.boundary(3).dual()

    @pytest.mark.parametrize("n", [*range(2, 14), 29, 41, "sym3"])
    def test_perturbed_duality_normalizes(self, n):
        # psi is a chain map by proof; these re-check it as oracles
        if n == "sym3":
            C = sym3_presentation()[0]
            phi = scalar_diagonal_map(dualize_complex(C), C, (1, 1, 1, -1, -1, -1))
        else:
            C, phi = lens_complex(n), lens_duality_map(n)
        phi2, S = perturbed(phi, random.Random(f"perturb-{n}"))
        assert verify_homotopy(ChainHomotopy(phi2, phi, S)).ok
        view = recognize_dual_form(C)
        nd = normalize_duality(view, phi2)
        assert not all(I.is_zero for I in nd.homotopy.components)
        assert is_chain_map(nd.homotopy.first).is_chain_map
        assert verify_homotopy(nd.homotopy).ok
        assert C.boundary(3) @ nd.theta2 == nd.theta1 @ C.boundary(3).dual()
        if n != "sym3":
            assert (nd.theta1_aug_residue, nd.theta2_aug_residue) == (1, n - 1)

    def test_rejects_non_chain_map(self):
        A = lens_complex(5)
        view = recognize_dual_form(A)
        bogus = ChainMap(
            dualize_complex(A), A, tuple(GRMatrix.identity(A.group, 1) for _ in range(6))
        )
        with pytest.raises(ValueError):
            normalize_duality(view, bogus)

    def test_rejects_wrong_source(self):
        A = lens_complex(5)
        view = recognize_dual_form(A)
        with pytest.raises(ValueError):
            normalize_duality(view, identity_map(A))


class TestAssemblyReadsTheStage6Reductions:
    """An iso whose middle component is the identity leaves d3 as it is, so
    the assembled complex holds the stage-6 d1, d2 and d3 and reduces none
    of them again."""

    @pytest.mark.parametrize("make", [partial(lens_complex, 5), partial(twisted_lens, 4), twisted_sym3_presentation])
    def test_no_reduction_and_no_d3_product(self, make, monkeypatch):
        C6 = to_dual_form_stage6(make()).complex
        iso = solve_chain_isomorphism(tail_segment(C6), dual_head_segment(C6), budget=2)
        assert iso.k[2] == GRMatrix.identity(C6.group, C6.ranks[2])
        for i in (1, 2, 3):
            C6.reduction(i)

        def no_reduction(A):
            raise AssertionError("the assembled complex reduced a stage-6 boundary again")

        monkeypatch.setattr(complexes, "smith_normal_form", no_reduction)
        assembled = assemble_dual_form(C6, iso).complex
        assert all(assembled.boundary(i) is C6.boundary(i) for i in (1, 2, 3))
        for i in range(1, 6):
            assembled.reduction(i)


class TestChainMapChecksRunOnce:
    """Each chain-map fact is multiplied out once; the rest hold by the
    proofs in the docstrings of normalize_duality, lens_asd_transform,
    _is_chain_iso and solve_chain_isomorphism.  A found chain isomorphism
    is certified once, by assemble_dual_form, not by the search."""

    @pytest.fixture
    def square_checks(self, monkeypatch):
        calls = []
        real = complexes.commuting_squares

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(complexes, "commuting_squares", counting)
        monkeypatch.setattr(dual_form, "commuting_squares", counting)
        return calls

    def test_normalize_checks_phi_only(self, square_checks):
        maps = [(lens_complex(n), lens_duality_map(n)) for n in (2, 5, 7)]
        t = lens_asd_transform(5)
        maps.append((t.complex, t.homotopy.first))
        for C, phi in maps:
            square_checks.clear()
            normalize_duality(recognize_dual_form(C), phi)
            assert [args[2] for args in square_checks] == [phi.components]

    def test_asd_transform_checks_no_squares(self, square_checks):
        for n in (5, 9):
            lens_asd_transform(n)
        assert square_checks == []

    @pytest.mark.parametrize("make", [partial(twisted_lens, 5), twisted_sym3_presentation])
    def test_chain_iso_checks_h_only(self, make, square_checks):
        pipe = to_dual_form_stage6(make())
        tail, head = tail_segment(pipe.complex), dual_head_segment(pipe.complex)
        iso = solve_chain_isomorphism(tail, head, budget=2)
        assemble_dual_form(pipe.complex, iso)
        assert [args[2] for args in square_checks] == [iso.h]
        square_checks.clear()
        assert dual_form._is_chain_iso(tail, head, iso.h, iso.k)
        assert [args[2] for args in square_checks] == [iso.h]


    @pytest.mark.parametrize("make", [partial(twisted_lens, 5), twisted_sym3_presentation])
    def test_inverse_identities_are_multiplied_on_one_side(self, make, monkeypatch):
        # invert_gr_matrix only solves A X == I; _is_chain_iso multiplies
        # h's two squares (4 products) and h_i k_i (3), never k_i h_i
        pipe = to_dual_form_stage6(make())
        tail, head = tail_segment(pipe.complex), dual_head_segment(pipe.complex)
        iso = solve_chain_isomorphism(tail, head, budget=2)
        products, in_squares = [], []
        matmul, squares = GRMatrix.__matmul__, complexes.commuting_squares

        def counting_matmul(A, B):
            products.append((A, B))
            return matmul(A, B)

        def counting_squares(*args):
            before = len(products)
            report = squares(*args)
            in_squares.append(len(products) - before)
            return report

        monkeypatch.setattr(GRMatrix, "__matmul__", counting_matmul)
        monkeypatch.setattr(dual_form, "commuting_squares", counting_squares)
        assert tuple(invert_gr_matrix(h_i) for h_i in iso.h) == iso.k
        assert products == []
        assert dual_form._is_chain_iso(tail, head, iso.h, iso.k)
        assert (in_squares, len(products)) == ([4], 4 + 3)

    def test_identity_pair_is_certified_by_comparing_boundaries(self, monkeypatch):
        # D_i I == I d_i exactly when D_i == d_i, and I I == I: the identity
        # pair is decided with no product, on either verdict
        def no_product(A, B):
            raise AssertionError("the identity pair multiplies nothing")

        lens = [stage6_segments(lens_complex(n)) for n in (2, 5, 7)]
        twisted = to_dual_form_stage6(twisted_lens(3)).complex
        monkeypatch.setattr(GRMatrix, "__matmul__", no_product)
        for tail, head in lens:
            ident = identity_triple(tail)
            assert dual_form._is_chain_iso(tail, head, ident, ident)
        tail, head = tail_segment(twisted), dual_head_segment(twisted)
        ident = identity_triple(tail)
        assert not dual_form._is_chain_iso(tail, head, ident, ident)
        with pytest.raises(ValueError, match="iso is not a pair of mutually inverse chain maps"):
            assemble_dual_form(twisted, ChainIsoPair(h=ident, k=ident))


def _nonzero_entries(*matrices):
    return sum(len(line) for M in matrices for line in M.sparse_rows)


def _reaches_itself(M):
    """Whether M is among the objects that its slots reach through
    matrices, elements, dicts, tuples and lists (gc.get_referents)."""
    seen, stack = set(), list(gc.get_referents(M))
    while stack:
        o = stack.pop()
        if o is M:
            return True
        if id(o) not in seen and isinstance(o, (GRMatrix, GroupRingElement, dict, tuple, list)):
            seen.add(id(o))
            stack.extend(gc.get_referents(o))
    return False


def _lens5_duality():
    return recognize_dual_form(lens_complex(5)), lens_duality_map(5)


class TestDualsBuiltOnce:
    """Each matrix builds its dual once, and each complex its dual complex;
    the dual's dual equals the matrix, and no matrix is part of a reference
    cycle, so matrices are still freed by reference counting."""

    @pytest.fixture
    def involutes(self, monkeypatch):
        calls = [0]
        real = GroupRingElement.involute

        def counting(e):
            calls[0] += 1
            return real(e)

        monkeypatch.setattr(GroupRingElement, "involute", counting)
        return calls

    @pytest.mark.parametrize("make", [_lens5_duality, twisted_sym3_duality], ids=["L5", "twisted-S3"])
    def test_normalize_dualizes_each_matrix_once(self, make, involutes):
        view, phi = make()
        involutes[0] = 0
        normalize_duality(view, phi)
        first = involutes[0]
        involutes[0] = 0
        nd = normalize_duality(view, phi)
        # a repeat dualizes only the lifts I3* and I4*, which each call
        # solves afresh: the boundaries, the dual complex and phi's
        # components kept their duals
        lifts = _nonzero_entries(*nd.homotopy.components[3:])
        assert involutes[0] == lifts
        # and the first call dualized each of those matrices at most once
        assert first - lifts <= _nonzero_entries(*view.base.differentials, *phi.components[4:])

    def test_dual_of_the_dual_is_the_matrix(self):
        for C in (lens_complex(5), twisted_sym3_presentation()):
            for M in C.differentials:
                D = M.dual()
                assert M.dual() is D
                assert D.dual() == M
                assert D.dual() is D.dual()

    def test_dual_complex_is_built_once(self):
        for C in (lens_complex(5), twisted_sym3_presentation()):
            D = dualize_complex(C)
            assert dualize_complex(C) is D
            assert dualize_complex(D).differentials == C.differentials

    def test_no_matrix_reaches_itself(self):
        view, phi = twisted_sym3_duality()
        nd = normalize_duality(view, phi)
        C = view.base
        matrices = [
            *C.differentials,
            *dualize_complex(C).differentials,
            *phi.components,
            *nd.homotopy.first.components,
            *nd.homotopy.components,
        ]
        matrices += [M.dual() for M in matrices]
        assert not any(_reaches_itself(M) for M in matrices)

    def test_complexes_and_duals_are_freed_by_reference_counting(self):
        def live_matrices():
            return sum(type(o) is GRMatrix for o in gc.get_objects())

        gc.disable()
        try:
            before = live_matrices()
            C = lens_complex(5)
            D = dualize_complex(C)
            assert all(M.dual().dual() == M for M in C.differentials)
            assert live_matrices() > before
            refs = [weakref.ref(C), weakref.ref(D)]
            del C, D
            assert [r() for r in refs] == [None, None]
            assert live_matrices() == before
        finally:
            gc.enable()

    def test_pickles_and_copies_round_trip(self):
        M = twisted_sym3_presentation().boundary(2)
        for X in (M, M.dual()):
            for Y in (pickle.loads(pickle.dumps(X)), copy.copy(X), copy.deepcopy(X)):
                assert Y == X and Y is not X
                assert Y.dual() == X.dual()


class TestAntiSelfDuality:
    def test_asd_target_true(self):
        for n in (5, 9, 13):
            t = lens_asd_transform(n)
            assert is_anti_self_dual(recognize_dual_form(t.complex))

    def test_lens_itself_false(self):
        for n in range(2, 13):
            assert not is_anti_self_dual(recognize_dual_form(lens_complex(n)))

    def test_zero_form_is_antisymmetric(self):
        A = lens_complex(5)
        G = A.group
        diffs = list(A.differentials)
        diffs[2] = GRMatrix.zeros(G, 1, 1)
        C = ChainComplex(G, A.ranks, tuple(diffs), A.top_generator, A.bottom_generator)
        view = recognize_dual_form(C)
        assert view is not None
        assert is_anti_self_dual(view)


class TestObstruction:
    def test_even_orders_obstructed(self):
        for n in (2, 4, 6, 10):
            rep = obstruction_check(recognize_dual_form(lens_complex(n)))
            assert rep.group_order_even
            assert rep.h3_free_rank == 0
            assert rep.obstructed
            assert rep.cross_check_ok

    def test_odd_orders_unobstructed(self):
        for n in (3, 5, 9):
            rep = obstruction_check(recognize_dual_form(lens_complex(n)))
            assert not rep.obstructed

    def test_rank_congruence(self):
        for n in range(2, 21):
            rep = obstruction_check(recognize_dual_form(lens_complex(n)))
            assert rep.j_rank_congruence == n - 1
            assert rep.j_rank % n == (-1) % n

    def test_asd_implies_unobstructed(self):
        for n in (5, 9):
            t = lens_asd_transform(n)
            view = recognize_dual_form(t.complex)
            assert is_anti_self_dual(view)
            assert not obstruction_check(view).obstructed

    def test_zero_form_report(self):
        # d3 = 0 is the degenerate pairing: the kernel is all of J, so the
        # degree-3 homology of the cover has full rank j_rank (odd here)
        A = lens_complex(4)
        G = A.group
        diffs = list(A.differentials)
        diffs[2] = GRMatrix.zeros(G, 1, 1)
        C = ChainComplex(G, A.ranks, tuple(diffs), A.top_generator, A.bottom_generator)
        rep = obstruction_check(recognize_dual_form(C))
        assert rep.cross_check_ok
        assert rep.h3_free_rank == 3  # == j_rank, and odd, so no parity clash
        assert not rep.obstructed


def _bench_nonabelian(name):
    sys.path.insert(0, BENCH)
    try:
        import inputs as bench_inputs
    finally:
        sys.path.remove(BENCH)
    return bench_inputs.nonabelian_complex(name)


PIPELINE_INPUTS = (
    [(f"L({n})", partial(lens_complex, n)) for n in range(2, 14)]
    + [(f"twisted L({n})", partial(twisted_lens, n)) for n in range(3, 7)]
    + [(name, partial(_bench_nonabelian, name)) for name in ("S3", "Q8", "D4", "D5", "C7xC3")]
)


class TestStage6ReductionsExtendTheInput:
    """A stage-6 boundary is its input's plus an identity block, and reads
    its reduction extended from the input's.  A copy through JSON carries
    no link and reduces every boundary afresh; both must read the same."""

    @staticmethod
    def readings(C):
        ends = (complexes.bottom_end_report(C), complexes.top_end_report(C))
        groups = [homology(C, d, coeff) for coeff in complexes.COEFFS for d in range(C.top_degree + 1)]
        view = dual_form.DualFormView(C)
        return groups, ends, view.j_rank, view.form_rank

    @pytest.mark.parametrize("label, make", PIPELINE_INPUTS, ids=[label for label, _ in PIPELINE_INPUTS])
    def test_linked_and_fresh_complexes_agree(self, label, make):
        C6 = to_dual_form_stage6(make()).complex
        iso = solve_chain_isomorphism(tail_segment(C6), dual_head_segment(C6))
        assert iso is not None
        assembled = assemble_dual_form(C6, iso).complex
        for X in (C6, assembled):
            fresh = complex_from_json(complex_to_json(X))
            assert fresh == X
            assert not any(d._summand for d in fresh.differentials)
            assert self.readings(X) == self.readings(fresh)
        assert all(d._summand is not None for d in C6.differentials)
        # every linked reduction is a decomposition of its own matrix
        for i in range(1, 6):
            for coeff in complexes.COEFFS:
                snf, A = C6.reduction(i, coeff), C6.integer_matrix(i, coeff)
                assert snf.U @ A @ snf.V == snf.D

    def test_the_stage6_complex_reduces_nothing_of_its_own(self, monkeypatch):
        C = twisted_sym3_presentation()
        five_complex_report(C)
        for i in range(1, 6):
            for coeff in complexes.COEFFS:
                C.reduction(i, coeff)

        def no_reduction(A):
            raise AssertionError("a stage-6 boundary was reduced")

        monkeypatch.setattr(complexes, "smith_normal_form", no_reduction)
        C6 = to_dual_form_stage6(C).complex
        for coeff in complexes.COEFFS:
            assert [homology(C6, d, coeff) for d in range(6)] == [homology(C, d, coeff) for d in range(6)]

    @staticmethod
    def broken(E, change):
        """E with boundary(1) rebuilt from ``change(rows, ones)``, which
        returns the new rows and link positions; the link keeps E's summand."""
        d = E.boundary(1)
        S, k, ones = d._summand
        rows, ones = change(list(d.sparse_rows), list(ones))
        M = GRMatrix._from_sparse_rows(d.group, d.cols, rows)
        M._summand = (S, k, tuple(ones))
        return ChainComplex(E.group, E.ranks, (M,) + E.differentials[1:])

    @pytest.mark.parametrize(
        "change",
        [
            # a leading row equal to the summand's but another object
            lambda rows, ones: ([dict(rows[0])] + rows[1:], ones),
            # an appended entry that is not one
            lambda rows, ones: (rows[:1] + [{1: rows[1][1].scale(2)}] + rows[2:], ones),
            # a second entry in an appended row
            lambda rows, ones: (rows[:1] + [{**rows[1], 2: rows[1][1]}] + rows[2:], ones),
            # an appended one the link does not list
            lambda rows, ones: (rows, ones[1:]),
            # an appended one in the summand's columns
            lambda rows, ones: (rows[:1] + [{0: rows[1][1]}] + rows[2:], [(1, 0)] + ones[1:]),
            # two appended ones in one column
            lambda rows, ones: (rows[:2] + [{1: rows[1][1]}] + rows[3:], ones[:1] + [(2, 1)]),
        ],
    )
    def test_a_broken_block_raises(self, change):
        C = lens_complex(3)
        E = dual_form._direct_sum(C, [(0, 2)])
        for coeff, ones in (("integral", 2 * 3), ("trivial", 2)):
            assert E.reduction(1, coeff).diagonal == (1,) * ones + C.reduction(1, coeff).diagonal
        bad = self.broken(E, change)
        for coeff in complexes.COEFFS:
            with pytest.raises(AssertionError, match="partial"):
                bad.reduction(1, coeff)
