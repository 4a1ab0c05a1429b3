import random
from dataclasses import replace

import pytest

from conftest import (
    broken_lens,
    make_klein,
    make_quaternion8,
    make_sym3,
    oracle_group_info,
    sheared_sum_complex,
    spot_matrices,
    sym3_presentation,
    twisted_lens,
    twisted_sym3_presentation,
)
from zgdual import complexes
from zgdual.complexes import (
    COEFFS,
    ChainComplex,
    ChainHomotopy,
    ChainMap,
    bottom_end_report,
    cohomology,
    compose_maps,
    dual_map,
    dualize_complex,
    euler_characteristic,
    five_complex_report,
    homology,
    identity_map,
    is_chain_map,
    top_end_report,
    validate_complex,
    verify_homotopy,
)
from zgdual.dual_form import normalize_duality, obstruction_check, recognize_dual_form
from zgdual.group_core import GroupRingElement, cyclic_group, norm_element
from zgdual.gr_linalg import GRMatrix, solve_gr_linear
from zgdual.int_linalg import AbelianGroupInfo, kernel_basis, smith_normal_form
from zgdual.lens import lens_asd_transform, lens_complex, lens_duality_map

Z = AbelianGroupInfo.free(1)
ZERO = AbelianGroupInfo.trivial()


def tpow(G, e):
    return GroupRingElement.basis(G, e % G.order)


def poly(G, *terms):
    acc = GroupRingElement.zero(G)
    for coeff, e in terms:
        acc = acc + tpow(G, e).scale(coeff)
    return acc


def one_by_one_complex(G, *scalars):
    """Length-(k+1) complex of rank-1 modules with the given multipliers."""
    return ChainComplex(
        G,
        (1,) * (len(scalars) + 1),
        tuple(GRMatrix.one_by_one(s) for s in scalars),
    )


class TestValidation:
    def test_lens_valid(self):
        assert validate_complex(lens_complex(5)).ok

    def test_failure_at_degree_one(self):
        G = cyclic_group(1)
        one = GroupRingElement.one(G)
        C = one_by_one_complex(G, one, one)  # boundary(1) = boundary(2) = [1]
        rep = validate_complex(C)
        assert not rep.ok
        assert rep.compositions == ((1, False),)

    def test_empty_complex_valid(self):
        G = cyclic_group(3)
        C = ChainComplex(G, (0,) * 6, tuple(GRMatrix.zeros(G, 0, 0) for _ in range(5)))
        assert validate_complex(C).ok

    def test_shape_enforced_at_construction(self):
        G = cyclic_group(2)
        with pytest.raises(ValueError):
            ChainComplex(G, (1, 2), (GRMatrix.identity(G, 1),))

    def test_negative_rank_rejected_at_construction(self):
        # a 0 x -1 matrix has an empty grid, so only the rank check can refuse it
        G = cyclic_group(2)
        with pytest.raises(ValueError, match=r"ranks must be nonnegative, got \(0, -1\)"):
            ChainComplex(G, (0, -1), (GRMatrix(G, 0, -1, ()),))


class TestEulerCharacteristic:
    def test_lens(self):
        for n in (2, 5, 9):
            assert euler_characteristic(lens_complex(n)) == 0

    def test_single_module(self):
        G = cyclic_group(3)
        C = ChainComplex(G, (1,), ())
        assert euler_characteristic(C) == 3

    def test_sign_alternation(self):
        G = cyclic_group(2)
        C = ChainComplex(G, (2, 1), (GRMatrix.zeros(G, 2, 1),))
        assert euler_characteristic(C) == (2 - 1) * 2


class TestDualize:
    def test_lens_dual_row(self):
        # the dual complex has boundary(3) = x(1 - t): the mirrored diagram row
        A = lens_complex(5)
        D = dualize_complex(A)
        G = A.group
        assert D.boundary(3) == GRMatrix.one_by_one(poly(G, (1, 0), (-1, 1)))
        assert D.boundary(5) == GRMatrix.one_by_one(poly(G, (1, 0), (-1, -1)))
        assert D.boundary(1) == GRMatrix.one_by_one(poly(G, (1, 0), (-1, 1)))
        assert D.boundary(2) == D.boundary(4) == GRMatrix.one_by_one(norm_element(G))

    def test_involution(self):
        rng = random.Random(73)
        G = cyclic_group(4)
        for _ in range(25):
            ranks = tuple(rng.randint(0, 2) for _ in range(4))
            diffs = []
            ok = True
            for i in range(3):
                diffs.append(
                    GRMatrix(
                        G,
                        ranks[i],
                        ranks[i + 1],
                        tuple(
                            tuple(
                                GroupRingElement(G, tuple(rng.randint(-2, 2) for _ in range(4)))
                                for _ in range(ranks[i + 1])
                            )
                            for _ in range(ranks[i])
                        ),
                    )
                )
            C = ChainComplex(G, ranks, tuple(diffs))
            assert dualize_complex(dualize_complex(C)) == C

    def test_euler_negates_for_six_modules(self):
        A = lens_complex(4)
        assert euler_characteristic(dualize_complex(A)) == -euler_characteristic(A)
        # and for an asymmetric-rank six-module complex
        G = cyclic_group(2)
        C = ChainComplex(
            G,
            (2, 1, 1, 1, 1, 1),
            (GRMatrix.zeros(G, 2, 1),) + tuple(GRMatrix.zeros(G, 1, 1) for _ in range(4)),
        )
        assert euler_characteristic(dualize_complex(C)) == -euler_characteristic(C)


class TestFiveComplexMembership:
    def test_lens_family(self):
        for n in range(2, 31):
            assert five_complex_report(lens_complex(n)).is_member, n

    def test_middle_map_zeroed_still_member(self):
        # the membership conditions only constrain the ends
        A = lens_complex(5)
        G = A.group
        diffs = list(A.differentials)
        diffs[2] = GRMatrix.zeros(G, 1, 1)
        C = ChainComplex(G, A.ranks, tuple(diffs), A.top_generator, A.bottom_generator)
        rep = five_complex_report(C)
        assert rep.is_member
        # but the middle homology changed
        assert homology(C, 2, "integral") != homology(A, 2, "integral")

    def test_zero_bottom_map_not_member(self):
        # coker(0) = Z[G], not Z, once |G| > 1
        G = cyclic_group(3)
        zero = GroupRingElement.zero(G)
        C = one_by_one_complex(G, zero, zero, zero, zero, zero)
        rep = five_complex_report(C)
        assert not rep.is_member
        assert not rep.bottom.is_z

    def test_wrong_length(self):
        G = cyclic_group(2)
        C = ChainComplex(G, (1, 1), (GRMatrix.zeros(G, 1, 1),))
        assert not five_complex_report(C).is_member

    def test_certificate_validation(self):
        A = lens_complex(5)
        rep = five_complex_report(A)
        assert rep.bottom.certificate_valid and rep.top.certificate_valid
        bad = replace(A, top_generator=(2,), bottom_generator=(1,))  # gcd 2: not a generator
        assert not five_complex_report(bad).top.ok

    def test_certificates_are_checked_against_each_side_of_the_augmentation(self):
        # d = [[1, -1], [0, 0]] over the trivial group: ker(d) = Z(1, 1) and
        # coker(d) = Z, read by (0, 1); swapping the two certificates breaks both
        G = cyclic_group(1)
        one, zero = GroupRingElement.one(G), GroupRingElement.zero(G)
        d = GRMatrix.from_rows(G, [[one, -one], [zero, zero]])
        C = ChainComplex(G, (2, 2), (d,), top_generator=(1, 1), bottom_generator=(0, 1))
        assert top_end_report(C).ok and bottom_end_report(C).ok
        bare = replace(C, top_generator=None, bottom_generator=None)
        assert (top_end_report(bare).generator, bottom_end_report(bare).generator) == ((1, 1), (0, 1))
        swapped = replace(C, top_generator=(0, 1), bottom_generator=(1, 1))
        assert top_end_report(swapped).certificate_valid is False
        assert bottom_end_report(swapped).certificate_valid is False


EXPECT_TRIVIAL = (Z, None, ZERO, None, ZERO, Z)  # None slots filled per n


class TestHomology:
    def test_lens_trivial_coefficients(self):
        for n in (2, 5, 9):
            A = lens_complex(n)
            zn = AbelianGroupInfo.cyclic(n)
            expected = [Z, zn, ZERO, zn, ZERO, Z]
            got = [homology(A, d, "trivial") for d in range(6)]
            assert got == expected

    def test_lens_integral(self):
        for n in (2, 5, 8):
            A = lens_complex(n)
            got = [homology(A, d, "integral") for d in range(6)]
            assert got == [Z, ZERO, ZERO, ZERO, ZERO, Z]

    def test_against_oracle(self):
        for n in (3, 4):
            A = lens_complex(n)
            for coeff in ("integral", "trivial"):
                for d in range(6):
                    inc, out = spot_matrices(A, d, coeff)
                    assert homology(A, d, coeff) == oracle_group_info(inc, out)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            homology(lens_complex(3), 6)

    def test_klein_group_complex(self):
        # a free start of a resolution over Z[V4]: F1 -> F0 with the two
        # generator differences; H_0 trivial coefficients is Z, integral is Z
        G = make_klein()
        d1 = GRMatrix(
            G,
            1,
            2,
            ((poly(G, (1, 1), (-1, 0)), poly(G, (1, 2), (-1, 0))),),
        )
        C = ChainComplex(G, (1, 2), (d1,))
        assert homology(C, 0, "integral") == Z
        assert homology(C, 0, "trivial") == Z


def nonabelian_complexes():
    """Sheared subgroup complexes over S3 (a transposition and a 3-cycle)
    and Q8 (i and j), from conftest.sheared_sum_complex."""
    out = []
    for G, g, h in ((make_sym3(), 1, 3), (make_quaternion8(), 2, 4)):
        shears = [
            GroupRingElement.from_terms(G, [[k % 3 - 1, k % G.order], [2, (k + g) % G.order]])
            for k in range(6)
        ]
        out.append(sheared_sum_complex(G, g, h, shears))
    return out


def all_homology(C):
    return [homology(C, d, coeff) for coeff in COEFFS for d in range(C.top_degree + 1)]


def fresh_copy(C):
    return ChainComplex(C.group, C.ranks, C.differentials, C.top_generator, C.bottom_generator)


class TestMemoizedReductions:
    def test_matches_oracle_on_twisted_lens_and_nonabelian_groups(self):
        for C in [twisted_lens(5), twisted_lens(6)] + nonabelian_complexes():
            for coeff in COEFFS:
                for d in range(C.top_degree + 1):
                    assert homology(C, d, coeff) == oracle_group_info(*spot_matrices(C, d, coeff))

    def test_integer_matrix_covers_the_boundary_degrees_only(self):
        C = lens_complex(5)
        for i in (0, C.top_degree + 1):
            for coeff in COEFFS:
                with pytest.raises(ValueError, match=f"no boundary map at degree {i}"):
                    C.integer_matrix(i, coeff)

    def test_cached_answer_equals_fresh_copy(self):
        for C in [lens_complex(7), twisted_lens(5)] + nonabelian_complexes():
            first = all_homology(C)
            report = five_complex_report(C)
            assert all_homology(C) == first
            assert five_complex_report(C) == report
            fresh = fresh_copy(C)
            assert all_homology(fresh) == first
            assert five_complex_report(fresh_copy(C)) == report

    def test_derived_complexes_never_see_stale_reductions(self):
        A = lens_complex(5)
        all_homology(A)
        five_complex_report(A)
        recognize_dual_form(A)
        twisted = replace(A, differentials=twisted_lens(5).differentials)
        bare = replace(A, top_generator=None, bottom_generator=None)
        dual = dualize_complex(A)
        for D in (twisted, bare, dual):
            assert D._memo is not A._memo
            for i in range(1, 6):
                assert D.integer_matrix(i) == D.boundary(i).expand()
                assert D.integer_matrix(i, "trivial") == D.boundary(i).augmented()
            for coeff in COEFFS:
                for d in range(6):
                    assert homology(D, d, coeff) == oracle_group_info(*spot_matrices(D, d, coeff))
        assert twisted.integer_matrix(1) != A.integer_matrix(1)
        # the derived certificates of the bare copy come from its own reductions
        assert top_end_report(bare).generator == (1,)
        assert bottom_end_report(bare).generator == (1,)
        assert top_end_report(bare).certificate_valid is None

    def test_each_differential_is_reduced_once(self, monkeypatch):
        calls = []

        def counting_snf(A):
            calls.append(1)
            return smith_normal_form(A)

        monkeypatch.setattr(complexes, "smith_normal_form", counting_snf)
        spots = [(d, coeff) for d in range(6) for coeff in COEFFS]
        for n in (6, 7):
            C = lens_complex(n)
            calls.clear()
            assert five_complex_report(C).is_member
            view = recognize_dual_form(C)
            obstruction_check(view)
            all_homology(C)
            normalize_duality(view, lens_duality_map(n))
            # d3 = d5 = d1* and d4 = d2, so every reader reads the reductions of
            # degrees 1 and 2; the top end report reads degree 1's transposed
            assert len(calls) == 4
            calls.clear()
            got = [cohomology(C, d, coeff) for d, coeff in spots]
            assert not calls
            assert got == [homology(dualize_complex(C), 5 - d, coeff) for d, coeff in spots]

    def test_invariants_equal_each_degree_reduced_alone(self):
        G = cyclic_group(6)
        shear = GroupRingElement.from_terms(G, [[1, 1], [-2, 3]])
        complexes_ = (
            [lens_complex(n) for n in (2, 5, 6, 7)]
            + [twisted_lens(5)]
            + nonabelian_complexes()
            + [sym3_presentation()[0], twisted_sym3_presentation()]
            # one shear in every degree: d1 = d3 = d5 and d2 = d4 by equality
            + [sheared_sum_complex(G, 1, 2, [shear] * 6)]
        )
        for C in complexes_:
            for i in range(1, C.top_degree + 1):
                for coeff in COEFFS:
                    A = C.integer_matrix(i, coeff)
                    snf = C.reduction(i, coeff)
                    assert snf.diagonal == smith_normal_form(A).diagonal
                    assert snf.U @ A @ snf.V == snf.D
        assert [lens_complex(7)._twin(i) for i in range(1, 6)] == [1, 2, 1, 2, 1]
        assert [complexes_[-1]._twin(i) for i in range(1, 6)] == [1, 2, 1, 2, 1]
        # over S3: d4 = d2* and d5 = d1*, read through the transpose
        assert [complexes_[-3]._twin(i) for i in range(1, 6)] == [1, 2, 3, 2, 1]
        # a non-square boundary whose dual follows it directly
        K = make_klein()
        d1 = GRMatrix.from_rows(K, [[GroupRingElement.basis(K, 1), GroupRingElement.one(K).scale(2)]])
        C = ChainComplex(K, (1, 2, 1), (d1, d1.dual()))
        assert C._twin(2) == 1
        for coeff in COEFFS:
            A = C.integer_matrix(2, coeff)
            snf = C.reduction(2, coeff)
            assert snf.diagonal == smith_normal_form(A).diagonal
            assert snf.U @ A @ snf.V == snf.D

    def test_top_end_report_equals_the_one_from_a_fresh_reduction(self):
        complexes_ = (
            [lens_complex(n) for n in range(2, 14)]
            + [twisted_lens(n) for n in range(3, 7)]
            + nonabelian_complexes()
            + [sym3_presentation()[0], twisted_sym3_presentation()]
        )
        for C in complexes_:
            # stripped certificates: the generator is derived from the reduction
            shared = replace(C, top_generator=None, bottom_generator=None)
            alone = replace(C, top_generator=None, bottom_generator=None)
            T = C.top_degree
            alone._memo[("reduction", T, "integral")] = smith_normal_form(alone.integer_matrix(T))
            report = top_end_report(shared)
            assert report == top_end_report(alone)
            assert report.generator == C.top_generator
        # in L(n) the top end reads degree 1's decomposition transposed
        L = lens_complex(13)
        assert L._twin(5) == 1
        assert L.reduction(5) == L.reduction(1).transposed()
        assert top_end_report(replace(L, top_generator=None, bottom_generator=None)).generator == (1,)

    def test_raises_at_broken_spots_and_answers_at_valid_ones(self):
        B = broken_lens(5)
        assert [i for i, ok in validate_complex(B).compositions if not ok] == [1, 2]
        for d in (1, 2):
            with pytest.raises(ValueError, match=f"nonzero at degree {d}"):
                homology(B, d, "integral")
        for d in (0, 3, 4, 5):
            assert homology(B, d, "integral") == oracle_group_info(*spot_matrices(B, d, "integral"))
        # every augmented composition vanishes, so each trivial spot answers
        for d in range(6):
            assert homology(B, d, "trivial") == oracle_group_info(*spot_matrices(B, d, "trivial"))

    def test_solve_boundary_agrees_with_solve_gr_linear(self):
        rng = random.Random(3)
        for C in [lens_complex(6), twisted_lens(5)] + nonabelian_complexes():
            G = C.group
            for i in range(1, C.top_degree + 1):
                d = C.boundary(i)
                X0 = GRMatrix.from_rows(G, [
                    [GroupRingElement(G, tuple(rng.randint(-2, 2) for _ in range(G.order)))]
                    for _ in range(d.cols)
                ])
                for B in (d @ X0, GRMatrix.identity(G, d.rows)):
                    X = C.solve_boundary(i, B)
                    assert X == solve_gr_linear(d, B)
                    assert X is None or d @ X == B
                assert C.solve_boundary(i, d @ X0) is not None


class TestCohomology:
    def test_lens_five(self):
        A = lens_complex(5)
        z5 = AbelianGroupInfo.cyclic(5)
        got = [cohomology(A, d, "trivial") for d in range(6)]
        assert got == [Z, ZERO, z5, ZERO, z5, Z]

    def test_mirrors_homology_of_dual(self):
        # the definitional relation, at the mirrored degree
        for A in [lens_complex(4), twisted_lens(5)] + nonabelian_complexes():
            D = dualize_complex(A)
            T = A.top_degree
            for coeff in COEFFS:
                for d in range(T + 1):
                    assert cohomology(A, d, coeff) == homology(D, T - d, coeff)

    def test_trivial_group_matches_classical_cochain(self):
        # over the trivial group cohomology agrees with the classical
        # cochain computation (here via universal coefficients)
        G = cyclic_group(1)
        zero = GroupRingElement.zero(G)
        C = one_by_one_complex(G, poly(G, (2, 0)), zero)  # Z -0-> Z -2-> Z
        # chain: H0 = Z/2, H1 = 0, H2 = Z; cochain: H^0 = 0, H^1 = Z/2, H^2 = Z
        assert [homology(C, d) for d in range(3)] == [AbelianGroupInfo.cyclic(2), ZERO, Z]
        assert [cohomology(C, d) for d in range(3)] == [ZERO, AbelianGroupInfo.cyclic(2), Z]

    def test_poincare_numeric_symmetry_on_lens(self):
        for n in (3, 4, 5):
            A = lens_complex(n)
            for d in range(6):
                assert homology(A, d, "trivial") == cohomology(A, 5 - d, "trivial")


class TestChainMaps:
    def test_lens_duality_map(self):
        phi = lens_duality_map(6)
        rep = is_chain_map(phi)
        assert rep.is_chain_map
        assert rep.end_scalars == (1, -1)

    def test_identity_end_scalars(self):
        A = lens_complex(5)
        rep = is_chain_map(identity_map(A))
        assert rep.is_chain_map
        assert rep.end_scalars == (1, 1)

    def test_broken_square_reported(self):
        A = lens_complex(5)
        G = A.group
        comps = [GRMatrix.identity(G, 1)] * 6
        comps[3] = GRMatrix.one_by_one(tpow(G, 1))  # spoils the degree-3 square
        rep = is_chain_map(ChainMap(A, A, tuple(comps)))
        assert not rep.is_chain_map
        failing = [i for i, ok in rep.squares if not ok]
        # square 4 still commutes because Sigma absorbs the unit t
        assert failing == [3]

    def test_compose_and_dual(self):
        A = lens_complex(5)
        phi = lens_duality_map(5)
        ident = identity_map(A)
        assert compose_maps(ident, phi).components == phi.components
        star = dual_map(phi)
        assert is_chain_map(star).is_chain_map

    def test_single_component_homotopy_verifies(self):
        t = lens_asd_transform(5)
        assert verify_homotopy(t.homotopy).ok

    def test_homotopy_mismatch_detected(self):
        A = lens_complex(5)
        G = A.group
        ident = identity_map(A)
        other = ChainMap(A, A, tuple(-c for c in ident.components))
        zero_h = tuple(GRMatrix.zeros(G, 1, 1) for _ in range(5))
        rep = verify_homotopy(ChainHomotopy(ident, other, zero_h))
        assert not rep.ok

    def test_homotopic_maps_act_equally_on_homology(self):
        # a chain homotopy forces (f - g) to carry kernels into images
        from zgdual.int_linalg import solve_integer

        t = lens_asd_transform(5)
        f, g = t.homotopy.first, t.homotopy.second
        src, tgt = f.source, f.target
        for d in range(6):
            delta = (f.components[d] - g.components[d]).expand()
            _, out_s = spot_matrices(src, d, "integral")
            K = kernel_basis(out_s)
            inc_t, _ = spot_matrices(tgt, d, "integral")
            assert solve_integer(inc_t, delta @ K) is not None


def end_report_cases():
    """The lens, twisted lens, sheared and presentation complexes, each with
    its stored certificates and with them stripped."""
    complexes_ = (
        [lens_complex(n) for n in range(2, 14)]
        + [twisted_lens(n) for n in range(3, 7)]
        + nonabelian_complexes()
        + [sym3_presentation()[0], twisted_sym3_presentation()]
    )
    for C in complexes_:
        yield C
        yield replace(C, top_generator=None, bottom_generator=None)


class TestEndsCommuteWithDualization:
    def test_the_top_end_is_the_bottom_end_of_the_dual(self):
        compared = 0
        for C in end_report_cases():
            D = dualize_complex(C)
            pairs = ((bottom_end_report(C), top_end_report(D)), (bottom_end_report(D), top_end_report(C)))
            for bottom, top in pairs:
                # a top end is free, so the two agree exactly when the cokernel is Z
                if bottom.is_z:
                    assert bottom == top
                    compared += 1
        # every case but the two sheared complexes, whose ends are Z^5 and Z^4
        assert compared == 2 * 2 * 18

    def test_end_scalars_of_the_dual_map_are_reversed(self):
        for n in range(2, 14):
            f = lens_duality_map(n)
            scalars = is_chain_map(f).end_scalars
            assert None not in scalars
            assert is_chain_map(dual_map(f)).end_scalars == scalars[::-1]


class TestEndScalars:
    def test_derived_certificates_match_stored(self):
        A = lens_complex(7)
        bare = replace(A, top_generator=None, bottom_generator=None)
        phi = lens_duality_map(7)
        phi_bare = ChainMap(dualize_complex(bare), bare, phi.components)
        rep = is_chain_map(phi_bare)
        assert rep.end_scalars == (1, -1)

    def test_scaled_map_scalars(self):
        A = lens_complex(5)
        G = A.group
        two = GRMatrix.one_by_one(GroupRingElement.one(G).scale(2))
        comps = tuple(two for _ in range(6))
        rep = is_chain_map(ChainMap(A, A, comps))
        assert rep.is_chain_map
        assert rep.end_scalars == (2, 2)
