from dataclasses import replace

import pytest

from conftest import scalar_diagonal_map
from zgdual import complexes, lens
from zgdual.complexes import (
    ChainHomotopy,
    ChainMap,
    compose_maps,
    dual_map,
    five_complex_report,
    homology,
    is_chain_map,
    validate_complex,
    verify_homotopy,
)
from zgdual.dual_form import is_anti_self_dual, normalize_duality, obstruction_check, recognize_dual_form
from zgdual.group_core import GroupRingElement, cyclic_group, gr_mul, norm_element
from zgdual.gr_linalg import GRMatrix, invert_gr_matrix
from zgdual.int_linalg import AbelianGroupInfo
from zgdual.lens import (
    asd_status,
    lens_asd_transform,
    lens_complex,
    lens_duality_map,
)


def tpow(G, e):
    return GroupRingElement.basis(G, e % G.order)


def poly(G, *terms):
    acc = GroupRingElement.zero(G)
    for coeff, e in terms:
        acc = acc + tpow(G, e).scale(coeff)
    return acc


class TestLensComplex:
    def test_differentials(self):
        A = lens_complex(5)
        G = A.group
        omt = poly(G, (1, 0), (-1, 1))
        omti = poly(G, (1, 0), (-1, -1))
        sig = norm_element(G)
        assert A.boundary(1) == GRMatrix.one_by_one(omt)
        assert A.boundary(2) == GRMatrix.one_by_one(sig)
        assert A.boundary(3) == GRMatrix.one_by_one(omti)
        assert A.boundary(4) == GRMatrix.one_by_one(sig)
        assert A.boundary(5) == GRMatrix.one_by_one(omti)

    @pytest.mark.parametrize("n", [2, 5, 7, 101])
    def test_mirror_is_stated_once(self, n):
        # d3 and d5 are the one dual of d1, and d4 is d2 itself
        A = lens_complex(n)
        assert A.boundary(3) is A.boundary(5) is A.boundary(1).dual()
        assert A.boundary(4) is A.boundary(2)

    def test_rejects_small_n(self):
        for n in (0, 1):
            with pytest.raises(ValueError):
                lens_complex(n)

    def test_family_invariants_full_range(self):
        for n in range(2, 102):
            A = lens_complex(n)
            assert validate_complex(A).ok
            view = recognize_dual_form(A)
            assert view is not None
            assert view.j_rank == n - 1
            assert view.j_rank % n == (-1) % n

    def test_alg5_membership_full_range(self):
        # the slowest family sweep in the suite (SNF of 101x101 circulants)
        for n in range(2, 102):
            assert five_complex_report(lens_complex(n)).is_member


class TestLensDualityMap:
    def test_components(self):
        phi = lens_duality_map(7)
        G = phi.target.group
        one = GRMatrix.identity(G, 1)
        assert phi.components == (one, one, one, GRMatrix.one_by_one(tpow(G, 1).scale(-1)), -one, -one)

    def test_central_square_identity(self):
        # 1 . (1 - t) == (1 - t^-1) . (-t) as ring elements
        for n in (2, 3, 5, 12):
            G = cyclic_group(n)
            lhs = poly(G, (1, 0), (-1, 1))
            rhs = gr_mul(poly(G, (1, 0), (-1, -1)), tpow(G, 1).scale(-1))
            assert lhs == rhs

    def test_fourth_square_identity(self):
        # Sigma . (-1) == (-t) . Sigma: the norm absorbs units
        for n in (2, 5, 9):
            G = cyclic_group(n)
            assert norm_element(G).scale(-1) == gr_mul(tpow(G, 1).scale(-1), norm_element(G))

    def test_verifies_for_family(self):
        for n in range(2, 26):
            rep = is_chain_map(lens_duality_map(n))
            assert rep.is_chain_map
            assert rep.end_scalars == (1, -1)

    def test_normalize_end_to_end(self):
        A = lens_complex(5)
        nd = normalize_duality(recognize_dual_form(A), lens_duality_map(5))
        assert nd.homotopy.first.components == lens_duality_map(5).components


class TestAsdUnit:
    def test_k1_frozen_values(self):
        t = lens_asd_transform(5)
        G = cyclic_group(5)
        assert t.alpha == poly(G, (1, 2), (1, 1), (-1, 4), (-1, 3))
        assert t.beta == poly(G, (1, 0), (1, 1), (-1, 3))
        # golden inverse, found once by the solver and frozen
        assert t.beta_inv == poly(G, (1, 1), (-1, 2), (1, 3))
        assert gr_mul(t.beta, t.beta_inv) == GroupRingElement.one(G)

    def test_alpha_shift_identity(self):
        # alpha (t^{1+k} + t^{1-k}) == t^2 - 1
        for k in range(1, 7):
            n = 4 * k + 1
            G = cyclic_group(n)
            t = lens_asd_transform(n)
            shift = tpow(G, 1 + k) + tpow(G, 1 - k)
            assert gr_mul(t.alpha, shift) == poly(G, (1, 2), (-1, 0))

    def test_identities_for_k_range(self):
        for k in range(1, 7):
            n = 4 * k + 1
            G = cyclic_group(n)
            t = lens_asd_transform(n)
            assert gr_mul(t.beta, poly(G, (1, 0), (-1, -1))) == t.alpha
            assert gr_mul(norm_element(G), t.beta) == norm_element(G)
            assert gr_mul(t.beta, t.beta_inv) == GroupRingElement.one(G)
            assert gr_mul(t.beta_inv, t.beta) == GroupRingElement.one(G)

    def test_closed_form_inverse_is_the_solver_inverse(self):
        # beta_inv = sum_{r=k}^{3k} (-1)^{r-k} t^r, against a unit inversion by SNF
        for n in range(5, 102, 4):
            t = lens_asd_transform(n)
            solved = invert_gr_matrix(GRMatrix.one_by_one(t.beta))
            assert solved is not None
            assert t.beta_inv == solved.entries[0][0]

    def test_rejects_wrong_residue(self):
        for n in (4, 7, 8, 11, 3):
            with pytest.raises(ValueError, match="anti-self-dual units exist"):
                lens_asd_transform(n)


def rescaling(t, n):
    """The rescaling f = (1, 1, beta, 1, 1, 1): L(n) -> t.complex of the
    transform t, built from its unit."""
    one = GRMatrix.identity(t.complex.group, 1)
    return ChainMap(lens_complex(n), t.complex, (one, one, GRMatrix.one_by_one(t.beta), one, one, one))


class TestAsdTransform:
    def test_n5_full(self):
        t = lens_asd_transform(5)
        G = t.complex.group
        assert t.complex.boundary(3) == GRMatrix.one_by_one(t.alpha)
        # alpha involutes to its negative
        assert t.alpha.involute() == -t.alpha
        view = recognize_dual_form(t.complex)
        assert is_anti_self_dual(view)
        # golden x: alpha x == beta - 1
        assert t.x == poly(G, (-1, 1), (-1, 3))
        assert gr_mul(t.alpha, t.x) == t.beta - GroupRingElement.one(G)
        assert verify_homotopy(t.homotopy).ok
        first = t.homotopy.first
        assert t.homotopy.second == scalar_diagonal_map(first.source, first.target, (1, 1, 1, -1, -1, -1))

    def test_f_components(self):
        t = lens_asd_transform(5)
        G = t.complex.group
        one = GRMatrix.identity(G, 1)
        f = rescaling(t, 5)
        assert f.components == (one, one, GRMatrix.one_by_one(t.beta), one, one, one)
        assert is_chain_map(f).is_chain_map

    @pytest.mark.parametrize("n", range(5, 42, 4))
    def test_f_is_a_chain_map(self, n):
        # f is a chain map by proof from _asd_unit's identities; checked here
        # as an oracle, with the homotopy starting at f phi f*
        t = lens_asd_transform(n)
        f = rescaling(t, n)
        assert is_chain_map(f).is_chain_map
        assert t.homotopy.first == compose_maps(f, compose_maps(lens_duality_map(n), dual_map(f)))

    def test_n13_full(self):
        t = lens_asd_transform(13)
        view = recognize_dual_form(t.complex)
        assert is_anti_self_dual(view)
        assert verify_homotopy(t.homotopy).ok
        assert not obstruction_check(view).obstructed

    def test_homology_unchanged_by_transform(self):
        t = lens_asd_transform(9)
        A = lens_complex(9)
        for coeff in ("integral", "trivial"):
            for d in range(6):
                assert homology(t.complex, d, coeff) == homology(A, d, coeff)

    def test_rejects_other_n(self):
        with pytest.raises(ValueError):
            lens_asd_transform(7)

    @pytest.mark.parametrize("n", [5, 9, 13, 101])
    def test_one_lens_complex_per_transform(self, n, monkeypatch):
        calls = {"cyclic_group": 0, "lens_complex": 0}
        for name in calls:
            real = getattr(lens, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(lens, name, counted)
        t = lens_asd_transform(n)
        assert calls == {"cyclic_group": 1, "lens_complex": 1}
        monkeypatch.undo()

        # the same data built from _asd_unit and the public lens_duality_map
        alpha, beta, beta_inv = lens._asd_unit(cyclic_group(n))
        assert (t.alpha, t.beta, t.beta_inv) == (alpha, beta, beta_inv)
        A = lens_complex(n)
        G = A.group
        m = GRMatrix.one_by_one
        aprime = replace(A, differentials=A.differentials[:2] + (m(alpha),) + A.differentials[3:])
        assert t.complex == aprime
        one = GRMatrix.identity(G, 1)
        f = ChainMap(A, aprime, (one, one, m(beta), one, one, one))
        conjugated = compose_maps(f, compose_maps(lens_duality_map(n), dual_map(f)))
        assert t.homotopy.first == conjugated
        assert gr_mul(alpha, t.x) == beta - GroupRingElement.one(G)
        assert t.x == aprime.solve_boundary(3, m(beta - GroupRingElement.one(G))).entries[0][0]
        diagonal = scalar_diagonal_map(conjugated.source, conjugated.target, (1, 1, 1, -1, -1, -1))
        components = tuple(m(t.x) if i == 2 else GRMatrix.zeros(G, 1, 1) for i in range(5))
        assert t.homotopy == ChainHomotopy(conjugated, diagonal, components)

    def test_closed_form_x_is_the_snf_solution(self):
        # the particular solution that a Smith reduction of boundary(3) of A' gives,
        # kept as the oracle for the closed form
        m = GRMatrix.one_by_one
        for n in range(5, 402, 4):
            t = lens_asd_transform(n)
            G = t.complex.group
            solved = t.complex.solve_boundary(3, m(t.beta - GroupRingElement.one(G)))
            assert t.x == solved.entries[0][0], n

    @pytest.mark.parametrize("n", [5, 9, 13, 101])
    def test_transform_runs_no_smith_reduction(self, n, monkeypatch):
        calls = []
        real = complexes.smith_normal_form

        def counted(A):
            calls.append(A)
            return real(A)

        monkeypatch.setattr(complexes, "smith_normal_form", counted)
        lens_asd_transform(n)
        assert calls == []

    @pytest.mark.parametrize("n", range(5, 102, 4))
    def test_homotopy_ends_at_the_plus_one_diagonal(self, n):
        # against the -1 diagonal the degree-0 identity reads phi_0 = 1 = -1
        t = lens_asd_transform(n)
        src, tgt = t.homotopy.first.source, t.homotopy.first.target
        assert t.homotopy.second == scalar_diagonal_map(src, tgt, (1, 1, 1, -1, -1, -1))
        negated = scalar_diagonal_map(src, tgt, (-1, -1, -1, 1, 1, 1))
        report = verify_homotopy(replace(t.homotopy, second=negated))
        assert (0, False) in report.degrees

    @pytest.mark.parametrize("n", [5, 9, 13, 101])
    def test_verify_homotopy_alone_certifies_x(self, n):
        t = lens_asd_transform(n)
        G = t.complex.group

        def failed_degrees(x):
            comps = t.homotopy.components[:2] + (GRMatrix.one_by_one(x),) + t.homotopy.components[3:]
            report = verify_homotopy(replace(t.homotopy, components=comps))
            return [i for i, ok in report.degrees if not ok]

        assert failed_degrees(t.x) == []
        assert failed_degrees(t.x + GroupRingElement.one(G)) == [2, 3]
        assert failed_degrees(t.x + tpow(G, 1)) == [2, 3]  # drops the t^1 term
        # Sigma is in ker alpha, so x is certified only modulo it
        assert failed_degrees(t.x + norm_element(G)) == []


class TestLensInstance:
    def test_plain(self):
        with pytest.raises(ValueError):
            lens_asd_transform(6)
        assert asd_status(6) == "obstructed"

    def test_with_asd(self):
        asd = lens_asd_transform(13)
        # alpha = t^{k+1} + t^k - t^-k - t^-(k+1) with k = 3
        assert asd.alpha.terms() == [[1, 3], [1, 4], [-1, 9], [-1, 10]]
        assert gr_mul(asd.beta, asd.beta_inv) == GroupRingElement.one(lens_complex(13).group)

    def test_three_mod_four_has_no_construction(self):
        with pytest.raises(ValueError):
            lens_asd_transform(7)
        assert asd_status(7) == "unknown"

    def test_asd_status_rule(self):
        for n in range(2, 40):
            expected = "obstructed" if n % 2 == 0 else "anti-self-dual" if n % 4 == 1 else "unknown"
            assert asd_status(n) == expected
            if expected == "anti-self-dual":
                lens_asd_transform(n)
            else:
                with pytest.raises(ValueError):
                    lens_asd_transform(n)

    def test_homology_spec_values(self):
        A = lens_complex(5)
        zn = AbelianGroupInfo(0, (5,))
        Z = AbelianGroupInfo.free(1)
        zero = AbelianGroupInfo(0, ())
        assert [homology(A, d, "trivial") for d in range(6)] == [Z, zn, zero, zn, zero, Z]
        assert [homology(A, d, "integral") for d in range(6)] == [Z, zero, zero, zero, zero, Z]
