"""Dual-form machinery for algebraic 5-complexes.

A length-6 complex is *in dual form* when its outer differentials mirror,

    F0* -d1*-> F1* -d2*-> F2* -d3-> F2 -d2-> F1 -d1-> F0,

so boundary(5) == dual(boundary(1)) and boundary(4) == dual(boundary(2)).
The middle map d3 then encodes a G-invariant bilinear form on the dual J of
ker(d2).  This module provides:

* the five-move pipeline taking any algebraic 5-complex to a mirrored
  stage-6 shape, with the middle gluing isomorphism chosen as the identity
  (legitimate because the Euler characteristic forces the two middle ranks
  to agree); each move is a simple homotopy expansion, a direct sum with a
  free summand that ``_direct_sum`` appends after the existing blocks, so
  the equivalences are the leading-block inclusion and projection;
* a best-effort solver for the final chain isomorphism between the tail of
  the stage-6 complex and the dual of its head, plus the conjugation step
  that produces an honest dual-form complex from it;
* normalization of a duality equivalence to the shape
  (-1, -1, theta2, theta1, 1, 1), anti-self-duality (d3* == -d3), and the
  even-order/even-rank parity obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

from zgdual.complexes import (
    ChainComplex,
    ChainHomotopy,
    ChainMap,
    _direct_sum,
    bottom_end_report,
    commuting_squares,
    dualize_complex,
    five_complex_report,
    homology,
    is_chain_map,
    top_end_report,
    validate_complex,
    verify_homotopy,
)
from zgdual.group_core import GroupRingElement, _nonzero
from zgdual.gr_linalg import GRMatrix, invert_gr_matrix
from zgdual.int_linalg import (
    IntegerMatrix,
    _combine_rows,
    babai_nearest,
    back_substitute,
    lll_reduce,
    smith_normal_form,
)


# -- the stage-6 pipeline ----------------------------------------------


@dataclass(frozen=True)
class PipelineResult:
    """The stage-6 complex and its moves, the (position, rank) plan that
    ``_direct_sum`` applied: each move is an expansion at degrees position
    and position+1.  The input is its leading blocks; the equivalences, the
    inclusion of those blocks and the projection onto them, are not built."""

    complex: ChainComplex
    moves: tuple[tuple[int, int], ...]


def to_dual_form_stage6(C: ChainComplex) -> PipelineResult:
    """Run the five expansion moves taking an algebraic 5-complex to its
    mirrored stage-6 shape with ranks (c5+c0, c4+c0+c1+c5, ...).

    Moves, in order, add: the dual of the degree-5 module at degrees (1,0);
    the dual of degree 0 at (5,4); then duals of the two enlarged modules at
    (4,3) and (2,1); finally the matched middle pair at (3,2), glued by the
    identity isomorphism (is_member requires Euler characteristic 0, which
    is c0 + c2 + c4 == c1 + c3 + c5: the two middle ranks).  One
    ``_direct_sum`` appends the five summands in that order after the
    existing blocks, so the equivalences are the leading-block inclusion
    and projection.  Each stage-6 boundary is linked to C, so no stage-6
    boundary is expanded or reduced: its reductions are C's, most of which
    the membership check above has made, extended by the identity block
    (ChainComplex.reduction).  A complex assembled from it holds its d1 and
    d2, and its d3 when the iso's k2 is the identity, and reads the same.
    """
    if not five_complex_report(C).is_member:
        raise ValueError("stage-6 pipeline requires an algebraic 5-complex")
    c = C.ranks
    plan = (
        (0, c[5]),
        (4, c[0]),
        (3, c[1] + c[5]),
        (1, c[4] + c[0]),
        (2, c[2] + c[4] + c[0]),
    )
    return PipelineResult(_direct_sum(C, plan), plan)


# -- dual-form recognition ----------------------------------------------


@dataclass(frozen=True)
class DualFormView:
    """A complex recognized in dual form, and the form data read from it.

    The view holds only the complex; readers take d_i as base.boundary(i).
    ``j_rank`` (the Z-rank of J, the dual of ker(d2)) and ``form_rank`` (the
    Z-rank of the form carried by d3) are read when asked for from
    base.reduction(2) and (3), which d2 and d3 keep.
    """

    base: ChainComplex

    @property
    def j_rank(self) -> int:
        C = self.base
        return C.group.order * C.ranks[2] - C.reduction(2).rank

    @property
    def form_rank(self) -> int:
        return self.base.reduction(3).rank


def dual_form_mismatch_reasons(C: ChainComplex) -> tuple[str, ...]:
    reasons = []
    if C.top_degree != 5:
        reasons.append("complex does not have six modules")
        return tuple(reasons)
    if not validate_complex(C).ok:
        reasons.append("compositions are nonzero")
    if (C.ranks[5], C.ranks[4], C.ranks[3]) != (C.ranks[0], C.ranks[1], C.ranks[2]):
        reasons.append("ranks do not mirror")
    if C.boundary(5) != C.boundary(1).dual():
        reasons.append("boundary(5) is not the dual of boundary(1)")
    if C.boundary(4) != C.boundary(2).dual():
        reasons.append("boundary(4) is not the dual of boundary(2)")
    return tuple(reasons)


def recognize_dual_form(C: ChainComplex):
    """The DualFormView of C, or None when C is not in dual form."""
    return None if dual_form_mismatch_reasons(C) else DualFormView(C)


# -- anti-self-duality and the parity obstruction ------------------------


def is_anti_self_dual(view: DualFormView) -> bool:
    """True exactly when d3* == -d3 (the form is antisymmetric)."""
    d3 = view.base.boundary(3)
    return d3.dual() == -d3


@dataclass(frozen=True)
class ObstructionReport:
    """Parity obstruction: an antisymmetric nondegenerate form cannot live
    on an odd-rank lattice, so even |G| plus even rank of the degree-3
    homology of the cover rules out an anti-self-dual representative.
    """

    group_order_even: bool
    h3_free_rank: int
    obstructed: bool
    j_rank_congruence: int  # j_rank mod |G|; always |G| - 1 for these complexes
    j_rank: int
    form_rank: int
    cross_check_ok: bool  # h3_free_rank == j_rank - form_rank (kernel of the form)


def obstruction_check(view: DualFormView) -> ObstructionReport:
    order = view.base.group.order
    h3 = homology(view.base, 3, "integral").free_rank
    even_order = order % 2 == 0
    return ObstructionReport(
        group_order_even=even_order,
        h3_free_rank=h3,
        obstructed=even_order and h3 % 2 == 0,
        j_rank_congruence=view.j_rank % order,
        j_rank=view.j_rank,
        form_rank=view.form_rank,
        cross_check_ok=h3 == view.j_rank - view.form_rank,
    )


# -- normalizing a duality equivalence ------------------------------------


@dataclass(frozen=True)
class NormalizedDuality:
    """A duality equivalence pushed to the shape (-1,-1,theta2,theta1,1,1).

    ``homotopy`` connects psi, its ``first`` map, to the (possibly globally
    negated) input phi, its ``second``.  The central square
    d3 theta2 == theta1 d3* always holds exactly: it is psi's square at
    boundary(3), the dual's boundary(3) being d3*, and normalize_duality
    proves psi a chain map without multiplying it out.  The diagonal
    augmentation residues of theta1/theta2 mod |G| are recorded but only
    asserted for specific families by callers.
    """

    theta1: GRMatrix
    theta2: GRMatrix
    homotopy: ChainHomotopy
    negated: bool
    theta1_aug_residue: int
    theta2_aug_residue: int


def _diag_aug_residue(A: GRMatrix) -> int:
    order = A.group.order
    total = sum(line[i].augmentation() for i, line in enumerate(A.sparse_rows) if i in line)
    return total % order


def _solve_or_fail(C: ChainComplex, i: int, B: GRMatrix, what: str) -> GRMatrix:
    X = C.solve_boundary(i, B)
    if X is None:
        raise ValueError(f"lift {what} is unsolvable; the input is not a duality equivalence "
                         "over an algebraic 5-complex in dual form")
    return X


def normalize_duality(view: DualFormView, phi: ChainMap) -> NormalizedDuality:
    """Homotope phi: dual(C) -> C to psi = (-1, -1, theta2, theta1, 1, 1).

    Requires valid stored certificates on C, as the end reports judge them
    (dual(C) stores C's, swapped), and end scalars (1, -1); a phi with
    scalars (-1, 1) is globally negated first, which preserves the complex
    (boundary(3) is never touched).  The lifts I0, I1 and the dualized I4,
    I3 exist exactly because the complex is exact at degrees 1 and 4 with Z
    ends; I2 = 0.

    psi is a chain map by proof, not by check.  It requires d d == 0 on the
    view's complex C, which recognize_dual_form and assemble_dual_form check
    before they build a view (a view built any other way must hold such a
    C); since (AB)* == B* A*, so has dual(C), whose differential is written
    D here.  phi's squares are checked here, and psi - phi == d I + I D is
    the checked homotopy.  Degreewise, d (d I + I D) == d I D ==
    (d I + I D) D, so psi's squares follow from phi's; the central square
    is the one at boundary(3).
    """
    C = view.base
    if phi.target != C or phi.source != dualize_complex(C):
        raise ValueError("phi must map the dual of the recognized complex to the complex")
    # the end scalars read the stored certificates, so judge them first;
    # phi.source's are C's swapped
    for end, end_report in (("bottom", bottom_end_report), ("top", top_end_report)):
        if end_report(C).certificate_valid is False:
            raise ValueError(f"the stored {end} certificate does not generate the {end} end")
    report = is_chain_map(phi)
    if not report.is_chain_map:
        raise ValueError("phi is not a chain map")
    scalars = report.end_scalars
    negated = False
    if scalars == (-1, 1):
        phi = ChainMap(phi.source, phi.target, tuple(-c for c in phi.components))
        negated = True
        scalars = (1, -1)
    if scalars != (1, -1):
        raise ValueError(f"end scalars must be (1, -1) up to global sign, got {scalars}")

    G = C.group
    d1, d2 = C.boundary(1), C.boundary(2)
    r0, r1, r2 = C.ranks[0], C.ranks[1], C.ranks[2]
    one0 = GRMatrix.identity(G, r0)
    one1 = GRMatrix.identity(G, r1)
    p0, p1, p2, p3, p4, p5 = phi.components

    # the lifts solve against boundary(1) and boundary(2), reduced once on C
    I0 = _solve_or_fail(C, 1, one0 - p0, "I0")
    I1 = _solve_or_fail(C, 2, one1 - p1 - I0 @ d1, "I1")
    I4_dual = _solve_or_fail(C, 1, -one0 - p5.dual(), "I4*")
    I3_dual = _solve_or_fail(C, 2, -one1 - p4.dual() - I4_dual @ d1, "I3*")
    I4 = I4_dual.dual()
    I3 = I3_dual.dual()
    I2 = GRMatrix.zeros(G, r2, r2)

    theta1 = p2 + I1 @ d2
    theta2 = p3 + d2.dual() @ I3

    psi = ChainMap(phi.source, phi.target, (one0, one1, theta1, theta2, -one1, -one0))
    homotopy = ChainHomotopy(first=psi, second=phi, components=(I0, I1, I2, I3, I4))
    if not verify_homotopy(homotopy).ok:
        raise AssertionError("constructed homotopy fails verification")

    return NormalizedDuality(
        theta1=theta1,
        theta2=theta2,
        homotopy=homotopy,
        negated=negated,
        theta1_aug_residue=_diag_aug_residue(theta1),
        theta2_aug_residue=_diag_aug_residue(theta2),
    )


# -- the final chain isomorphism (tail vs dual head) ----------------------


def tail_segment(C6: ChainComplex) -> ChainComplex:
    """Degrees 0..2 of a length-6 complex, as a 3-term complex."""
    return ChainComplex(
        C6.group,
        C6.ranks[:3],
        (C6.boundary(1), C6.boundary(2)),
        bottom_generator=C6.bottom_generator,
    )


def dual_head_segment(C6: ChainComplex) -> ChainComplex:
    """The dual of degrees 5..3, regraded as a 3-term complex."""
    return ChainComplex(
        C6.group,
        (C6.ranks[5], C6.ranks[4], C6.ranks[3]),
        (C6.boundary(5).dual(), C6.boundary(4).dual()),
    )


# the most Z-coordinates the iso search's lattice may have, as many as one
# module of a file may (serialize.MAX_MODULE_ZRANK); every twisted L(n) a
# file may hold has at most 56,000
MAX_SEARCH_UNKNOWNS = 2**16


@dataclass(frozen=True)
class ChainIsoPair:
    """Mutually inverse chain isomorphisms between two 3-term complexes."""

    h: tuple[GRMatrix, GRMatrix, GRMatrix]
    k: tuple[GRMatrix, GRMatrix, GRMatrix]


def _lattice_offsets(a: ChainComplex, b: ChainComplex):
    N = a.group.order
    sizes = [b.ranks[i] * a.ranks[i] * N for i in range(3)]
    return [0, sizes[0], sizes[0] + sizes[1]], sum(sizes)


def _chain_map_constraints(a: ChainComplex, b: ChainComplex) -> IntegerMatrix:
    """The integer matrix A whose kernel is the lattice of chain maps a -> b.

    Unknowns are the Z-coordinates of the three components, flattened as in
    _flatten; row (deg, p, q, r) is coefficient r of entry (p, q) of
    D @ h_deg - h_{deg-1} @ d, so A @ _flatten(h) == _flatten(D h - h' d).
    Left multiplication by D[p][j] is block (p, j) of b.integer_matrix(deg).
    Right multiplication by c is P expand(c)^T P for the inversion
    permutation P, since expand(dual(c)) == expand(c)^T; so it is read from
    a column of a.integer_matrix(deg).

    A is built as sparse rows from the sparse rows of b's expansions and
    the columns of a's (the transpose of its sparse rows), so each row
    costs only its nonzeros.
    """
    N = a.group.order
    inv = a.group.inv_table
    offsets, total = _lattice_offsets(a, b)

    rows = []
    for deg in (1, 2):
        D = b.integer_matrix(deg)  # b_deg -> b_{deg-1}
        d = a.integer_matrix(deg)  # a_deg -> a_{deg-1}
        # row p N + r of D at q == 0: column j N + s becomes coordinate s
        # of entry (j, 0) of h_deg; entry (j, q) is q N further on
        left = [
            [(offsets[deg] + (c - c % N) * a.ranks[deg] + c % N, v) for c, v in line.items()]
            for line in D.sparse_rows
        ]
        # column c of d, negated, with j N + t read at j N + inv[t]
        flipped = [[(i - i % N + inv[i % N], -v) for i, v in col.items()] for col in d.transpose().sparse_rows]
        for p in range(b.ranks[deg - 1]):
            right = offsets[deg - 1] + p * a.ranks[deg - 1] * N
            for q in range(a.ranks[deg]):
                for r in range(N):
                    row = {col + q * N: v for col, v in left[p * N + r]}
                    row.update((right + k, v) for k, v in flipped[q * N + inv[r]])
                    rows.append(row)

    return IntegerMatrix._from_sparse_rows(total, rows)


def _unflatten_triple(a: ChainComplex, b: ChainComplex, vec):
    G = a.group
    N = G.order
    offsets, _ = _lattice_offsets(a, b)
    comps = []
    for idx in range(3):
        lines = []
        for i in range(b.ranks[idx]):
            line = {}
            for j in range(a.ranks[idx]):
                base = offsets[idx] + (i * a.ranks[idx] + j) * N
                if support := _nonzero(vec[base : base + N]):
                    line[j] = GroupRingElement._from_support(G, support)
            lines.append(line)
        comps.append(GRMatrix._from_sparse_rows(G, a.ranks[idx], lines))
    return tuple(comps)


def _flatten(matrices) -> list[int]:
    """The Z-coordinates of GRMatrix entries: matrix, row, column, group element."""
    out = []
    for M in matrices:
        N = M.group.order
        base = len(out)
        out += [0] * (M.rows * M.cols * N)
        for p, line in enumerate(M.sparse_rows):
            for q, e in line.items():
                at = base + (p * M.cols + q) * N
                for i, a in e.support:
                    out[at + i] = a
    return out


def _is_chain_iso(a: ChainComplex, b: ChainComplex, h, k) -> bool:
    """True exactly when h: a -> b and k: b -> a are chain maps of 3-term
    complexes, three components each, with k_i h_i == 1 == h_i k_i at every
    degree.  Its one caller is assemble_dual_form, whose pair may come from
    outside the program; a and b must have equal ranks.

    Shapes are compared first: each h_i and k_i must be (a.ranks[i],
    a.ranks[i]), so no product meets a wrong shape.  Write D for the
    boundary of b and d for that of a.  When all six components are
    identities, the boundaries are compared and nothing is multiplied:
    D_i I == I d_i exactly when D_i == d_i, and I I == I.  Otherwise only
    h's squares and h_i k_i == 1 are multiplied out.  The components being
    square, k_i h_i == 1 follows (see invert_gr_matrix), and k's squares
    follow from h's and the inverse identities, as
    k_{i-1} D_i == k_{i-1} D_i h_i k_i == k_{i-1} h_{i-1} d_i k_i == d_i k_i.
    """
    if not (
        len(h) == len(k) == 3
        and all((m.rows, m.cols) == (r, r) for r, h_i, k_i in zip(a.ranks, h, k) for m in (h_i, k_i))
    ):
        return False
    ones = [GRMatrix.identity(a.group, r) for r in a.ranks]
    if all(h_i == one == k_i for one, h_i, k_i in zip(ones, h, k)):
        return a.differentials == b.differentials
    return commuting_squares(a, b, h, (1, 2)).ok and all(h_i @ k_i == one for one, h_i, k_i in zip(ones, h, k))


def _inverted_pair(comps) -> ChainIsoPair | None:
    """comps with its inverse over Z[G], or None if a component is no unit.

    A component equal to the identity is its own inverse, so it is its own
    k_i and is not expanded, reduced or solved; inverses are unique, so
    that k_i equals what invert_gr_matrix would return.  Every other
    component is inverted by invert_gr_matrix.
    """
    inverses = []
    for m in comps:
        inverse = m if m == GRMatrix.identity(m.group, m.rows) else invert_gr_matrix(m)
        if inverse is None:
            return None
        inverses.append(inverse)
    return ChainIsoPair(h=tuple(comps), k=tuple(inverses))


def solve_chain_isomorphism(tail: ChainComplex, head: ChainComplex, budget: int = 64):
    """Search for mutually inverse chain isomorphisms tail -> head.

    At most ``budget`` trials, in this order:

    1. the identity, its own inverse: a chain map exactly when the two
       boundaries are equal, so they are compared;
    2. the affine point id + x, where x solves A x == -A vec(id) for the
       constraint matrix A of chain maps tail -> head (one SNF of A, free
       coordinates zero);
    3. the Babai nearest-plane point to the identity on the LLL-reduced
       kernel of A, read from the same SNF.

    So budget 1 tries the identity only, 2 adds the affine trial, and 3 or
    more adds Babai; a budget below 1 is a ValueError, and so is a lattice
    of more than MAX_SEARCH_UNKNOWNS unknowns once the identity trial has
    failed, checked before anything is built.  Each trial is
    decided by the one fact its construction leaves open.  The affine and
    Babai candidates h lie in ker A, and A vec(h) == vec(D h - h' d), so h
    is a chain map; its square components are inverted over Z[G], and the
    trial fails when one is not a unit.  A component equal to the identity
    is its own inverse and is not inverted (see _inverted_pair); for every
    other one invert_gr_matrix solves h_i k_i == 1 exactly.  k_i h_i == 1
    and k's squares follow, as _is_chain_iso's docstring proves, so the
    search multiplies nothing.
    Returns a ChainIsoPair or None; None means the search ran and failed,
    not that no isomorphism exists.
    """
    if tail.group != head.group or tail.ranks != head.ranks:
        raise ValueError("segments must share the group and the per-degree ranks")
    if tail.top_degree != 2 or head.top_degree != 2:
        raise ValueError("segments must be 3-term complexes")
    if budget < 1:
        raise ValueError(f"the search budget must be at least 1, got {budget}")

    ident = tuple(GRMatrix.identity(tail.group, r) for r in tail.ranks)
    if tail.differentials == head.differentials:
        return ChainIsoPair(h=ident, k=ident)
    if budget < 2:
        return None
    _, unknowns = _lattice_offsets(tail, head)
    if unknowns > MAX_SEARCH_UNKNOWNS:
        raise ValueError(
            f"the chain-map lattice has {unknowns} unknowns, above the search limit {MAX_SEARCH_UNKNOWNS}"
        )

    A = _chain_map_constraints(tail, head)
    snf = smith_normal_form(A)
    e = _flatten(ident)
    # A e is the identity's residual D - d, and A (e + x) == 0 always has the
    # solution x = -e, so back_substitute finds one
    minus_Ae = _flatten(tail.boundary(k) - head.boundary(k) for k in (1, 2))
    x = back_substitute(snf, IntegerMatrix._from_sparse_rows(1, ({0: v} if v else {} for v in minus_Ae)))
    affine = [v + xi.get(0, 0) for v, xi in zip(e, x.sparse_rows)]
    found = _inverted_pair(_unflatten_triple(tail, head, affine))
    if found or budget < 3:
        return found

    nearest = babai_nearest(lll_reduce(snf.kernel_columns()), e)
    return _inverted_pair(_unflatten_triple(tail, head, nearest))


@dataclass(frozen=True)
class AssembledDualForm:
    complex: ChainComplex
    view: DualFormView


def assemble_dual_form(C6: ChainComplex, iso: ChainIsoPair) -> AssembledDualForm:
    """Conjugate a stage-6 complex into honest dual form.

    ``iso`` must be a pair of mutually inverse chain isomorphisms from the
    tail of C6 to the dual of its head.  It may come from outside the
    program, so _is_chain_iso checks it here, and only here.  The new
    middle differential is boundary(3) composed with the dual of the
    inverse's middle component; when that component is the identity,
    boundary(3) is kept as it is (X I == X), with no product, so the
    result holds C6's own d1, d2 and d3 and reads any reduction C6 has
    made of them (ChainComplex.reduction).  The outer differentials become
    mirrors.  The result is validated, since C6 never is, and then mirrors
    by construction, so its view needs no recognition.

    The conjugation C6 -> result, (1, 1, 1, h2*, h1*, h0*), is a chain map
    by proof, so it is not built: its squares at degrees 1-2 are identities
    on the shared d1, d2; at 3, d3 k2* h2* == d3 (h2 k2)* == d3; at 4-5,
    the duals of h's.
    """
    if C6.top_degree != 5:
        raise ValueError("assembly requires a length-6 complex")
    tail = tail_segment(C6)
    head = dual_head_segment(C6)
    if tail.ranks != head.ranks:
        raise ValueError("tail and dual head ranks disagree; run the stage-6 pipeline first")
    if not _is_chain_iso(tail, head, iso.h, iso.k):
        raise ValueError("iso is not a pair of mutually inverse chain maps between the tail and the dual head")

    G = C6.group
    d1 = C6.boundary(1)
    d2 = C6.boundary(2)
    k2 = iso.k[2]
    d3 = C6.boundary(3)
    if k2 != GRMatrix.identity(G, k2.rows):
        d3 = d3 @ k2.dual()
    ranks = C6.ranks[:3] + (C6.ranks[2], C6.ranks[1], C6.ranks[0])

    # the augmentation of h0's dual is the transpose of h0's.  Since h0 k0 = 1,
    # aug(h0) is unimodular: the transported certificate is primitive exactly
    # when C6's is, and the end reports judge it like any stored one
    top = None if C6.top_generator is None else _combine_rows(C6.top_generator, iso.h[0].augmented())

    assembled = ChainComplex(
        G,
        ranks,
        (d1, d2, d3, d2.dual(), d1.dual()),
        top_generator=top,
        bottom_generator=C6.bottom_generator,
    )
    if not validate_complex(assembled).ok:
        raise ValueError("assembled complex has nonzero compositions; iso was not a chain isomorphism")
    return AssembledDualForm(complex=assembled, view=DualFormView(assembled))
