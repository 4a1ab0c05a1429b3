"""Chain complexes of free Z[G]-modules, chain maps, and homotopies.

A complex stores ranks by ascending degree and the boundary maps
boundary(i): F_i -> F_{i-1}.  Length-6 complexes (degrees 5..0) model
algebraic 5-complexes: exact at degrees 4 and 1, augmented ends isomorphic
to Z (with trivial G-action), Euler characteristic 0.

The two augmented-end identifications are carried as small integer
*generator certificates* when known:

* ``bottom_generator`` b: the map F_0 -> Z sending a column x to
  sum_j b[j] * augmentation(x_j); it must kill im(boundary(1)).
* ``top_generator`` m: the element (m[0]*Sigma, ..., m[r-1]*Sigma) of the
  top module, a G-fixed generator of ker(boundary(top)).

A certificate is valid exactly when it equals, up to sign, the generator
that the end report derives from the end's reduction.  Every other reader
takes it sign-normalized, so a file's signs change no verdict.

Homology is available for two coefficient systems: "integral" expands each
boundary map to its integer matrix on Z-bases (homology of the universal
cover), "trivial" applies the augmentation entrywise (homology of the base).
Augmented ends are never included: degree 0 is a cokernel, the top degree a
kernel, exactly as for the raw complex.

A boundary's Smith decomposition lives on its matrix (GRMatrix._reductions,
one per coefficient system); the first complex that needs it fills it from
a twin, the summand link or a reduction (ChainComplex.reduction, the one
read path).  A twin is an earlier boundary equal to it, whose decomposition
is shared, or equal to its dual, whose decomposition is read transposed,
since expansion and augmentation turn the dual into the transpose; so a
complex in dual form (d5 = d1*, d4 = d2*) reduces neither degree 5 nor
degree 4.  The summand link is what a simple homotopy expansion
(_direct_sum, as the stage-6 pipeline makes it) writes on each boundary
d_k + I + 0 it builds: such a boundary reads its summand's reduction of
degree k extended by the identity block (SmithDecomposition.extended).
Every source gives the diagonal of a fresh reduction, but maybe other
logs, so a particular solution read in-process may differ from a fresh
reduction's while solving the same system; a file carries no link or
decomposition, so nothing read back from one is affected.  The d.d == 0
checks, the end reports and the dual complex are memoized on the
instance; integer matrices are built when read and dropped once reduced.
Every decomposition keeps its operation logs; the readers that need
vectors (the end generators and the lifts) replay them on just those.  The
two augmented ends share one path: the top end is read as the bottom end of
the transposed decomposition and augmentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from zgdual.group_core import FiniteGroup, GroupRingElement
from zgdual.gr_linalg import GRMatrix, fold_columns, stack_columns
from zgdual.int_linalg import (
    AbelianGroupInfo,
    IntegerMatrix,
    SmithDecomposition,
    _combine_rows,
    back_substitute,
    homology_from_invariants,
    smith_normal_form,
)

COEFFS = ("integral", "trivial")


@dataclass(frozen=True)
class ChainComplex:
    """Free Z[G]-complex; differentials[i] is boundary(i+1): F_{i+1} -> F_i."""

    group: FiniteGroup
    ranks: tuple[int, ...]
    differentials: tuple[GRMatrix, ...]
    top_generator: tuple[int, ...] | None = None
    bottom_generator: tuple[int, ...] | None = None

    def __post_init__(self):
        if any(r < 0 for r in self.ranks):
            raise ValueError(f"ranks must be nonnegative, got {self.ranks}")
        if len(self.differentials) != max(len(self.ranks) - 1, 0):
            raise ValueError("need exactly one differential per adjacent pair of degrees")
        for i, d in enumerate(self.differentials):
            if d.group != self.group:
                raise ValueError(f"differential {i + 1} lives over a different group")
            if (d.rows, d.cols) != (self.ranks[i], self.ranks[i + 1]):
                raise ValueError(
                    f"boundary({i + 1}) has shape {d.rows}x{d.cols}, "
                    f"expected {self.ranks[i]}x{self.ranks[i + 1]}"
                )
        if self.top_generator is not None and len(self.top_generator) != self.ranks[-1]:
            raise ValueError("top generator length must equal the top rank")
        if self.bottom_generator is not None and len(self.bottom_generator) != self.ranks[0]:
            raise ValueError("bottom generator length must equal the degree-0 rank")

    @property
    def top_degree(self) -> int:
        return len(self.ranks) - 1

    def boundary(self, i: int) -> GRMatrix:
        """The differential F_i -> F_{i-1}, for 1 <= i <= top_degree."""
        if not 1 <= i <= self.top_degree:
            raise ValueError(f"no boundary map at degree {i}")
        return self.differentials[i - 1]

    @cached_property
    def _memo(self) -> dict:
        # lives in the instance __dict__, outside the fields: eq, hash,
        # replace() and every constructor start a new complex without it
        return {}

    def integer_matrix(self, i: int, coefficients: str = "integral") -> IntegerMatrix:
        """boundary(i) on Z-bases, built on each call: expanded for
        "integral" coefficients, augmented for "trivial"; 1 <= i <= top_degree.
        """
        if coefficients not in COEFFS:
            raise ValueError(f"coefficients must be one of {COEFFS}")
        d = self.boundary(i)
        return d.expand() if coefficients == "integral" else d.augmented()

    def reduction(self, i: int, coefficients: str = "integral") -> SmithDecomposition:
        """A Smith decomposition of integer_matrix(i), kept on boundary(i)
        (GRMatrix._reductions) and read by every complex holding it.

        A miss fills it once, from the first of: the twin degree (_twin),
        shared as is when equal and read transposed when dual, since
        expansion and augmentation turn the dual into the transpose; the
        summand link of a boundary that _direct_sum built
        (_summand_reduction); a fresh reduction.  The diagonal is always a
        fresh reduction's, the logs may not be, so a particular solution
        read from it (solve_boundary) may differ from a fresh one's while
        solving the same system.
        """
        d = self.boundary(i)
        kept = d._reductions
        if kept is None:
            kept = d._reductions = {}
        snf = kept.get(coefficients)
        if snf is None:
            j = self._twin(i)
            if j < i:
                snf = self.reduction(j, coefficients)
                if self.boundary(j) != d:
                    snf = snf.transposed()
            elif d._summand is not None:
                snf = _summand_reduction(d, coefficients)
            else:
                snf = smith_normal_form(self.integer_matrix(i, coefficients))
            kept[coefficients] = snf
        return snf

    def _twin(self, i: int) -> int:
        """The first degree j <= i whose boundary equals boundary(i) or its dual."""
        d = self.boundary(i)
        # the dual is built only when an earlier boundary has its shape
        earlier_shapes = {(b.rows, b.cols) for b in self.differentials[: i - 1]}
        same = (d, d.dual()) if (d.cols, d.rows) in earlier_shapes else (d,)
        return next(j for j in range(1, i + 1) if self.boundary(j) in same)

    def composition_zero(self, i: int, coefficients: str = "integral") -> bool:
        """boundary(i) . boundary(i+1) == 0, for 1 <= i < top_degree.

        Integral: the product over Z[G], which vanishes exactly when the
        expanded product does (expansion is a faithful ring map).  Trivial:
        the product of the augmented matrices.
        """
        if not 1 <= i < self.top_degree:
            raise ValueError(f"no composition at degree {i}")
        key = ("composition", i, coefficients)
        ok = self._memo.get(key)
        if ok is None:
            if coefficients == "integral":
                ok = (self.boundary(i) @ self.boundary(i + 1)).is_zero
            else:
                ok = (self.integer_matrix(i, coefficients) @ self.integer_matrix(i + 1, coefficients)).is_zero
            self._memo[key] = ok
        return ok

    def solve_boundary(self, i: int, B: GRMatrix):
        """An X over Z[G] with boundary(i) @ X == B, or None when none exists.

        Solvable exactly when solve_gr_linear(boundary(i), B) is; the
        solution is back-substituted through reduction(i).
        """
        d = self.boundary(i)
        if B.group != self.group or B.rows != d.rows:
            raise ValueError(f"right-hand side does not match boundary({i})")
        X = back_substitute(self.reduction(i), stack_columns(B))
        return None if X is None else fold_columns(self.group, X, d.cols)


def _direct_sum(C: ChainComplex, plan) -> ChainComplex:
    """C plus one free summand per (position, rank) move of ``plan``, in
    order, each a simple homotopy expansion.  A move appends ``rank``
    generators after the existing ones at degrees position and position+1:
    boundary(position+1) gains rows that are the identity on its new
    columns, boundary(position+2) gains zero rows, and every boundary is
    zero-padded on its new columns, as are the end certificates.

    So boundary(k) is C's boundary(k), whose very row objects come first,
    plus a partial identity past C's rows and columns.  Each boundary
    built here carries that as its link (GRMatrix._summand): C, k and the
    positions of the appended ``one`` entries, which ChainComplex.reduction
    reads (_summand_reduction).
    """
    G = C.group
    one = GroupRingElement.one(G)
    ranks = list(C.ranks)
    lines = [list(d.sparse_rows) for d in C.differentials]  # lines[k - 1]: the rows of boundary(k)
    ones = [[] for _ in lines]  # ones[k - 1]: the positions of boundary(k)'s appended ones
    for p, r in plan:
        ones[p].extend((ranks[p] + i, ranks[p + 1] + i) for i in range(r))
        lines[p].extend({ranks[p + 1] + i: one} for i in range(r))
        if p + 1 < len(lines):
            lines[p + 1].extend({} for _ in range(r))
        ranks[p] += r
        ranks[p + 1] += r
    differentials = []
    for k, (cols, rows, at) in enumerate(zip(ranks[1:], lines, ones), 1):
        d = GRMatrix._from_sparse_rows(G, cols, rows)
        d._summand = (C, k, tuple(at))
        differentials.append(d)
    top, bottom = C.top_generator, C.bottom_generator
    return ChainComplex(
        G,
        tuple(ranks),
        tuple(differentials),
        top_generator=None if top is None else tuple(top) + (0,) * (ranks[-1] - C.ranks[-1]),
        bottom_generator=None if bottom is None else tuple(bottom) + (0,) * (ranks[0] - C.ranks[0]),
    )


def _summand_reduction(d: GRMatrix, coefficients: str) -> SmithDecomposition:
    """The reduction of a boundary d that _direct_sum built, read from its
    summand's: the summand's reduction of degree k, extended by the
    appended partial identity (SmithDecomposition.extended).

    The block structure that relies on is checked first, and a break of it
    raises AssertionError: d's leading rows are the summand boundary's
    very rows, one identity check per row, and each later row is empty or
    a lone ``one`` at its linked column.  ``extended`` checks that those
    columns are distinct and past the summand's.  Expansion turns each
    ``one`` into I_|G| and augmentation into 1.
    """
    S, k, ones = d._summand
    A = S.boundary(k)
    at = dict(ones)
    one = GroupRingElement.one(d.group)
    if (
        any(x is not y for x, y in zip(d.sparse_rows, A.sparse_rows))
        or any(line != ({at[r]: one} if r in at else {}) for r, line in enumerate(d.sparse_rows[A.rows :], A.rows))
    ):
        raise AssertionError(f"boundary({k}) is not its summand's plus a partial identity past it")
    N = d.group.order if coefficients == "integral" else 1
    ones = [(r * N + a, c * N + a) for r, c in ones for a in range(N)]
    return S.reduction(k, coefficients).extended(d.rows * N, d.cols * N, ones)


@dataclass(frozen=True)
class DegreewiseReport:
    """An identity checked one degree at a time: (degree, holds) pairs and
    one failure string per degree where it does not hold."""

    degrees: tuple[tuple[int, bool], ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(flag for _, flag in self.degrees)


def _by_degree(degrees, holds, failure) -> DegreewiseReport:
    """holds(i) at each degree i, with failure(i) for each degree where it
    is False.  Every verdict on complexes, chain maps and homotopies is read
    through here."""
    checked = tuple((i, holds(i)) for i in degrees)
    return DegreewiseReport(checked, tuple(failure(i) for i, ok in checked if not ok))


def validate_complex(C: ChainComplex) -> DegreewiseReport:
    """Check d.d == 0 at every internal degree (shapes hold by construction)."""
    return _by_degree(
        range(1, C.top_degree),
        C.composition_zero,
        lambda i: f"boundary({i}) . boundary({i + 1}) is nonzero at degree {i}",
    )


def euler_characteristic(C: ChainComplex) -> int:
    """Alternating sum of Z-ranks: sum (-1)^i * ranks[i] * |G|."""
    sign = 1
    total = 0
    for r in C.ranks:
        total += sign * r * C.group.order
        sign = -sign
    return total


def dualize_complex(C: ChainComplex) -> ChainComplex:
    """Reverse the grading and replace each boundary by its dual.  No signs.

    The generator certificates swap roles: the dual of the degree-0
    augmentation becomes the top kernel generator and vice versa.  Built
    once per complex and memoized on it, so every reader of the dual, and
    of the dual's reductions, shares one complex.
    """
    D = C._memo.get("dual")
    if D is None:
        T = C.top_degree
        D = C._memo["dual"] = ChainComplex(
            group=C.group,
            ranks=tuple(reversed(C.ranks)),
            differentials=tuple(C.boundary(T + 1 - i).dual() for i in range(1, T + 1)),
            top_generator=C.bottom_generator,
            bottom_generator=C.top_generator,
        )
    return D


# -- homology ------------------------------------------------------------


def homology(C: ChainComplex, degree: int, coefficients: str = "integral") -> AbelianGroupInfo:
    """ker(boundary(degree)) / im(boundary(degree+1)), from C's reductions:
    the rank identity of int_linalg.homology_from_invariants, with the rank
    of boundary(degree) and the invariant factors of boundary(degree+1).  A
    boundary outside 1..top_degree is a zero map at an end.

    Raises ValueError when the two boundaries at the spot do not compose to
    zero (see ChainComplex.composition_zero); other spots still answer.
    """
    if coefficients not in COEFFS:
        raise ValueError(f"coefficients must be one of {COEFFS}")
    T = C.top_degree
    if not 0 <= degree <= T:
        raise ValueError(f"degree {degree} out of range 0..{T}")
    if 0 < degree < T and not C.composition_zero(degree, coefficients):
        raise ValueError(
            f"boundary({degree}) . boundary({degree + 1}) is nonzero at degree {degree}: "
            "not a complex at this spot"
        )
    middle = C.ranks[degree] * (C.group.order if coefficients == "integral" else 1)
    outgoing_rank = C.reduction(degree, coefficients).rank if degree >= 1 else 0
    incoming_factors = C.reduction(degree + 1, coefficients).diagonal if degree < T else ()
    return homology_from_invariants(middle, outgoing_rank, incoming_factors)


# -- augmented ends ----------------------------------------------------


@dataclass(frozen=True)
class EndReport:
    """One augmented end: is the (co)kernel Z, with trivial G-action?"""

    group_info: AbelianGroupInfo
    generator: tuple[int, ...] | None  # derived per-basis-element integers, sign-normalized
    certificate_valid: bool | None  # None when the complex carries no certificate

    @property
    def ok(self) -> bool:
        return self.generator is not None and self.certificate_valid is not False


def _normalize_sign(vec):
    for v in vec:
        if v:
            return tuple(vec) if v > 0 else tuple(-x for x in vec)
    return tuple(vec)


def _blocks_constant(vec, rank, N):
    """Per-block values when vec is constant on each length-N block, else None.

    Right multiplication by g sends Z-coordinate (j, a) to (j, a*g) and acts
    transitively on each block, so block-constancy is exactly G-invariance of
    the vector (or functional) -- the trivial-action condition on the ends.
    """
    out = []
    for j in range(rank):
        block = vec[j * N : (j + 1) * N]
        if any(v != block[0] for v in block):
            return None
        out.append(block[0])
    return tuple(out)


def _end_report(C: ChainComplex, snf: SmithDecomposition, rank: int, info, certificate) -> EndReport:
    """The end of rank ``rank`` whose group is ``info``.  When that is Z, the
    U row of ``snf`` past its rank spans it; when that row is block-constant,
    its block values are the generator.

    A stored certificate is valid exactly when it equals the generator up
    to sign.  The bottom functionals (top kernel vectors) of the expanded
    boundary form a rank-1 lattice, which the primitive U row spans.  A
    block-constant certificate lies in it exactly when it kills the
    augmented boundary, and if it is also primitive, it is that row or its
    negative.  On any other end no certificate is valid.
    """
    generator = None
    if info == AbelianGroupInfo.free(1):
        g = _blocks_constant(snf.U_row(snf.rank), rank, C.group.order)
        if g is not None:
            generator = _normalize_sign(g)
    valid = None if certificate is None else generator is not None and _normalize_sign(certificate) == generator
    return EndReport(info, generator, valid)


def bottom_end_report(C: ChainComplex) -> EndReport:
    """coker(boundary(1)) with its G-action; derives the generator and
    judges the stored certificate against it.  Memoized on C, so the
    membership report and normalize_duality share one."""
    report = C._memo.get("bottom_end")
    if report is None:
        snf = C.reduction(1)
        info = homology_from_invariants(C.ranks[0] * C.group.order, 0, snf.diagonal)
        report = C._memo["bottom_end"] = _end_report(C, snf, C.ranks[0], info, C.bottom_generator)
    return report


def top_end_report(C: ChainComplex) -> EndReport:
    """ker(boundary(top)) with its G-action; derives the generator and
    judges the stored certificate against it.  Memoized on C.

    It is the bottom end of the transposes: the column of V past the rank
    is a U row of reduction(top).transposed().  The kernel is free, so its
    group is Z^nullity.
    """
    report = C._memo.get("top_end")
    if report is None:
        T = C.top_degree
        snf = C.reduction(T).transposed()
        info = AbelianGroupInfo.free(snf.rows - snf.rank)
        report = C._memo["top_end"] = _end_report(C, snf, C.ranks[T], info, C.top_generator)
    return report


@dataclass(frozen=True)
class FiveComplexReport:
    """Membership report for the algebraic 5-complex conditions."""

    valid: bool
    length_ok: bool
    exact_at_1: bool
    exact_at_4: bool
    bottom: EndReport | None  # the ends are None only when not (valid and length_ok)
    top: EndReport | None
    euler: int

    @property
    def is_member(self) -> bool:
        return (
            self.valid
            and self.length_ok
            and self.exact_at_1
            and self.exact_at_4
            and self.bottom.ok
            and self.top.ok
            and self.euler == 0
        )


def five_complex_report(C: ChainComplex) -> FiveComplexReport:
    """Check the algebraic 5-complex conditions on a length-6 complex.

    Exactness at degrees 4 and 1 is integral homology vanishing there; the
    ends must be Z with trivial G-action; the Euler characteristic must be 0.
    """
    length_ok = C.top_degree == 5
    valid = validate_complex(C).ok
    if not (length_ok and valid):
        return FiveComplexReport(valid, length_ok, False, False, None, None, euler_characteristic(C))
    bottom = bottom_end_report(C)
    top = top_end_report(C)
    exact1 = homology(C, 1, "integral").is_trivial
    exact4 = homology(C, 4, "integral").is_trivial
    return FiveComplexReport(valid, length_ok, exact1, exact4, bottom, top, euler_characteristic(C))


# -- chain maps and homotopies -----------------------------------------


@dataclass(frozen=True)
class ChainMap:
    """Degreewise components f_i: source_i -> target_i (same grading)."""

    source: ChainComplex
    target: ChainComplex
    components: tuple[GRMatrix, ...]

    def __post_init__(self):
        if self.source.group != self.target.group:
            raise ValueError("source and target complexes over different groups")
        if self.source.top_degree != self.target.top_degree:
            raise ValueError("source and target have different lengths")
        if len(self.components) != len(self.source.ranks):
            raise ValueError("need one component per degree")
        for i, f in enumerate(self.components):
            if (f.rows, f.cols) != (self.target.ranks[i], self.source.ranks[i]):
                raise ValueError(
                    f"component {i} has shape {f.rows}x{f.cols}, expected "
                    f"{self.target.ranks[i]}x{self.source.ranks[i]}"
                )


def compose_maps(outer: ChainMap, inner: ChainMap) -> ChainMap:
    if inner.target != outer.source:
        raise ValueError("maps do not compose: inner target differs from outer source")
    return ChainMap(
        inner.source,
        outer.target,
        tuple(a @ b for a, b in zip(outer.components, inner.components)),
    )


def dual_map(f: ChainMap) -> ChainMap:
    """The dual chain map dualize(target) -> dualize(source)."""
    T = f.source.top_degree
    return ChainMap(
        dualize_complex(f.target),
        dualize_complex(f.source),
        tuple(f.components[T - i].dual() for i in range(T + 1)),
    )


@dataclass(frozen=True)
class ChainMapReport:
    squares: DegreewiseReport  # (degree i, commutes at boundary(i)), from commuting_squares
    bottom_scalar: int | None  # induced map on coker(boundary(1)) = Z
    top_scalar: int | None  # induced map on ker(boundary(top)) = Z

    @property
    def is_chain_map(self) -> bool:
        return self.squares.ok

    @property
    def end_scalars(self):
        return (self.bottom_scalar, self.top_scalar)


def _end_generators(C: ChainComplex):
    """(top, bottom) certificates in one sign, stored or else derived; None
    where unavailable.

    A stored certificate is sign-normalized but not judged here (the end
    reports judge it, and normalize_duality reads them first).  One sign
    makes the end scalars independent of the file's signs.  In dual form
    d5 = d1*, so valid certificates m (top) and b (bottom) both span the
    rank-1 kernel of aug(d1) transposed: m = +-b.  In one sign m = b, so
    a bottom scalar of 1 is exactly b . aug(phi_0) = b, the condition
    under which normalize_duality's lift I0 exists.
    """
    top, bottom = C.top_generator, C.bottom_generator
    top = top_end_report(C).generator if top is None else _normalize_sign(top)
    bottom = bottom_end_report(C).generator if bottom is None else _normalize_sign(bottom)
    return top, bottom


def _end_scalar(functional, target, aug) -> int | None:
    """The integer s with functional @ aug == s * target; None when either
    certificate is missing or no such s exists.
    """
    if functional is None or target is None or not any(target):
        return None
    vec = _combine_rows(functional, aug)
    pivot = next(i for i, v in enumerate(target) if v)
    s = vec[pivot] // target[pivot]
    return s if vec == tuple(s * v for v in target) else None


def commuting_squares(source: ChainComplex, target: ChainComplex, components, degrees) -> DegreewiseReport:
    """Check target.boundary(i) @ components[i] == components[i-1] @
    source.boundary(i) at each of ``degrees``: the chain-map squares."""
    return _by_degree(
        degrees,
        lambda i: target.boundary(i) @ components[i] == components[i - 1] @ source.boundary(i),
        lambda i: f"square at boundary({i}) does not commute",
    )


def is_chain_map(f: ChainMap) -> ChainMapReport:
    """Exact verification of all commuting squares plus the end scalars.

    The bottom scalar x is the integer induced on coker(boundary(1)) = Z,
    the top scalar y the one induced on ker(boundary(top)) = Z; either is
    None when the corresponding end is not certified Z on both sides.  The
    top is read as the bottom of the transposes, like the end reports.
    It is for callers that read the end scalars; every other caller checks
    only the squares, with commuting_squares.
    """
    T = f.source.top_degree
    squares = commuting_squares(f.source, f.target, f.components, range(1, T + 1))
    src_top, src_bottom = _end_generators(f.source)
    tgt_top, tgt_bottom = _end_generators(f.target)
    bottom_scalar = _end_scalar(tgt_bottom, src_bottom, f.components[0].augmented())
    top_scalar = _end_scalar(src_top, tgt_top, f.components[T].augmented().transpose())
    return ChainMapReport(squares, bottom_scalar, top_scalar)


@dataclass(frozen=True)
class ChainHomotopy:
    """Components I_i: source_i -> target_{i+1} between two parallel maps.

    Claims first.components - second.components == d I + I d degreewise.
    """

    first: ChainMap
    second: ChainMap
    components: tuple[GRMatrix, ...]

    def __post_init__(self):
        if (self.first.source, self.first.target) != (self.second.source, self.second.target):
            raise ValueError("homotopy requires maps with equal source and target")
        T = self.first.source.top_degree
        if len(self.components) != T:
            raise ValueError("need one homotopy component per degree below the top")
        for i, h in enumerate(self.components):
            want = (self.first.target.ranks[i + 1], self.first.source.ranks[i])
            if (h.rows, h.cols) != want:
                raise ValueError(f"homotopy component {i} has shape {h.rows}x{h.cols}, expected {want}")


def verify_homotopy(h: ChainHomotopy) -> DegreewiseReport:
    """Exact check of f_i == g_i + boundary(i+1) I_i + I_{i-1} boundary(i),
    which is f_i - g_i == boundary(i+1) I_i + I_{i-1} boundary(i) with no
    zero matrix, negation or difference built.
    """
    f, g = h.first, h.second
    src, tgt = f.source, f.target
    T = src.top_degree

    def holds(i):
        rhs = g.components[i]
        if i < T:
            rhs = rhs + tgt.boundary(i + 1) @ h.components[i]
        if i > 0:
            rhs = rhs + h.components[i - 1] @ src.boundary(i)
        return f.components[i] == rhs

    return _by_degree(range(T + 1), holds, lambda i: f"homotopy identity fails at degree {i}")
