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

Homology is available for two coefficient systems: "integral" expands each
boundary map to its integer matrix on Z-bases (homology of the universal
cover), "trivial" applies the augmentation entrywise (homology of the base).
Augmented ends are never included: degree 0 is a cokernel, the top degree a
kernel, exactly as for the raw complex.

Each complex expands every differential at most once per coefficient
system and reduces it at most once up to duality: the integer matrices,
their Smith decompositions and the d.d == 0 checks are memoized on the
instance (never across instances).  ChainComplex.reduction is the one read
path.  A boundary equal to an earlier one shares that decomposition, and
one equal to the dual of an earlier one reads it transposed, since
expansion and augmentation turn the dual into the transpose.  So a complex
in dual form (d5 = d1*, d4 = d2*) reduces neither degree 5 nor degree 4.
Every decomposition keeps its operation logs; the readers that need
vectors (the end generators and the lifts) replay them on just those.  The
two augmented ends share one path: the top end is read as the bottom end of
the transposed decomposition and augmentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from zgdual.group_core import FiniteGroup
from zgdual.gr_linalg import GRMatrix, fold_columns, stack_columns
from zgdual.int_linalg import (
    AbelianGroupInfo,
    IntegerMatrix,
    SmithDecomposition,
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
        """boundary(i) on Z-bases, built once: expanded for "integral"
        coefficients, augmented for "trivial"; 1 <= i <= top_degree.
        """
        if coefficients not in COEFFS:
            raise ValueError(f"coefficients must be one of {COEFFS}")
        if not 1 <= i <= self.top_degree:
            raise ValueError(f"no boundary map at degree {i}")
        key = ("matrix", i, coefficients)
        M = self._memo.get(key)
        if M is None:
            if coefficients == "integral":
                M = self.boundary(i).expand()
            else:
                M = self.boundary(i).augmented()
            self._memo[key] = M
        return M

    def reduction(self, i: int, coefficients: str = "integral") -> SmithDecomposition:
        """A Smith decomposition of integer_matrix(i), memoized per degree
        and coefficient system; every reader of degree i reads it.

        Only the first degree whose boundary equals boundary(i) or its dual
        (_twin) is reduced.  An equal boundary shares that decomposition; a
        dual one reads it transposed, since expansion and augmentation turn
        the dual into the transpose.
        """
        key = ("reduction", i, coefficients)
        snf = self._memo.get(key)
        if snf is None:
            j = self._twin(i)
            if j == i:
                snf = smith_normal_form(self.integer_matrix(i, coefficients))
            elif self.boundary(j) == self.boundary(i):
                snf = self.reduction(j, coefficients)
            else:
                snf = self.reduction(j, coefficients).transposed()
            self._memo[key] = snf
        return snf

    def _twin(self, i: int) -> int:
        """The first degree j <= i whose boundary equals boundary(i) or its dual."""
        key = ("twin", i)
        twin = self._memo.get(key)
        if twin is None:
            d = self.boundary(i)
            # the dual is built only when an earlier boundary has its shape
            earlier_shapes = {(b.rows, b.cols) for b in self.differentials[: i - 1]}
            same = (d, d.dual()) if (d.cols, d.rows) in earlier_shapes else (d,)
            twin = self._memo[key] = next(j for j in range(1, i + 1) if self.boundary(j) in same)
        return twin

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


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_complex; failures carry the offending degree."""

    compositions: tuple[tuple[int, bool], ...]  # (middle degree, boundary.boundary == 0)
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(flag for _, flag in self.compositions)


def validate_complex(C: ChainComplex) -> ValidationReport:
    """Check d.d == 0 at every internal degree (shapes hold by construction)."""
    comps = []
    failures = []
    for i in range(1, C.top_degree):
        ok = C.composition_zero(i)
        comps.append((i, ok))
        if not ok:
            failures.append(f"boundary({i}) . boundary({i + 1}) is nonzero at degree {i}")
    return ValidationReport(compositions=tuple(comps), failures=tuple(failures))


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
    augmentation becomes the top kernel generator and vice versa.
    """
    T = C.top_degree
    diffs = tuple(C.boundary(T + 1 - i).dual() for i in range(1, T + 1))
    return ChainComplex(
        group=C.group,
        ranks=tuple(reversed(C.ranks)),
        differentials=diffs,
        top_generator=C.bottom_generator,
        bottom_generator=C.top_generator,
    )


# -- homology ------------------------------------------------------------


def _spot(C: ChainComplex, degree: int, coefficients: str, outgoing: int, incoming: int) -> AbelianGroupInfo:
    """The rank identity of int_linalg.homology_from_invariants at C's
    module of the given degree, from C's reductions: the rank of
    boundary(outgoing) and the invariant factors of boundary(incoming).
    An index outside 1..top_degree stands for a zero map at an end.

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
    outgoing_rank = C.reduction(outgoing, coefficients).rank if 1 <= outgoing <= T else 0
    incoming_factors = C.reduction(incoming, coefficients).diagonal if 1 <= incoming <= T else ()
    return homology_from_invariants(middle, outgoing_rank, incoming_factors)


def homology(C: ChainComplex, degree: int, coefficients: str = "integral") -> AbelianGroupInfo:
    """ker(boundary(degree)) / im(boundary(degree+1)), from C's reductions."""
    return _spot(C, degree, coefficients, degree, degree + 1)


def cohomology(C: ChainComplex, degree: int, coefficients: str = "integral") -> AbelianGroupInfo:
    """Homology of dualize_complex(C) at degree top - degree, read from C's
    own reductions, so it reduces nothing that homology does not.

    The coboundary out of degree i is dual(boundary(i+1)) and the one into
    it is dual(boundary(i)).  Expansion and augmentation turn the dual into
    the transpose, which has the same rank and invariant factors (Hatcher,
    Algebraic Topology, 3.1).  So the free rank is the middle rank minus
    rank(boundary(i+1)) minus rank(boundary(i)), and the torsion is the
    invariant factors of boundary(i) above 1.
    """
    return _spot(C, degree, coefficients, degree + 1, degree)


# -- augmented ends ----------------------------------------------------


@dataclass(frozen=True)
class EndReport:
    """One augmented end: is the (co)kernel Z, with trivial G-action?"""

    group_info: AbelianGroupInfo
    is_z: bool
    trivial_action: bool
    generator: tuple[int, ...] | None  # per-basis-element integers, sign-normalized
    certificate_valid: bool | None  # None when the complex carries no certificate

    @property
    def ok(self) -> bool:
        return self.is_z and self.trivial_action and self.certificate_valid is not False


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


def _end_report(C: ChainComplex, snf: SmithDecomposition, rank: int, info, certificate, aug) -> EndReport:
    """The end of rank ``rank`` whose group is ``info``: when that is Z, the
    U row of ``snf`` past its rank spans it.  A certificate must be
    primitive and kill every column of ``aug``.
    """
    is_z = info == AbelianGroupInfo.free(1)
    generator = None
    trivial = False
    if is_z:
        g = _blocks_constant(snf.U_row(snf.rank), rank, C.group.order)
        trivial = g is not None
        if trivial:
            generator = _normalize_sign(g)

    cert_valid = None
    if certificate is not None:
        cert_valid = gcd(*certificate, 0) == 1 if certificate else False
        if cert_valid:
            cert_valid = all(
                sum(certificate[i] * aug.entries[i][k] for i in range(rank)) == 0 for k in range(aug.cols)
            )
        if cert_valid and is_z:
            generator = certificate
    return EndReport(info, is_z, trivial, generator, cert_valid)


def bottom_end_report(C: ChainComplex) -> EndReport:
    """coker(boundary(1)) with its G-action; derives or validates the certificate."""
    snf = C.reduction(1)
    info = homology_from_invariants(C.ranks[0] * C.group.order, 0, snf.diagonal)
    return _end_report(C, snf, C.ranks[0], info, C.bottom_generator, C.integer_matrix(1, "trivial"))


def top_end_report(C: ChainComplex) -> EndReport:
    """ker(boundary(top)) with its G-action; derives or validates the certificate.

    It is the bottom end of the transposes: the column of V past the rank
    is a U row of reduction(top).transposed(), and a certificate m with
    augmented(boundary(top)) @ m == 0 kills the columns of its transpose.
    The kernel is free, so its group is Z^nullity.
    """
    T = C.top_degree
    snf = C.reduction(T).transposed()
    info = AbelianGroupInfo.free(snf.rows - snf.rank)
    return _end_report(C, snf, C.ranks[T], info, C.top_generator, C.integer_matrix(T, "trivial").transpose())


@dataclass(frozen=True)
class FiveComplexReport:
    """Membership report for the algebraic 5-complex conditions."""

    valid: bool
    length_ok: bool
    exact_at_1: bool
    exact_at_4: bool
    bottom: EndReport | None
    top: EndReport | None
    euler: int

    @property
    def is_member(self) -> bool:
        return (
            self.valid
            and self.length_ok
            and self.exact_at_1
            and self.exact_at_4
            and self.bottom is not None
            and self.bottom.ok
            and self.top is not None
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

def identity_map(C: ChainComplex) -> ChainMap:
    return ChainMap(C, C, tuple(GRMatrix.identity(C.group, r) for r in C.ranks))


def negate_map(f: ChainMap) -> ChainMap:
    return ChainMap(f.source, f.target, tuple(-c for c in f.components))


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


def scalar_diagonal_map(source: ChainComplex, target: ChainComplex, scalars) -> ChainMap:
    """Chain map candidate with components scalar * identity, by degree."""
    comps = []
    for i, s in enumerate(scalars):
        if source.ranks[i] != target.ranks[i]:
            raise ValueError("scalar diagonal needs equal ranks per degree")
        ident = GRMatrix.identity(source.group, source.ranks[i])
        comps.append(-ident if s == -1 else ident if s == 1 else None)
        if comps[-1] is None:
            raise ValueError("scalars must be +1 or -1")
    return ChainMap(source, target, tuple(comps))


def _proportionality(vec, base) -> int | None:
    """The integer s with vec == s * base, if one exists (base nonzero)."""
    pivot = next((i for i, v in enumerate(base) if v), None)
    if pivot is None:
        return None
    if vec[pivot] % base[pivot]:
        return None
    s = vec[pivot] // base[pivot]
    if tuple(vec) != tuple(s * v for v in base):
        return None
    return s


@dataclass(frozen=True)
class ChainMapReport:
    squares: tuple[tuple[int, bool], ...]  # (degree i, commutes at boundary(i))
    bottom_scalar: int | None  # induced map on coker(boundary(1)) = Z
    top_scalar: int | None  # induced map on ker(boundary(top)) = Z
    failures: tuple[str, ...]

    @property
    def is_chain_map(self) -> bool:
        return all(ok for _, ok in self.squares)

    @property
    def end_scalars(self):
        return (self.bottom_scalar, self.top_scalar)


def _end_generators(C: ChainComplex):
    """(top, bottom) certificates, stored or derived; None where unavailable."""
    top = C.top_generator
    bottom = C.bottom_generator
    if top is None:
        rep = top_end_report(C)
        top = rep.generator if rep.ok else None
    if bottom is None:
        rep = bottom_end_report(C)
        bottom = rep.generator if rep.ok else None
    return top, bottom


def _end_scalar(functional, target, aug) -> int | None:
    """The integer s with functional @ aug == s * target; None when either
    certificate is missing or no such s exists.
    """
    if functional is None or target is None:
        return None
    u = tuple(sum(functional[i] * aug.entries[i][j] for i in range(aug.rows)) for j in range(aug.cols))
    return _proportionality(u, target)


def is_chain_map(f: ChainMap) -> ChainMapReport:
    """Exact verification of all commuting squares plus the end scalars.

    The bottom scalar x is the integer induced on coker(boundary(1)) = Z,
    the top scalar y the one induced on ker(boundary(top)) = Z; either is
    None when the corresponding end is not certified Z on both sides.  The
    top is read as the bottom of the transposes, like the end reports.
    """
    squares = []
    failures = []
    for i in range(1, f.source.top_degree + 1):
        lhs = f.target.boundary(i) @ f.components[i]
        rhs = f.components[i - 1] @ f.source.boundary(i)
        ok = lhs == rhs
        squares.append((i, ok))
        if not ok:
            failures.append(f"square at boundary({i}) does not commute")

    src_top, src_bottom = _end_generators(f.source)
    tgt_top, tgt_bottom = _end_generators(f.target)
    T = f.source.top_degree
    bottom_scalar = _end_scalar(tgt_bottom, src_bottom, f.components[0].augmented())
    top_scalar = _end_scalar(src_top, tgt_top, f.components[T].augmented().transpose())
    return ChainMapReport(tuple(squares), bottom_scalar, top_scalar, tuple(failures))


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


@dataclass(frozen=True)
class HomotopyReport:
    degrees: tuple[tuple[int, bool], ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(flag for _, flag in self.degrees)


def verify_homotopy(h: ChainHomotopy) -> HomotopyReport:
    """Exact check of f_i - g_i == boundary(i+1) I_i + I_{i-1} boundary(i)."""
    f, g = h.first, h.second
    src, tgt = f.source, f.target
    T = src.top_degree
    out = []
    failures = []
    for i in range(T + 1):
        delta = f.components[i] - g.components[i]
        acc = GRMatrix.zeros(src.group, tgt.ranks[i], src.ranks[i])
        if i < T:
            acc = acc + tgt.boundary(i + 1) @ h.components[i]
        if i > 0:
            acc = acc + h.components[i - 1] @ src.boundary(i)
        ok = delta == acc
        out.append((i, ok))
        if not ok:
            failures.append(f"homotopy identity fails at degree {i}")
    return HomotopyReport(tuple(out), tuple(failures))
