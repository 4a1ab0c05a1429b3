"""Finite groups as multiplication tables, and exact arithmetic in Z[G].

A group of order N is stored as an N x N table of element indices together
with the derived inverse table and identity index.  Elements of the integral
group ring Z[G] are sparse: each keeps only its nonzero terms, as
(element index, coefficient) pairs in index order, and every ring operation
reads and builds those.  Sums, negation, scaling, the involution and
comparisons cost the number of terms, not |G|.  ``*`` multiplies two
elements; an integer scales one through ``scale``.  A product adds its term
products up in a scratch list of |G| coefficients: on the products of the
lens and presentation complexes that is faster than a dict, which wins
only below about |G|/4 term products.
All coefficients are Python ints, so no operation can overflow.

Everything here is immutable and pure; values can be shared freely.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain, repeat


class GroupTableError(ValueError):
    """A multiplication table failed one of the group axioms.

    ``reason`` is one of ``"shape"``, ``"range"``, ``"latin"``,
    ``"identity"``, ``"inverse"``, ``"associativity"``.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its multiplication table on indices 0..N-1.

    ``mul_table[i][j]`` is the index of g_i * g_j.  ``inv_table[i]`` is the
    index of the two-sided inverse of g_i.  ``is_cyclic`` is True exactly
    when the table is the standard cyclic one, element i standing for t^i;
    cyclic_group and group_from_table, the only constructors, keep that
    true, so two cyclic groups are equal when their orders are.
    """

    order: int
    mul_table: tuple[tuple[int, ...], ...]
    inv_table: tuple[int, ...]
    identity_index: int
    is_cyclic: bool = field(default=False, compare=False)

    def __eq__(self, other):
        # every matrix entry checks its group, nearly always the same object;
        # the fields compared are those of the generated hash
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.is_cyclic and other.is_cyclic:
            # both tables are the standard cyclic one of their order
            return self.order == other.order
        return (self.order, self.mul_table, self.inv_table, self.identity_index) == (
            other.order,
            other.mul_table,
            other.inv_table,
            other.identity_index,
        )

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def _cyclic_table(n: int) -> tuple[tuple[int, ...], ...]:
    base = tuple(range(n))
    return tuple(base[i:] + base[:i] for i in range(n))


def cyclic_group(n: int) -> FiniteGroup:
    """The cyclic group of order n, element i standing for t^i."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    inv = tuple((n - i) % n for i in range(n))
    return FiniteGroup(order=n, mul_table=_cyclic_table(n), inv_table=inv, identity_index=0, is_cyclic=True)


def group_from_table(mul_table) -> FiniteGroup:
    """Build and fully validate a group from a square multiplication table.

    A table is accepted when every entry is an in-range int, some element
    is a two-sided identity, every element has a two-sided inverse and
    Light's test finds the table associative (see _check_associativity).
    Such a table is a group, and every row and column of a group table is a
    permutation: g h = g h' gives h = h' on multiplying by g^-1 on the left,
    and h g = h' g gives it on the right.  So the Latin checks could only
    fail on a table that one of those four checks rejects, and an accepted
    table is not put through them.

    When a check fails, the axioms are checked in the documented order,
    shape, range, Latin rows, Latin columns, identity, inverse,
    associativity, and the first that fails raises GroupTableError with its
    own reason, so callers can tell a non-Latin square from a missing
    identity, a missing inverse or an associativity failure.  The Latin
    checks serve only to name the broken axiom.  Every axiom is checked at
    every order.
    """
    table = tuple(map(tuple, mul_table))
    n = len(table)
    if n == 0:
        raise GroupTableError("shape", "empty multiplication table")
    if any(len(row) != n for row in table):
        raise GroupTableError("shape", "multiplication table is not square")
    try:
        in_range = set(range(n)).issuperset(chain.from_iterable(table))
    except TypeError:  # an unhashable entry
        in_range = False
    # 1.0 and True compare equal to indices, so the entry types are checked too
    if not (in_range and set(map(type, chain.from_iterable(table))) == {int}):
        _check_latin(table)  # raises at the first row that fails the same check
    try:
        identity, inv = _identity_and_inverses(table)
        _check_associativity(table, identity)
    except GroupTableError as exc:
        error = exc
    else:
        base = tuple(range(n))
        return FiniteGroup(
            order=n,
            mul_table=table,
            inv_table=inv,
            identity_index=identity,
            is_cyclic=all(row == base[i:] + base[:i] for i, row in enumerate(table)),
        )
    # a Latin failure comes first in the documented order
    _check_latin(table)
    raise error


def _check_latin(table) -> None:
    """The range, Latin row and Latin column checks, in that order, on a
    square table; each raises GroupTableError at its first failing line.
    An unhashable entry raises TypeError from the range check of its row."""
    full = set(range(len(table)))
    for i, row in enumerate(table):
        if not (full.issuperset(row) and set(map(type, row)) <= {int}):
            raise GroupTableError("range", f"row {i} contains an out-of-range index")
    for i, row in enumerate(table):
        if set(row) != full:
            raise GroupTableError("latin", f"row {i} is not a permutation (not a Latin square)")
    for j, column in enumerate(zip(*table)):
        if set(column) != full:
            raise GroupTableError("latin", f"column {j} is not a permutation (not a Latin square)")


def _identity_and_inverses(table) -> tuple[int, tuple[int, ...]]:
    """The identity and the inverse table of a table with in-range entries.

    Only the first row equal to (0, 1, ..., N-1) can be a two-sided
    identity: an earlier such row e' would give e' = e' e = e.  The
    inverse of i is taken as the first j with i j = e and then checked on
    the other side; in a Latin square no other j has i j = e.
    """
    base = tuple(range(len(table)))
    identity = table.index(base) if base in table else None
    if identity is None or tuple(map(operator.itemgetter(identity), table)) != base:
        raise GroupTableError("identity", "no two-sided identity element")
    try:
        inv = tuple(map(tuple.index, table, repeat(identity)))
    except ValueError:  # some i has no j at all
        i = next(i for i, row in enumerate(table) if identity not in row)
        raise GroupTableError("inverse", f"element {i} has no two-sided inverse") from None
    for i, j in enumerate(inv):
        if table[j][i] != identity:
            raise GroupTableError("inverse", f"element {i} has no two-sided inverse")
    return identity, inv


def _check_associativity(table, identity) -> None:
    """Light's associativity test on a table with a two-sided identity.

    The elements s with (x s) y == x (s y) for all x, y are closed under
    multiplication (Clifford & Preston, Algebraic Theory of Semigroups,
    1961): for two of them s and t, x (s t) = (x s) t, then
    ((x s) t) y = (x s)(t y) = x (s (t y)) = x ((s t) y).  That holds in
    any table, Latin or not, and the identity is one of them.  So it
    suffices to check the s of a generating set: one taken greedily, each
    element that the identity and the earlier generators do not reach under
    right multiplication by them becoming the next generator.  That costs
    O(N^2) per generator.
    """
    n = len(table)
    generators = []
    reached = {identity}
    for g in range(n):
        if g in reached:
            continue
        generators.append(g)
        frontier = list(reached)
        while frontier:
            row = table[frontier.pop()]
            for s in generators:
                if row[s] not in reached:
                    reached.add(row[s])
                    frontier.append(row[s])
    for s in generators:
        # for each x, the rows y -> x (s y) and y -> (x s) y; a generator
        # exists only when n >= 2, so the getter returns a tuple
        x_times_row_s = map(operator.itemgetter(*table[s]), table)
        rows_x_s = map(table.__getitem__, map(operator.itemgetter(s), table))
        if any(map(operator.ne, x_times_row_s, rows_x_s)):
            x, y = next(
                (x, y) for x in range(n) for y in range(n) if table[table[x][s]][y] != table[x][table[s][y]]
            )
            raise GroupTableError("associativity", f"associativity fails at ({x},{s},{y})")


def _support(c: dict) -> tuple[tuple[int, int], ...]:
    """The nonzero items of an index -> coefficient dict, sorted by index."""
    terms = sorted(c.items())
    return tuple(terms) if all(c.values()) else tuple([t for t in terms if t[1]])


def _nonzero(coeffs) -> tuple[tuple[int, int], ...]:
    """The (index, coefficient) pairs of the nonzero entries of a dense vector."""
    return tuple([(i, a) for i, a in enumerate(coeffs) if a])


class GroupRingElement:
    """An element of Z[G]: the formal sum of a * g_i over its terms (i, a).

    ``support`` holds the nonzero terms as (element_index, coefficient)
    pairs in ascending index order; the dense ``coeffs`` vector is built
    from it on each read.  The constructor, which takes that dense vector, and
    ``from_terms`` check what they are given; the ring operations combine
    supports that were checked already and build their results unchecked
    (``_from_support``).  Equality reads the group and the support, hashing
    the support.
    """

    __slots__ = ("group", "support")

    def __init__(self, group: FiniteGroup, coeffs):
        if len(coeffs) != group.order:
            raise ValueError(f"coefficient vector has length {len(coeffs)}, group order is {group.order}")
        self.group = group
        # operator.index refuses a float or a string, and stores a bool or sympy.Integer as int
        self.support = _nonzero(map(operator.index, coeffs))

    @staticmethod
    def _from_support(group: FiniteGroup, support: tuple[tuple[int, int], ...]) -> GroupRingElement:
        """The element with these terms, for the library's own ring
        operations.  Nothing is checked: ``support`` must be a tuple of
        (index, nonzero int) pairs with indices ascending in range(group.order).
        """
        e = object.__new__(GroupRingElement)
        e.group, e.support = group, support
        return e

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(group: FiniteGroup) -> GroupRingElement:
        return GroupRingElement._from_support(group, ())

    @staticmethod
    def one(group: FiniteGroup) -> GroupRingElement:
        return GroupRingElement._from_support(group, ((group.identity_index, 1),))

    @staticmethod
    def basis(group: FiniteGroup, index: int) -> GroupRingElement:
        """The group element g_index; the index is checked as by ``from_terms``."""
        return GroupRingElement.from_terms(group, [(1, index)])

    @staticmethod
    def from_terms(group: FiniteGroup, terms) -> GroupRingElement:
        """Build from [coefficient, element_index] pairs; repeats accumulate.

        Both are passed through operator.index, like the constructor's
        coefficients, and the index must lie in range(group.order).
        """
        index, order = operator.index, group.order
        c = {}
        for coeff, idx in terms:
            idx = index(idx)
            if not 0 <= idx < order:
                raise ValueError(f"element index {idx} out of range for order {order}")
            c[idx] = c.get(idx, 0) + index(coeff)
        return GroupRingElement._from_support(group, _support(c))

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The dense coefficient vector: coeffs[i] is the coefficient of g_i."""
        c = [0] * self.group.order
        for i, a in self.support:
            c[i] = a
        return tuple(c)

    def __eq__(self, other):
        if other.__class__ is not GroupRingElement:
            return NotImplemented
        return self.support == other.support and self.group == other.group

    def __hash__(self):
        return hash(self.support)

    # -- ring structure -----------------------------------------------

    def _check_same_group(self, other: GroupRingElement):
        if self.group != other.group:
            raise ValueError("group ring elements belong to different groups")

    def __add__(self, other: GroupRingElement) -> GroupRingElement:
        self._check_same_group(other)
        c = dict(self.support)
        for i, b in other.support:
            c[i] = c.get(i, 0) + b
        return GroupRingElement._from_support(self.group, _support(c))

    def __sub__(self, other: GroupRingElement) -> GroupRingElement:
        return self + (-other)

    def __neg__(self) -> GroupRingElement:
        return GroupRingElement._from_support(self.group, tuple((i, -a) for i, a in self.support))

    def __mul__(self, other):
        if isinstance(other, GroupRingElement):
            return gr_mul(self, other)
        return NotImplemented

    def scale(self, k: int) -> GroupRingElement:
        k = operator.index(k)
        return GroupRingElement._from_support(self.group, tuple((i, k * a) for i, a in self.support) if k else ())

    @property
    def is_zero(self) -> bool:
        return not self.support

    def involute(self) -> GroupRingElement:
        """The anti-automorphism sending g to g^{-1} (coefficients follow)."""
        inv = self.group.inv_table
        return GroupRingElement._from_support(self.group, tuple(sorted((inv[i], a) for i, a in self.support)))

    def augmentation(self) -> int:
        """Sum of coefficients: the ring map Z[G] -> Z collapsing G to 1."""
        return sum(a for _, a in self.support)

    def terms(self) -> list[list[int]]:
        """[coefficient, element_index] pairs with zero terms omitted."""
        return [[a, i] for i, a in self.support]

    def __repr__(self):
        return f"GroupRingElement({self.terms()!r} over order {self.group.order})"


def gr_mul(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """Convolution product in Z[G] via the multiplication table."""
    a._check_same_group(b)
    mul = a.group.mul_table
    c = [0] * a.group.order
    sb = b.support
    for i, ai in a.support:
        row = mul[i]
        for j, bj in sb:
            c[row[j]] += ai * bj
    return GroupRingElement._from_support(a.group, _nonzero(c))


def norm_element(group: FiniteGroup) -> GroupRingElement:
    """The sum of all group elements (written Sigma for cyclic groups)."""
    return GroupRingElement._from_support(group, tuple((i, 1) for i in range(group.order)))
