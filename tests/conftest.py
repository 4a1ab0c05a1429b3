"""Shared test fixtures: small groups and independent exact oracles.

The oracles deliberately avoid zgdual.int_linalg: ranks come from Fraction
Gaussian elimination, invariant factors from sympy's Smith normal form, so
every cross-check pits two unrelated implementations against each other.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import permutations
from math import gcd, prod

import pytest
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from zgdual import dual_form
from zgdual.complexes import ChainComplex, ChainMap, compose_maps, dual_map, dualize_complex
from zgdual.group_core import FiniteGroup, GroupRingElement, GroupTableError, cyclic_group, group_from_table
from zgdual.gr_linalg import GRMatrix
from zgdual.int_linalg import IntegerMatrix, kernel_basis, smith_normal_form, solve_integer
from zgdual.lens import lens_complex


# -- groups -------------------------------------------------------------

KLEIN_TABLE = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]


def _perm_group(perms):
    perms = [tuple(p) for p in perms]
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(len(q)))] for q in perms] for p in perms]
    return group_from_table(table)


def c70_loop_table():
    """The C70 table with the intercalate on rows and columns 1 and 36
    switched: still a Latin square with identity 0 and two-sided inverses,
    but (1 * 1) * 2 != 1 * (1 * 2).  Order 70 is above the size at which an
    O(N^3) associativity scan is cheap.
    """
    table = [[(i + j) % 70 for j in range(70)] for i in range(70)]
    for i in (1, 36):
        table[i][1], table[i][36] = table[i][36], table[i][1]
    return table


def make_klein():
    return group_from_table(KLEIN_TABLE)


def make_sym3():
    return _perm_group(sorted(permutations(range(3))))


def make_dihedral4():
    # symmetries of the square as permutations of its corners
    r = (1, 2, 3, 0)
    s = (1, 0, 3, 2)
    elems = set()
    frontier = [(0, 1, 2, 3)]
    while frontier:
        p = frontier.pop()
        if p in elems:
            continue
        elems.add(p)
        for q in (r, s):
            frontier.append(tuple(q[p[i]] for i in range(4)))
    return _perm_group(sorted(elems))


def make_quaternion8():
    # Q8 = {1, -1, i, -i, j, -j, k, -k} indexed 0..7
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    sign = {n: (-1 if n.startswith("-") else 1) for n in names}
    base = {n: n.lstrip("-") for n in names}
    mul_base = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }
    idx = {n: i for i, n in enumerate(names)}
    table = []
    for a in names:
        row = []
        for b in names:
            s0, base_prod = mul_base[(base[a], base[b])]
            s_total = sign[a] * sign[b] * s0
            row.append(idx[base_prod if s_total == 1 else "-" + base_prod])
        table.append(row)
    return group_from_table(table)


SMALL_GROUPS = None


def small_groups():
    """Cyclic 1..12 plus Klein, S3, D4, Q8 (orders <= 12)."""
    global SMALL_GROUPS
    if SMALL_GROUPS is None:
        SMALL_GROUPS = [cyclic_group(n) for n in range(1, 13)] + [
            make_klein(),
            make_sym3(),
            make_dihedral4(),
            make_quaternion8(),
        ]
    return SMALL_GROUPS


@pytest.fixture(scope="session")
def groups():
    return small_groups()


def reference_group_from_table(mul_table) -> FiniteGroup:
    """The ordered validator that group_from_table must agree with: shape,
    range, Latin rows, Latin columns, identity, inverse, associativity, each
    checked in full before the next, with Light's test entry by entry.
    It returns the same FiniteGroup or raises the same error.
    """
    table = tuple(tuple(row) for row in mul_table)
    n = len(table)
    if n == 0:
        raise GroupTableError("shape", "empty multiplication table")
    if any(len(row) != n for row in table):
        raise GroupTableError("shape", "multiplication table is not square")
    full = set(range(n))
    for i, row in enumerate(table):
        if not (full.issuperset(row) and set(map(type, row)) <= {int}):
            raise GroupTableError("range", f"row {i} contains an out-of-range index")
    for i, row in enumerate(table):
        if set(row) != full:
            raise GroupTableError("latin", f"row {i} is not a permutation (not a Latin square)")
    for j, column in enumerate(zip(*table)):
        if set(column) != full:
            raise GroupTableError("latin", f"column {j} is not a permutation (not a Latin square)")
    # in a Latin square only the row e with e * 0 == 0 can be an identity,
    # and only the column j with i * j == e can hold the inverse of i
    base = tuple(range(n))
    identity = next(e for e in range(n) if table[e][0] == 0)
    if table[identity] != base or any(table[i][identity] != i for i in range(n)):
        raise GroupTableError("identity", "no two-sided identity element")
    inv = []
    for i, row in enumerate(table):
        j = row.index(identity)
        if table[j][i] != identity:
            raise GroupTableError("inverse", f"element {i} has no two-sided inverse")
        inv.append(j)
    # Light's test over the generating set taken greedily in index order
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
        for x in range(n):
            for y in range(n):
                if table[table[x][s]][y] != table[x][table[s][y]]:
                    raise GroupTableError("associativity", f"associativity fails at ({x},{s},{y})")
    return FiniteGroup(
        order=n,
        mul_table=table,
        inv_table=tuple(inv),
        identity_index=identity,
        is_cyclic=all(row == base[i:] + base[:i] for i, row in enumerate(table)),
    )


# -- complexes ------------------------------------------------------------


def identity_map(C):
    return ChainMap(C, C, tuple(GRMatrix.identity(C.group, r) for r in C.ranks))


def integer_identity(n):
    """The n x n identity over Z, from the checked grid constructor."""
    return IntegerMatrix(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def scalar_matrix(element, n):
    """The n x n diagonal matrix of ``element``, from the checked grid
    constructor."""
    z = GroupRingElement.zero(element.group)
    grid = tuple(tuple(element if i == j else z for j in range(n)) for i in range(n))
    return GRMatrix(element.group, n, n, grid)


def scalar_diagonal_map(source, target, signs):
    """The candidate map source -> target whose degree-i component is
    signs[i] (+1 or -1) times the identity."""
    idents = (GRMatrix.identity(source.group, r) for r in source.ranks)
    return ChainMap(source, target, tuple(e if s == 1 else -e for e, s in zip(idents, signs)))


def reference_certificate_valid(C, end, certificate):
    """The end certificate rule read from its definition, without the
    reductions: ``certificate`` is primitive and kills the augmented
    boundary at ``end`` -- certificate @ aug(boundary(1)) == 0 at the
    "bottom", aug(boundary(top)) @ certificate == 0 at the "top"."""
    if gcd(*certificate, 0) != 1:
        return False
    if end == "bottom":
        lines = zip(*C.boundary(1).entries)
    else:
        lines = C.boundary(C.top_degree).entries
    return all(sum(c * e.augmentation() for c, e in zip(certificate, line)) == 0 for line in lines)


def reference_parse_poly(group, text):
    """parse_poly with its terms split by a per-character loop: a new piece
    starts at each +/- sign that does not follow a "^" or open the string."""
    s = text.replace("−", "-").replace(" ", "")
    if not s:
        raise ValueError("empty polynomial string")
    pieces = []
    cur = ""
    for ch in s:
        if ch in "+-" and cur and not cur.endswith("^"):
            pieces.append(cur)
            cur = ch
        else:
            cur += ch
    pieces.append(cur)
    terms = []
    for piece in pieces:
        m = re.fullmatch(r"([+-]?)(\d*)(t(?:\^(-?\d+))?)?", piece, re.ASCII)
        if not m or (not m.group(2) and not m.group(3)):
            raise ValueError(f"cannot parse term {piece!r} in {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = int(m.group(2)) if m.group(2) else 1
        exp = (int(m.group(4)) if m.group(4) is not None else 1) if m.group(3) else 0
        terms.append((sign * coeff, exp % group.order))
    return GroupRingElement.from_terms(group, terms)


def leading_block_maps(small, big):
    """The inclusion small -> big of the leading blocks and the projection
    big -> small onto them: the equivalences of the pipeline's expansions,
    which the library proves but does not build."""
    G = small.group
    one, zero = GroupRingElement.one(G), GroupRingElement.zero(G)

    def leading(rows, cols):  # the identity on the first min(rows, cols) generators
        grid = tuple(tuple(one if i == j else zero for j in range(cols)) for i in range(rows))
        return GRMatrix(G, rows, cols, grid)

    pairs = tuple(zip(small.ranks, big.ranks))
    return (
        ChainMap(small, big, tuple(leading(R, r) for r, R in pairs)),
        ChainMap(big, small, tuple(leading(r, R) for r, R in pairs)),
    )


def conjugation(C6, assembled, iso):
    """The chain map C6 -> assembled, (1, 1, 1, h2*, h1*, h0*), that
    assemble_dual_form proves but does not build."""
    ident = tuple(GRMatrix.identity(C6.group, r) for r in C6.ranks[:3])
    return ChainMap(C6, assembled, ident + tuple(h.dual() for h in reversed(iso.h)))


def expansion(C, position, rank):
    """One simple homotopy expansion of C by a free rank-``rank`` summand at
    degrees position and position+1, as the stage-6 pipeline makes it: the
    complex, with the inclusion and the projection of its leading blocks."""
    E = dual_form._direct_sum(C, [(position, rank)])
    return (E, *leading_block_maps(C, E))


def twist_degree_one(C, u, u_inv):
    """C with its degree-1 basis changed by the unit u: d1 @ u^-1 and u @ d2.

    Chain isomorphic to C (so an algebraic 5-complex stays one), but no
    longer literally in dual form.
    """
    diffs = list(C.differentials)
    diffs[0] = diffs[0] @ u_inv
    diffs[1] = u @ diffs[1]
    return ChainComplex(C.group, C.ranks, tuple(diffs), C.top_generator, C.bottom_generator)


def twisted_lens(n):
    """Lens complex with the degree-1 basis scaled by the unit t."""
    A = lens_complex(n)
    u = GRMatrix.one_by_one(GroupRingElement.basis(A.group, 1))
    u_inv = GRMatrix.one_by_one(GroupRingElement.basis(A.group, n - 1))
    return twist_degree_one(A, u, u_inv)


def _translates(G, column):
    """Z-coordinates of column * g for every g in G, column in Z[G]^s."""
    return [
        [c for e in column for c in (e * GroupRingElement.basis(G, g)).coeffs]
        for g in range(G.order)
    ]


def _kernel_generators(d1):
    """Z[G]-generators of ker d1: Z-basis columns of the kernel, sparsest
    first, each kept when the Z-span of all G-translates of the kept ones
    grows (higher rank or smaller index); stops at the whole kernel.
    """
    G, N, s = d1.group, d1.group.order, d1.cols
    K = kernel_basis(d1.expand())
    order = sorted(range(K.cols), key=lambda c: (sum(1 for x in K.column(c) if x), c))
    chosen, span, best = [], [], None
    for c in order:
        v = K.column(c)
        column = [GroupRingElement(G, v[j * N : (j + 1) * N]) for j in range(s)]
        trial = span + _translates(G, column)
        snf = smith_normal_form(solve_integer(K, IntegerMatrix.from_rows(list(zip(*trial)))))
        score = (-snf.rank, prod(snf.diagonal))
        if best is None or score < best:
            best, span = score, trial
            chosen.append(column)
            if score == (-K.cols, 1):
                return chosen
    raise ValueError("ker d1 is not generated by its Z-basis columns")


def presentation_complex(G, gens):
    """The algebraic 5-complex of a generating set ``gens`` of G:

        d1 = (1 - g_1, ..., 1 - g_s),  d2 = Z[G]-generators of ker d1,
        d3 = 0,  d4 = d2*,  d5 = d1*

    with ranks (1, s, k, k, s, 1), in dual form, generators (1,) at both
    ends.  The construction of the benchmark's non-abelian inputs.
    """
    one = GroupRingElement.one(G)
    d1 = GRMatrix.from_rows(G, [[one - GroupRingElement.basis(G, g) for g in gens]])
    cols = _kernel_generators(d1)
    s, k = len(gens), len(cols)
    d2 = GRMatrix.from_rows(G, [[col[j] for col in cols] for j in range(s)])
    return ChainComplex(
        G, (1, s, k, k, s, 1), (d1, d2, GRMatrix.zeros(G, k, k), d2.dual(), d1.dual()), (1,), (1,)
    )


def sym3_presentation():
    """presentation_complex of S3 on a transposition and a 3-cycle, with
    the index of the transposition.  Elements are labelled breadth-first
    from the identity, g acting on the left, as the benchmark labels them.
    """
    gens = [(1, 0, 2), (1, 2, 0)]
    perms = [(0, 1, 2)]
    for p in perms:
        for g in gens:
            h = tuple(g[x] for x in p)
            if h not in perms:
                perms.append(h)
    return presentation_complex(_perm_group(perms), [perms.index(g) for g in gens]), perms.index(gens[0])


def _sym3_twist():
    """sym3_presentation with the twist diag(g, 1) and its inverse, g the transposition."""
    C, g = sym3_presentation()
    G = C.group
    one, zero = GroupRingElement.one(G), GroupRingElement.zero(G)

    def diag(x):
        return GRMatrix.from_rows(G, [[x, zero], [zero, one]])

    g_elt = GroupRingElement.basis(G, g)
    return C, diag(g_elt), diag(g_elt.involute())


def twisted_sym3_presentation():
    """sym3_presentation twisted by diag(g, 1) in degree 1, g the transposition."""
    return twist_degree_one(*_sym3_twist())


def twisted_sym3_duality():
    """The dual form assembled from twisted_sym3_presentation, and a duality
    map on it: the view and f phi f*, where phi is the sign diagonal of the
    untwisted presentation complex P and f: P -> assembled composes the
    twist, the pipeline's inclusion and the assembly's conjugation.
    """
    P, u, u_inv = _sym3_twist()
    T = twist_degree_one(P, u, u_inv)
    twist = ChainMap(P, T, tuple(u if i == 1 else GRMatrix.identity(P.group, r) for i, r in enumerate(P.ranks)))
    pipe = dual_form.to_dual_form_stage6(T)
    head = dual_form.dual_head_segment(pipe.complex)
    iso = dual_form.solve_chain_isomorphism(dual_form.tail_segment(pipe.complex), head, budget=2)
    asm = dual_form.assemble_dual_form(pipe.complex, iso)
    inclusion, _ = leading_block_maps(T, pipe.complex)
    f = compose_maps(conjugation(pipe.complex, asm.complex, iso), compose_maps(inclusion, twist))
    phi = scalar_diagonal_map(dualize_complex(P), P, (1, 1, 1, -1, -1, -1))
    return asm.view, compose_maps(f, compose_maps(phi, dual_map(f)))


def broken_lens(n):
    """L(n) with boundary(2) replaced by the dual of boundary(1).

    boundary(1) . boundary(2) and boundary(2) . boundary(3) are nonzero
    over Z[C_n]; degrees 0, 3, 4 and 5 are still valid spots, and every
    augmented composition vanishes.
    """
    A = lens_complex(n)
    diffs = list(A.differentials)
    diffs[1] = diffs[0].dual()
    return ChainComplex(A.group, A.ranks, tuple(diffs), A.top_generator, A.bottom_generator)


def _element_order(G, g):
    k, x = 1, g
    while x != G.identity_index:
        x = G.mul_table[x][g]
        k += 1
    return k


def subgroup_differentials(G, g, length):
    """``length`` rank-1 differentials (1 - g), N_g, (1 - g), ... over Z[G].

    N_g = 1 + g + ... + g^(k-1) with k the order of g, so consecutive maps
    compose to 1 - g^k = 0: this is Z[G] tensored over the cyclic subgroup
    <g> with its periodic resolution, a complex over any group.
    """
    one = GroupRingElement.one(G)
    gen = GroupRingElement.basis(G, g)
    norm, power = GroupRingElement.zero(G), one
    for _ in range(_element_order(G, g)):
        norm = norm + power
        power = power * gen
    pair = (one - gen, norm)
    return [GRMatrix.one_by_one(pair[i % 2]) for i in range(length)]


def sheared_sum_complex(G, g, h, shears, length=5):
    """The direct sum of the subgroup complexes of g and h, each module's
    basis changed by the unimodular shear P_i = [[1, s_i], [0, 1]].

    boundary(i) becomes P_(i-1) . boundary(i) . P_i^-1, so the result is
    isomorphic to the plain sum (same homology) but has dense entries.
    ``shears`` holds length + 1 elements of Z[G], one per degree.
    """
    zero = GroupRingElement.zero(G)
    one = GroupRingElement.one(G)
    first = subgroup_differentials(G, g, length)
    second = subgroup_differentials(G, h, length)

    def shear(s):
        return GRMatrix.from_rows(G, [[one, s], [zero, one]])

    diffs = []
    for i in range(length):
        plain = GRMatrix.from_rows(
            G, [[first[i].entries[0][0], zero], [zero, second[i].entries[0][0]]]
        )
        diffs.append(shear(shears[i]) @ plain @ shear(-shears[i + 1]))
    return ChainComplex(G, (2,) * (length + 1), tuple(diffs))


# -- independent oracles --------------------------------------------------


def rational_rank(M: IntegerMatrix) -> int:
    """Rank over Q by Fraction Gaussian elimination (no SNF anywhere)."""
    rows = [[Fraction(v) for v in row] for row in M.entries]
    rank = 0
    col = 0
    nrows, ncols = M.rows, M.cols
    while rank < nrows and col < ncols:
        pivot = next((i for i in range(rank, nrows) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        inv = 1 / pr[col]
        rows[rank] = [v * inv for v in pr]
        pr = rows[rank]
        for i in range(nrows):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], pr)]
        rank += 1
        col += 1
    return rank


def sympy_invariant_factors(M: IntegerMatrix) -> list[int]:
    """Nonzero invariant factors via sympy's Smith normal form."""
    if M.rows == 0 or M.cols == 0:
        return []
    S = sympy_snf(Matrix([list(r) for r in M.entries]), domain=ZZ)
    diag = [abs(int(S[i, i])) for i in range(min(M.rows, M.cols))]
    return [d for d in diag if d]


def oracle_homology(incoming: IntegerMatrix, outgoing: IntegerMatrix):
    """(free_rank, sorted torsion list) of ker(outgoing)/im(incoming).

    Free rank is dim ker - rank im over Q (Fraction elimination only).
    Torsion: the kernel of an integer matrix is a pure sublattice, so
    Z^m / ker(outgoing) is free and 0 -> ker/im -> Z^m/im -> Z^m/ker -> 0
    splits; hence torsion(ker/im) == torsion(Z^m/im), which is the list of
    invariant factors of ``incoming`` that exceed 1 (sympy SNF).
    """
    m = outgoing.cols
    free = (m - rational_rank(outgoing)) - rational_rank(incoming)
    torsion = sorted(d for d in sympy_invariant_factors(incoming) if d > 1)
    return free, torsion


def spot_matrices(C, degree: int, coefficients: str = "integral"):
    """(incoming, outgoing) integer matrices at ``degree`` of a chain complex.

    Built straight from GRMatrix.expand()/augmented(), never from the
    complex's own memo; the ends get the empty maps 0 -> F_top and F_0 -> 0.
    """
    def mat(i):
        d = C.boundary(i)
        return d.expand() if coefficients == "integral" else d.augmented()

    n = C.ranks[degree] * (C.group.order if coefficients == "integral" else 1)
    incoming = mat(degree + 1) if degree < C.top_degree else IntegerMatrix(n, 0, ((),) * n)
    outgoing = mat(degree) if degree > 0 else IntegerMatrix(0, n, ())
    return incoming, outgoing


def oracle_group_info(incoming: IntegerMatrix, outgoing: IntegerMatrix):
    """oracle_homology packaged as an AbelianGroupInfo for direct equality."""
    from zgdual.int_linalg import AbelianGroupInfo

    free, torsion = oracle_homology(incoming, outgoing)
    return AbelianGroupInfo(free, tuple(torsion))
