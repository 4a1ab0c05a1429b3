"""Seeded input generation for the benchmark, with set-up self-checks.

Everything here runs during set-up, before any timing or tracing starts.
The seed only picks relabellings of group elements and the sparse
perturbation of duality maps; which groups, which complexes and their
sizes never depend on it.

The non-abelian complexes follow one construction that works for every
finite group G with a generating set g_1..g_s:

    d1 = (1 - g_1, ..., 1 - g_s)           Z[G]^s -> Z[G]
    d2 = Z[G]-generators of ker d1          Z[G]^k -> Z[G]^s
    d3 = 0,  d4 = d2*,  d5 = d1*

Exactness at degree 4 follows from H^1(G; Z[G]) = 0 and the top kernel is
Z * Sigma, so this is an algebraic 5-complex in dual form with d3 = 0.
Its homology has a closed form (see ``expected_nonabelian``).
"""

from __future__ import annotations

import json
import random

from zgdual import complexes, dual_form, lens, serialize
from zgdual.complexes import ChainComplex, ChainMap
from zgdual.group_core import GroupRingElement, cyclic_group, group_from_table
from zgdual.gr_linalg import GRMatrix
from zgdual.int_linalg import IntegerMatrix, kernel_basis, smith_normal_form, solve_integer


class SetupError(RuntimeError):
    """A generated input failed its self-check; it is never emitted."""


# -- groups ---------------------------------------------------------------


def _perm_group(gens):
    """Multiplication table of the permutation group generated by ``gens``.

    Elements are listed breadth-first from the identity, which fixes one
    canonical labelling; (a*b)(x) = a(b(x)).  Returns the validated group
    and the indices of the generators.
    """
    n = len(gens[0])
    elems = [tuple(range(n))]
    index = {elems[0]: 0}
    i = 0
    while i < len(elems):
        for g in gens:
            h = tuple(g[x] for x in elems[i])
            if h not in index:
                index[h] = len(elems)
                elems.append(h)
        i += 1
    table = [[index[tuple(a[b[x]] for x in range(n))] for b in elems] for a in elems]
    return group_from_table(table), [index[tuple(g)] for g in gens]


def _quaternion_perms():
    """i and j as permutations of Q8 = {+-1, +-i, +-j, +-k} by left multiplication."""
    unit = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }
    elems = [(s, u) for s in (1, -1) for u in "1ijk"]

    def left(x):
        return tuple(
            elems.index((x[0] * e[0] * unit[(x[1], e[1])][0], unit[(x[1], e[1])][1])) for e in elems
        )

    return [left((1, "i")), left((1, "j"))]


# name -> (generating permutations, invariant factors of G^ab).  The
# abelianizations are standard facts, not computed by the code under test.
GROUPS = {
    "S3": ([(1, 0, 2), (1, 2, 0)], (2,)),
    "D4": ([(1, 2, 3, 0), (0, 3, 2, 1)], (2, 2)),
    "Q8": (_quaternion_perms(), (2, 2)),
    "D5": ([(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)], (2,)),
    "C7xC3": ([tuple((x + 1) % 7 for x in range(7)), tuple((2 * x) % 7 for x in range(7))], (3,)),
    "S4": ([(1, 0, 2, 3), (1, 2, 3, 0)], (2,)),
}


# -- the non-abelian 5-complex -------------------------------------------


def _translates(G, vec, s):
    """Z-coordinates of vec * g for every g, vec a column in Z[G]^s."""
    N = G.order
    elems = [GroupRingElement(G, tuple(vec[j * N : (j + 1) * N])) for j in range(s)]
    out = []
    for g in range(N):
        b = GroupRingElement.basis(G, g)
        row = []
        for e in elems:
            row.extend((e * b).coeffs)
        out.append(row)
    return out


def _kernel_generators(G, d1):
    """A short list of Z[G]-generators of ker d1, taken from kernel_basis.

    Candidates are the Z-basis columns, sparsest first; one is kept only
    when the Z-span of all G-translates grows (higher rank or smaller
    index in ker d1).  Stops once the span is all of ker d1.
    """
    s = d1.cols
    K = kernel_basis(d1.expand())
    order = sorted(range(K.cols), key=lambda c: (sum(1 for x in K.column(c) if x), c))
    chosen, span, best = [], [], None
    for c in order:
        vec = K.column(c)
        trial = span + _translates(G, vec, s)
        Y = solve_integer(K, IntegerMatrix.from_rows(list(zip(*trial))))
        snf = smith_normal_form(Y)
        index = 1
        for d in snf.diagonal:
            index *= d
        score = (-snf.rank, index)
        if best is None or score < best:
            best, span = score, trial
            chosen.append(vec)
            if snf.rank == K.cols and index == 1:
                return chosen
    raise SetupError(f"kernel of d1 over order-{G.order} group is not generated by its Z-basis")


def nonabelian_complex(name):
    """The canonical-label complex for GROUPS[name], with its ranks (1,s,k,k,s,1)."""
    perms, _ = GROUPS[name]
    G, gens = _perm_group(perms)
    N = G.order
    one = GroupRingElement.one(G)
    d1 = GRMatrix.from_rows(G, [[one - GroupRingElement.basis(G, g) for g in gens]])
    s = len(gens)
    cols = _kernel_generators(G, d1)
    k = len(cols)
    d2 = GRMatrix.from_rows(
        G,
        [[GroupRingElement(G, tuple(v[j * N : (j + 1) * N])) for v in cols] for j in range(s)],
    )
    return ChainComplex(
        G,
        (1, s, k, k, s, 1),
        (d1, d2, GRMatrix.zeros(G, k, k), d2.dual(), d1.dual()),
        top_generator=(1,),
        bottom_generator=(1,),
    )


def sign_diagonal_map(C):
    """diag(1,1,1,-1,-1,-1) by ascending degree, as a map dual(C) -> C.

    For these complexes dual(C) == C (d3 = 0), so the diagonal commutes
    with every differential; its end scalars are (1, -1).
    """
    D = complexes.dualize_complex(C)
    comps = tuple(
        GRMatrix.identity(C.group, r) if i < 3 else -GRMatrix.identity(C.group, r)
        for i, r in enumerate(C.ranks)
    )
    return ChainMap(D, C, comps)


# -- seeded transformations ------------------------------------------------


def relabel(C, perm):
    """C with group element i renamed perm[i]; an isomorphic complex."""
    G = C.group
    N = G.order
    table = [[0] * N for _ in range(N)]
    for a in range(N):
        for b in range(N):
            table[perm[a]][perm[b]] = perm[G.mul_table[a][b]]
    H = group_from_table(table)
    return ChainComplex(
        H,
        C.ranks,
        tuple(_relabel_matrix(H, d, perm) for d in C.differentials),
        top_generator=C.top_generator,
        bottom_generator=C.bottom_generator,
    )


def _relabel_matrix(H, A, perm):
    def elem(e):
        c = [0] * H.order
        for i, v in enumerate(e.coeffs):
            c[perm[i]] = v
        return GroupRingElement(H, tuple(c))

    return GRMatrix(H, A.rows, A.cols, tuple(tuple(elem(e) for e in row) for row in A.entries))


def relabel_map(phi, source, target, perm):
    G = target.group
    return ChainMap(source, target, tuple(_relabel_matrix(G, c, perm) for c in phi.components))


def perturb(phi, rng, entries_per_component=2):
    """phi + dH + Hd for a sparse seeded H with entries +-g.

    The perturbation is null-homotopic, so the result is a chain map with
    the same end scalars, but the normalizer has non-trivial lifts to solve.
    """
    src, tgt = phi.source, phi.target
    G = tgt.group
    T = tgt.top_degree
    H = []
    for i in range(T):
        rows, cols = tgt.ranks[i + 1], src.ranks[i]
        grid = [[GroupRingElement.zero(G)] * cols for _ in range(rows)]
        for _ in range(entries_per_component):
            e = GroupRingElement.basis(G, rng.randrange(G.order)).scale(rng.choice((1, -1)))
            r, c = rng.randrange(rows), rng.randrange(cols)
            grid[r][c] = grid[r][c] + e
        H.append(GRMatrix.from_rows(G, grid))
    comps = []
    for i in range(T + 1):
        c = phi.components[i]
        if i < T:
            c = c + tgt.boundary(i + 1) @ H[i]
        if i > 0:
            c = c + H[i - 1] @ src.boundary(i)
        comps.append(c)
    return ChainMap(src, tgt, tuple(comps))


# -- self-checks -----------------------------------------------------------


def check_complex(label, C):
    if not complexes.five_complex_report(C).is_member:
        raise SetupError(f"{label}: generated complex is not an algebraic 5-complex")
    if dual_form.recognize_dual_form(C) is None:
        raise SetupError(f"{label}: generated complex is not in dual form")


def check_map(label, phi):
    rep = complexes.is_chain_map(phi)
    if not rep.is_chain_map or rep.end_scalars != (1, -1):
        raise SetupError(f"{label}: duality map is not a chain map with end scalars (1, -1)")


# -- files -------------------------------------------------------------------


def _as_poly_strings(data, order):
    """Rewrite every term list of a JSON document over C_order as a polynomial string."""
    G = cyclic_group(order)

    def convert(matrix):
        entries = [
            [serialize.poly_string(GroupRingElement.from_terms(G, cell)) for cell in row]
            for row in matrix["entries"]
        ]
        return dict(matrix, entries=entries)

    out = dict(data)
    for key in ("differentials", "components"):
        if key in out:
            out[key] = [convert(m) for m in out[key]]
    return out


def write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize.canonical_dumps(data))


def read_back(path, mapfile):
    """Parse the files exactly as the CLI will, for the self-checks."""
    with open(path, encoding="utf-8") as fh:
        C = serialize.complex_from_json(json.load(fh))
    with open(mapfile, encoding="utf-8") as fh:
        return C, serialize.duality_map_from_json(C, json.load(fh))


def make_cli_inputs(workdir, seed):
    """Write every complex and map file of the CLI workload; self-check each.

    Returns name -> (complex path, map path, facts) where facts holds the
    numbers the closed-form expectations need.
    """
    rng = random.Random(seed)
    files = {}

    def emit(name, C, phi, facts, poly=False):
        cpath = f"{workdir}/{name}.json"
        mpath = f"{workdir}/{name}.map.json"
        cdata = serialize.complex_to_json(C)
        mdata = serialize.duality_map_to_json(phi)
        if poly:
            order = C.group.order
            cdata, mdata = _as_poly_strings(cdata, order), _as_poly_strings(mdata, order)
        write_json(cpath, cdata)
        write_json(mpath, mdata)
        C2, phi2 = read_back(cpath, mpath)
        check_complex(name, C2)
        check_map(name, phi2)
        files[name] = (cpath, mpath, facts)

    for name, (_, abelianization) in GROUPS.items():
        C = nonabelian_complex(name)
        N = C.group.order
        s, k = C.ranks[1], C.ranks[2]
        facts = {"order": N, "s": s, "k": k, "ab": abelianization, "kind": "nonabelian"}
        phi = sign_diagonal_map(C)
        emit(f"{name}-canonical", C, perturb(phi, rng), facts)
        perm = list(range(N))
        rng.shuffle(perm)
        R = relabel(C, perm)
        Rphi = relabel_map(phi, complexes.dualize_complex(R), R, perm)
        emit(f"{name}-relabelled", R, perturb(Rphi, rng), facts)

    # a lens complex above the exhaustive-associativity limit, relabelled so
    # that it is read back in "table" form
    n = 67
    A = lens.lens_complex(n)
    perm = list(range(n))
    rng.shuffle(perm)
    R = relabel(A, perm)
    Rphi = relabel_map(lens.lens_duality_map(n), complexes.dualize_complex(R), R, perm)
    emit(f"L{n}-relabelled", R, perturb(Rphi, rng), {"order": n, "kind": "lens", "asd": False})

    # the anti-self-dual representative of L(13), written as polynomial strings
    n = 13
    t = lens.lens_asd_transform(n)
    emit(f"L{n}-asd-poly", t.complex, perturb(t.homotopy.first, rng),
         {"order": n, "kind": "lens", "asd": True}, poly=True)
    return files


# -- closed-form expectations ---------------------------------------------------


def _group_str(free, torsion=()):
    # AbelianGroupInfo's rendering, written out so that expected values do
    # not come from the code under test
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    parts.extend(f"Z/{t}" for t in torsion)
    return " + ".join(parts) if parts else "0"


def lens_homology(n):
    """(integral, trivial) homology of L(n;1,1): S^5 upstairs, Z/n twice below."""
    integral = ["Z", "0", "0", "0", "0", "Z"]
    trivial = ["Z", f"Z/{n}", "0", f"Z/{n}", "0", "Z"]
    return integral, trivial


def expected_nonabelian(facts):
    """Closed forms for the complex (d1, d2, 0, d2*, d1*) over a group of order N.

    With a = N(k - s + 1) - 1 (the Z-rank of ker d2):
    integral homology is Z, 0, Z^a, Z^a, 0, Z; trivial coefficients give
    Z, G^ab, Z^(k-s), Z^(k-s) + G^ab, 0, Z, since F2 -> F1 -> F0 starts a
    free resolution of Z.  j_rank = a, form_rank = 0, h3 = a; the form is
    zero, hence anti-self-dual; obstructed iff N even and a even.
    """
    N, s, k, ab = facts["order"], facts["s"], facts["k"], facts["ab"]
    a = N * (k - s + 1) - 1
    integral = ["Z", "0", _group_str(a), _group_str(a), "0", "Z"]
    trivial = ["Z", _group_str(0, ab), _group_str(k - s), _group_str(k - s, ab), "0", "Z"]
    return {
        "integral": integral,
        "trivial": trivial,
        "j_rank": a,
        "form_rank": 0,
        "h3": a,
        "obstructed": N % 2 == 0 and a % 2 == 0,
        "asd": True,
    }


def expected_lens_file(facts):
    n = facts["order"]
    integral, trivial = lens_homology(n)
    return {
        "integral": integral,
        "trivial": trivial,
        "j_rank": n - 1,
        "form_rank": n - 1,
        "h3": 0,
        "obstructed": n % 2 == 0,
        "asd": facts["asd"],
        "residues": (1, n - 1),
    }


def stage6_ranks(c):
    """Ranks (ascending) after the five expansion moves of the stage-6 pipeline."""
    c0, c1, c2, c3, c4, c5 = c
    middle = c2 + c4 + c0
    return (
        c0 + c5,
        c1 + c5 + c4 + c0,
        c2 + c4 + c0 + middle,
        c3 + c1 + c5 + middle,
        c4 + c0 + c1 + c5,
        c5 + c0,
    )
