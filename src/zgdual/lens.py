"""The lens-space family L(n;1,1) over Z[C_n], fully verified.

The chain complex of the universal cover is the rank-(1,...,1) dual-form
complex with multiplications

    (1-t^-1), Sigma, (1-t^-1), Sigma, (1-t)     (degrees 5 down to 1)

and the duality equivalence phi: dual(A) -> A has components
(-1, -1, -t, 1, 1, 1) read from degree 5 down to degree 0.

For n = 4k+1 the family is anti-self-dual: the unit
beta = sum_{r=-k+1}^{k} t^r - sum_{r=k+2}^{3k} t^r, with inverse
beta^-1 = sum_{r=k}^{3k} (-1)^{r-k} t^r, rescales the middle
module so that the form becomes alpha = t^{k+1}+t^k-t^{-k}-t^{-(k+1)},
which is antisymmetric (involuting alpha negates it), and the conjugated
duality equivalence is homotopic to the +1 diagonal (1,1,1,-1,-1,-1) via a
single homotopy component x with alpha x = beta - 1, in closed form

    x = -(sum_{r=1}^{k} t^r + sum_{j=1}^{k} t^{k+2j}).

verify_homotopy certifies x: its degree-2 identity is exactly
alpha x = beta - 1; the -1 diagonal fails at degree 0, where phi_0 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from zgdual.complexes import (
    ChainComplex,
    ChainHomotopy,
    ChainMap,
    compose_maps,
    dual_map,
    dualize_complex,
    verify_homotopy,
)
from zgdual.group_core import FiniteGroup, GroupRingElement, cyclic_group, norm_element
from zgdual.gr_linalg import GRMatrix


def _poly(G: FiniteGroup, terms) -> GroupRingElement:
    """Sum of coeff * t^exponent terms over Z[C_n]."""
    return GroupRingElement.from_terms(G, [(coeff, e % G.order) for coeff, e in terms])


def lens_complex(n: int) -> ChainComplex:
    """The dual-form complex of L(n;1,1); validated, with end certificates."""
    if n < 2:
        raise ValueError("lens spaces need n >= 2")
    G = cyclic_group(n)
    d1 = GRMatrix.one_by_one(_poly(G, [(1, 0), (-1, 1)]))
    d2 = GRMatrix.one_by_one(norm_element(G))
    return ChainComplex(
        group=G,
        ranks=(1, 1, 1, 1, 1, 1),
        differentials=(d1, d2, d1.dual(), d2, d1.dual()),
        top_generator=(1,),
        bottom_generator=(1,),
    )


def lens_duality_map(n: int) -> ChainMap:
    """The duality equivalence dual(A) -> A with components (-1,-1,-t,1,1,1),
    A = lens_complex(n), built once; A is its target.

    Its end scalars are (1, -1): +1 on the degree-0 cokernel, -1 on the
    degree-5 kernel.
    """
    A = lens_complex(n)
    G = A.group
    one = GRMatrix.identity(G, 1)
    minus_t = GRMatrix.one_by_one(_poly(G, [(-1, 1)]))
    return ChainMap(
        source=dualize_complex(A),
        target=A,
        components=(one, one, one, minus_t, -one, -one),
    )


def asd_status(n: int) -> str:
    """The anti-self-duality status of L(n;1,1): "obstructed" for even n
    (the parity obstruction), "anti-self-dual" for n = 4k+1 with k >= 1
    (the representative of lens_asd_transform), "unknown" otherwise.
    """
    if n % 2 == 0:
        return "obstructed"
    if n % 4 == 1 and n >= 5:
        return "anti-self-dual"
    return "unknown"


def _asd_unit(G: FiniteGroup) -> tuple[GroupRingElement, GroupRingElement, GroupRingElement]:
    """(alpha, beta, beta_inv): the antisymmetric form alpha, the unit beta
    and its inverse over the cyclic group G of order n = 4k+1, built by its
    caller.

    All defining identities are verified exactly here:
    beta (1 - t^-1) == alpha, Sigma beta == Sigma,
    alpha (t^{1+k} + t^{1-k}) == t^2 - 1, and beta beta_inv == 1.
    Sigma beta == Sigma is certified as eps(beta) == 1: g Sigma == Sigma
    for every g, so Sigma beta == eps(beta) Sigma in any Z[G], and the two
    checks are equivalent.
    """
    k = (G.order - 1) // 4
    alpha = _poly(G, [(1, k + 1), (1, k), (-1, -k), (-1, -(k + 1))])
    beta = _poly(G, [(1, r) for r in range(-k + 1, k + 1)] + [(-1, r) for r in range(k + 2, 3 * k + 1)])

    one_minus_tinv = _poly(G, [(1, 0), (-1, -1)])
    if beta * one_minus_tinv != alpha:
        raise AssertionError("beta (1 - t^-1) != alpha")
    if beta.augmentation() != 1:
        raise AssertionError("Sigma beta != Sigma: eps(beta) != 1")
    two_shift = _poly(G, [(1, 1 + k), (1, 1 - k)])
    if alpha * two_shift != _poly(G, [(1, 2), (-1, 0)]):
        raise AssertionError("alpha (t^{1+k} + t^{1-k}) != t^2 - 1")

    beta_inv = _poly(G, [((-1) ** (r - k), r) for r in range(k, 3 * k + 1)])
    if beta * beta_inv != GroupRingElement.one(G):
        raise AssertionError("beta beta_inv != 1")
    return alpha, beta, beta_inv


@dataclass(frozen=True)
class AsdTransform:
    """The rescaled complex A' plus the verified anti-self-duality data:
    the form alpha, the unit beta and its inverse, as _asd_unit checks them.

    ``homotopy`` runs from the conjugated duality equivalence f phi f*, f
    the rescaling A -> A' of lens_asd_transform, to the +1 diagonal
    (1,1,1,-1,-1,-1) in ascending degrees.
    """

    complex: ChainComplex  # A' with middle differential x alpha
    # the single homotopy component, x = -(sum_{r=1}^{k} t^r + sum_{j=1}^{k} t^{k+2j});
    # verify_homotopy's degree-2 identity is exactly alpha x = beta - 1
    x: GroupRingElement
    homotopy: ChainHomotopy
    alpha: GroupRingElement
    beta: GroupRingElement
    beta_inv: GroupRingElement


def lens_asd_transform(n: int) -> AsdTransform:
    """Construct and verify the anti-self-dual representative for n = 4k+1.

    The rescaling f = (1, 1, beta, 1, 1, 1) is a chain map by proof, not by
    check: its squares at boundary(2) and boundary(3) are Sigma beta ==
    Sigma and beta (1 - t^-1) == alpha, which _asd_unit checks, and those
    at boundary(1), (4) and (5) compare equal boundaries through identity
    components.  _asd_unit checks Sigma beta == Sigma as eps(beta) == 1,
    which is equivalent (see its docstring).  One L(n), the target of
    phi = lens_duality_map(n), and its group serve the unit and A'.

    The homotopy component x solving alpha x = beta - 1 is written in
    closed form, x = -(sum_{r=1}^{k} t^r + sum_{j=1}^{k} t^{k+2j}), and no
    Smith reduction is run.  It needs no check of its own: verify_homotopy
    checks it.  At degree 2, (f phi f*)_2 is beta, the +1 diagonal is 1,
    I_1 is zero and boundary(3) I_2 of A' is alpha x, so that identity is
    exactly alpha x = beta - 1; at degree 3 it is x alpha = beta - 1 up to
    a global sign.  So a wrong x fails degrees 2 and 3 and raises the
    AssertionError below.  No other diagonal is tried: against the -1
    diagonal the degree-0 identity reads (f phi f*)_0 = phi_0 = 1 = -1,
    since I_0 = 0.
    """
    if asd_status(n) != "anti-self-dual":
        raise ValueError(f"anti-self-dual units exist for n = 4k+1, k >= 1; got n={n}")
    phi = lens_duality_map(n)
    A = phi.target
    G = A.group
    alpha, beta, beta_inv = _asd_unit(G)
    m = GRMatrix.one_by_one
    d1, d2, _, d4, d5 = A.differentials
    aprime = replace(A, differentials=(d1, d2, m(alpha), d4, d5))

    one = GRMatrix.identity(G, 1)
    f = ChainMap(A, aprime, (one, one, m(beta), one, one, one))

    k = (n - 1) // 4
    x = _poly(G, [(-1, r) for r in range(1, k + 1)] + [(-1, k + 2 * j) for j in range(1, k + 1)])

    conjugated = compose_maps(f, compose_maps(phi, dual_map(f)))

    zero = GRMatrix.zeros(G, 1, 1)
    diagonal = ChainMap(conjugated.source, conjugated.target, (one, one, one, -one, -one, -one))
    homotopy = ChainHomotopy(first=conjugated, second=diagonal, components=(zero, zero, m(x), zero, zero))
    if not verify_homotopy(homotopy).ok:
        raise AssertionError("f phi f* is not homotopic to the +1 diagonal via the single component x")
    return AsdTransform(aprime, x, homotopy, alpha, beta, beta_inv)

