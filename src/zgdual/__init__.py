"""Exact chain-level duality over integral group rings of finite groups.

The library represents length-6 complexes of free Z[G]-modules, reduces them
to a mirrored "dual form", normalizes Poincare-style duality equivalences,
tests anti-self-duality and its parity obstruction, and builds the lens-space
family L(n;1,1) as fully verified instances.
"""

from zgdual.group_core import (
    FiniteGroup,
    GroupRingElement,
    GroupTableError,
    cyclic_group,
    gr_mul,
    group_from_table,
    norm_element,
)
from zgdual.int_linalg import (
    AbelianGroupInfo,
    IntegerMatrix,
    SmithDecomposition,
    homology_pair,
    smith_normal_form,
    solve_integer,
)
from zgdual.gr_linalg import GRMatrix, solve_gr_linear
from zgdual.complexes import (
    ChainComplex,
    ChainHomotopy,
    ChainMap,
    dualize_complex,
    dual_map,
    euler_characteristic,
    five_complex_report,
    homology,
    is_chain_map,
    validate_complex,
    verify_homotopy,
)
from zgdual.dual_form import (
    DualFormView,
    NormalizedDuality,
    ObstructionReport,
    assemble_dual_form,
    is_anti_self_dual,
    normalize_duality,
    obstruction_check,
    recognize_dual_form,
    solve_chain_isomorphism,
    to_dual_form_stage6,
)
from zgdual.lens import (
    asd_status,
    lens_asd_transform,
    lens_complex,
    lens_duality_map,
)
