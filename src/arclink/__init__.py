"""arclink: exact computations on resolution graphs of surface singularities.

Given the dual resolution graph of a normal surface singularity, this
package computes the minimal dlt modification, classifies the
singularity (cyclic/noncyclic quotient, cusp, general) and enumerates
the connected components of its space of short holomorphic arcs with
winding classes and homotopy types, including the full SL(2,Z) cusp
machinery and finite-group conjugacy for quotient singularities.
"""

from .calculus import (
    DltKind,
    DltModel,
    OrbifoldPoint,
    SingClass,
    SingKind,
    WholeChainError,
    minimal_dlt_model,
    minimal_log_resolution,
    rational_chain_tails,
    singularity_class,
)
from .components import (
    ArcComponent,
    ComponentKind,
    CuspLattice,
    EdgeTorus,
    HomotopyKind,
    HomotopyType,
    SeifertWord,
    are_conjugate,
    canonical_label,
    chain_system_solvable,
    edge_class,
    enumerate_components,
    gamma_power,
    jsj_split,
    winding_class,
)
from .cusp import (
    Cone,
    ConePosition,
    CuspComponent,
    CuspError,
    CuspSequence,
    check_duality,
    cone_position,
    dual_sequence,
    enumerate_cusp_components,
    monodromy,
    recover_sequence,
    reduce_mod_monodromy,
    v_sequence,
)
from .graph_core import (
    GraphError,
    PlumbingGraph,
    Shape,
    ShapeClass,
    Vertex,
    classify_shape,
    intersection_matrix,
    is_negative_definite,
    parse_plumbing,
    serialize_plumbing,
)
from .hjcf import Mat2, chain_exponent, hj_expand, hj_numerator, mono_product
from .inoue import InoueError, inoue_cross_check, quad_mult_matrix, sign_cone
from .inputs import InputError
from .quadratic import QuadNum
from .quotient import (
    ConjClasses,
    FiniteGroup,
    Quaternion,
    RealForm,
    builtin_generators,
    conjugacy_classes,
    cyclic_quotient_components,
    group_closure,
    mckay_report,
    real_A_component_count,
)
from .seifert import Presentation, SeifertData, has_finite_pi1, pi1_presentation, seifert_data

__version__ = "0.1.0"
