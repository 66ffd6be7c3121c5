"""arclink: exact computations on resolution graphs of surface singularities.

Given the dual resolution graph of a normal surface singularity, this
package computes the minimal dlt modification, classifies the
singularity (cyclic/noncyclic quotient, cusp, general) and enumerates
the connected components of its space of short holomorphic arcs with
winding classes and homotopy types, including the full SL(2,Z) cusp
machinery and finite-group conjugacy for quotient singularities.

Public names load on first use (PEP 562): ``import arclink`` imports no
submodule, and the first use of a name such as ``arclink.monodromy`` imports
only the module that defines it and what that module needs.
"""

import importlib

_MODULE_OF = {
    name: module
    for module, names in {
        "calculus": (
            "DltKind", "DltModel", "OrbifoldPoint", "SingClass", "SingKind", "minimal_dlt_model",
            "minimal_log_resolution", "singularity_class",
        ),
        "components": (
            "ArcComponent", "ComponentKind", "CuspLattice", "EdgeTorus", "HomotopyKind",
            "HomotopyType", "SeifertWord", "enumerate_components",
        ),
        "cusp": (
            "Cone", "ConePosition", "CuspComponent", "CuspError", "CuspSequence", "check_duality",
            "cone_position", "dual_sequence", "enumerate_cusp_components", "monodromy",
            "recover_sequence", "reduce_mod_monodromy", "v_sequence",
        ),
        "graph_core": (
            "GraphError", "PlumbingGraph", "Shape", "ShapeClass", "Vertex", "classify_shape",
            "intersection_matrix", "is_negative_definite", "parse_plumbing",
        ),
        "hjcf": ("Mat2", "hj_expand", "hj_numerator", "mono_product"),
        "inoue": ("InoueError", "inoue_cross_check"),
        "inputs": ("InputError",),
        "quadratic": ("QuadNum",),
        "quotient": (
            "ConjClasses", "FiniteGroup", "Quaternion", "builtin_generators", "conjugacy_classes",
            "cyclic_quotient_components", "group_closure", "mckay_report",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    # Only a public name reaches this hook; a submodule name falls through to
    # the import system, so ``from arclink import calculus`` still works.
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
