"""Exact Schubert calculus for points, planes and lines in projective 3-space.

`import schubert3` loads no submodule: each public name below is imported
from its defining module on first access, so a process pays only for the
modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every public name, under the submodule that defines it.
_PUBLIC = {
    "chern_segre": ("TotalClass",),
    "coincidence": (
        "BitangentDerivation",
        "BlowupRing",
        "InterpretationTable",
        "SegrePushTable",
        "bitangent_derivation",
        "blowup_ring",
        "coincidence_class",
        "eval_exceptional",
        "eval_total",
        "exceptional_split",
        "phi_pullback",
        "segre_push_table",
        "surface_excess_class",
        "tangent_count",
    ),
    "dsl": ("ParseError", "evaluate", "parse", "to_source"),
    "graded_ring": (
        "GeneratorSpec",
        "GradedBasis",
        "GradedRingPresentation",
        "PolyRing",
        "RingElement",
        "TorsionError",
        "in_ideal_span",
        "substitute",
    ),
    "oracle": (
        "DegeneratePencil",
        "PlueckerLine",
        "ProjectivePoint",
        "QNum",
        "SolutionSet",
        "SurfaceForm",
        "incidence_form",
        "lines_meeting_four",
        "pencil_discriminant",
        "pencil_tangency_count",
        "plucker_from_points",
        "random_four_lines",
        "random_pencil_instance",
    ),
    "spaces": (
        "FORMULAS",
        "SPACE_NAMES",
        "EvalResult",
        "Formula",
        "FormulaCheck",
        "SchubertCombination",
        "SchubertSpace",
        "evaluate_expression",
        "pushforward_PS_to_G",
        "render_in_classes",
        "space",
        "verify_formula_suite",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import a public name from its submodule the first time it is used (PEP 562)."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *_MODULE_OF])
