"""Exact Schubert calculus for points, planes and lines in projective 3-space."""

from .chern_segre import TotalClass
from .coincidence import (
    BitangentDerivation,
    BlowupRing,
    InterpretationTable,
    SegrePushTable,
    bitangent_derivation,
    blowup_ring,
    coincidence_class,
    eval_exceptional,
    eval_total,
    exceptional_split,
    phi_pullback,
    segre_push_table,
    surface_excess_class,
    tangent_count,
)
from .dsl import ParseError, evaluate, parse, to_source
from .graded_ring import (
    GeneratorSpec,
    GradedBasis,
    GradedRingPresentation,
    PolyRing,
    RingElement,
    TorsionError,
    in_ideal_span,
    substitute,
)
from .oracle import (
    DegeneratePencil,
    PlueckerLine,
    ProjectivePoint,
    QNum,
    SolutionSet,
    SurfaceForm,
    incidence_form,
    lines_meeting_four,
    pencil_discriminant,
    pencil_tangency_count,
    plucker_from_points,
    random_four_lines,
    random_pencil_instance,
)
from .spaces import (
    FORMULAS,
    SPACE_NAMES,
    EvalResult,
    Formula,
    FormulaCheck,
    SchubertCombination,
    SchubertSpace,
    evaluate_expression,
    pushforward_PS_to_G,
    render_in_classes,
    space,
    verify_formula_suite,
)

__version__ = "0.1.0"
