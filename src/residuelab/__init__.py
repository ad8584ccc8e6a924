"""residuelab: exact pole certificates and meromorphic continuation values
for monomial residue-integral data, with tube-integral numerics and a
support-level analyticity deduction engine."""

from types import ModuleType as _ModuleType

from .charts import (
    ChartSpec,
    Factor,
    ProblemSignature,
    Scenario,
    ScenarioError,
    SeparableTerm,
    SeparableTestForm,
    blowup_base,
    blowup_example,
    blowup_parts,
    diagonal_scenario,
    parse_scenario,
    pullback,
)
from .deduction import (
    CurrentSymbol,
    PoleConstraint,
    ProofTrace,
    combine,
    deduce,
    equality_terms,
    initial_constraint,
)
from .extforms import (
    PolyForm,
    annihilated_by_row_differentials,
    build_interpolant,
    d_monomial,
    log_wedge_nonsingular,
    pullback_monomial,
    restrict_extend,
    wedge,
)
from .gaussian import QI
from .leibniz import (
    HalfSpaceCert,
    MeroTerm,
    PoleCertificate,
    ResonantUnitsError,
    chart_certificate,
    expand,
    global_certificate,
    rank_basis,
)
from .linform import AffineForm, LinForm, ZeroFormError
from .mellin import (
    extreme_pole,
    mellin_exact,
    mellin_quadrature,
    residue_on,
    value_at_origin,
)
from .merovalue import MeroValue, PoleAtOriginError, TokenScalar
from .poly import Poly
from .profiles import ExactnessError, InputError, RadialProfile
from .tubes import (
    TubeSpec,
    UnsupportedTubeError,
    admissible_limit,
    mellin_check,
    tube_integral,
    tube_spec_from_chart,
)

__version__ = "0.1.0"

__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]
