"""residuelab: exact pole certificates and meromorphic continuation values
for monomial residue-integral data, with tube-integral numerics and a
support-level analyticity deduction engine.

The names below resolve on first use, each by importing the one submodule
that defines it, so `import residuelab` loads no engine module and a CLI
command loads only the modules it runs.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "charts": "ChartSpec Factor ProblemSignature Scenario SeparableTerm SeparableTestForm "
    "blowup_base blowup_example blowup_parts diagonal_scenario parse_scenario pullback",
    "errors": "InputError ScenarioError",
    "deduction": "CurrentSymbol PoleConstraint ProofTrace combine deduce equality_terms initial_constraint",
    "extforms": "PolyForm annihilated_by_row_differentials build_interpolant d_monomial "
    "log_wedge_nonsingular pullback_monomial restrict_extend wedge",
    "gaussian": "QI",
    "leibniz": "HalfSpaceCert MeroTerm PoleCertificate ResonantUnitsError chart_certificate expand "
    "global_certificate rank_basis",
    "linform": "AffineForm LinForm ZeroFormError",
    "mellin": "extreme_pole mellin_exact mellin_quadrature residue_on value_at_origin",
    "merovalue": "MeroValue PoleAtOriginError TokenScalar",
    "poly": "Poly",
    "profiles": "ExactnessError RadialProfile",
    "tubes": "TubeSpec UnsupportedTubeError admissible_limit mellin_check tube_integral tube_spec_from_chart",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
