"""Command-line interface: scenario I/O, reports, and the packaged example.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 input or usage error (an
InputError), 3 internal error (any other exception: an engine fault).
JSON reports are byte-reproducible for identical inputs and options; wall
clock timing appears only in the human table output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence

from .charts import (
    ChartSpec,
    Scenario,
    ScenarioError,
    _int,
    _matrix,
    blowup_example,
    blowup_parts,
    parse_scenario,
)
from .deduction import deduce
from .extforms import (
    annihilated_by_row_differentials,
    build_interpolant,
    form_from_obj,
    form_to_obj,
    log_wedge_nonsingular,
)
from .gaussian import QI
from .leibniz import chart_certificate, global_certificate, shape_violations
from .linform import AffineForm
from .mellin import DimensionTooLargeError, mellin_quadrature
from .mellin import chart_sum, mellin_exact, residue_on, value_at_origin
from .merovalue import HigherOrderPoleError, PoleAtPointError, TokenScalar
from .profiles import ExactnessError, InputError
from .tubes import (
    AdmissiblePath,
    admissible_limit,
    mellin_check,
    tube_integral,
    tube_spec_from_chart,
)


@dataclass
class Report:
    command: str
    inputs: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    verdicts: List[dict] = field(default_factory=list)

    def verdict(self, name: str, ok: bool, value=None, reference=None, tolerance=None):
        entry = {"name": name, "pass": bool(ok)}
        if value is not None:
            entry["value"] = value
        if reference is not None:
            entry["reference"] = reference
        if tolerance is not None:
            entry["tolerance"] = tolerance
        self.verdicts.append(entry)
        return ok

    @property
    def ok(self) -> bool:
        return all(v["pass"] for v in self.verdicts)

    def to_obj(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "verdicts": self.verdicts,
            "ok": self.ok,
        }

    def render(self, fmt: str, elapsed: float) -> str:
        if fmt == "json":
            return json.dumps(self.to_obj(), sort_keys=True, indent=2) + "\n"
        lines = [f"== {self.command} =="]
        for key, val in self.results.items():
            lines.append(f"  {key}: {_short(val)}")
        for v in self.verdicts:
            status = "PASS" if v["pass"] else "FAIL"
            extra = ""
            if "value" in v:
                extra += f"  value={_short(v['value'])}"
            if "reference" in v:
                extra += f"  reference={_short(v['reference'])}"
            if "tolerance" in v and v["tolerance"] is not None:
                extra += f"  tol={v['tolerance']}"
            lines.append(f"  [{status}] {v['name']}{extra}")
        lines.append(f"  verdict: {'ok' if self.ok else 'FAILED'}  (elapsed {elapsed:.3f}s)")
        return "\n".join(lines) + "\n"


def _short(val) -> str:
    s = json.dumps(val, sort_keys=True) if isinstance(val, (dict, list)) else str(val)
    return s if len(s) <= 200 else s[:197] + "..."


def _read_json(path: str) -> tuple:
    """The JSON document in the file and the SHA-256 of its bytes; a file that
    cannot be read as UTF-8 JSON raises ScenarioError naming the file."""
    try:
        data = Path(path).read_bytes()
        return json.loads(data.decode("utf-8")), hashlib.sha256(data).hexdigest()
    except OSError as exc:
        raise ScenarioError(path, exc.strerror or str(exc)) from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ScenarioError(path, f"not UTF-8 JSON: {exc}") from None


def _load_scenario(path: str) -> tuple[Scenario, dict]:
    obj, sha256 = _read_json(path)
    return parse_scenario(obj), {"scenario": str(Path(path)), "sha256": sha256}


def _fractions(text: str, flag: str, count: Optional[int] = None) -> List[Fraction]:
    try:
        values = [Fraction(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ZeroDivisionError:
        raise ScenarioError(flag, "zero denominator") from None
    except ValueError:
        raise ScenarioError(flag, "expected comma-separated rationals") from None
    if count is not None and len(values) != count:
        raise ScenarioError(flag, f"expected {count} values")
    return values


def _chart(scenario: Scenario, name: Optional[str], flag: str = "--chart") -> ChartSpec:
    """The chart the flag names, the first chart when it names none."""
    try:
        return scenario.chart(name or scenario.charts[0].name)
    except KeyError:
        raise ScenarioError(flag, f"no chart named {name!r}") from None


def _tube(scenario: Scenario, name: Optional[str], eps: Optional[str]) -> tuple:
    """Test form and tube of the `--chart` at the `--eps` radii (1/100 by default); N = 1 only."""
    sig = scenario.signature
    if sig.N != 1:
        raise ScenarioError("signature.N", f"tubes take N = 1 data, got N = {sig.N}")
    chart = _chart(scenario, name)
    radii = _fractions(eps, "--eps", sig.nfactors) if eps else [Fraction(1, 100)] * sig.nfactors
    if any(e <= 0 for e in radii):
        raise ScenarioError("--eps", "tube radii must be positive")
    return scenario.testform(chart.name), tube_spec_from_chart(chart, radii)


def _form(text: str, flag: str, count: int) -> AffineForm:
    try:
        values = [int(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ScenarioError(flag, "expected integers") from None
    if len(values) != count:
        raise ScenarioError(flag, f"expected {count} values")
    if not any(values):
        raise ScenarioError(flag, "expected a nonzero vector")
    return AffineForm.normalize(values)


def _cert_obj(cert) -> dict:
    return {
        "scope": cert.scope,
        "forms": [list(f.coeffs) for f in cert.sorted_forms()],
        "forms_pretty": [str(f) for f in cert.sorted_forms()],
        "eps": str(cert.halfspace.eps),
    }


def _token_obj(ts) -> dict:
    return {
        "re": [ts.coeff.re.numerator, ts.coeff.re.denominator],
        "im": [ts.coeff.im.numerator, ts.coeff.im.denominator],
        "twopii_power": ts.power,
        "pretty": str(ts),
    }


def _complex_obj(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


# --- commands ---------------------------------------------------------------


def cmd_poles(args, report: Report) -> None:
    scenario, inputs = _load_scenario(args.scenario)
    report.inputs.update(inputs)
    p = scenario.signature.p
    certs = []
    for chart in scenario.charts:
        cert = chart_certificate(chart)
        certs.append(cert)
        report.results[f"chart:{chart.name}"] = _cert_obj(cert)
        bad = shape_violations(cert, p)
        report.verdict(
            f"shape:{chart.name}",
            not bad,
            value=[str(f) for f in bad] if bad else "all forms pair >= 2 derivative indices",
        )
    if all(c.name in scenario.testforms for c in scenario.charts):
        gcert = global_certificate(scenario)
        report.results["global"] = _cert_obj(gcert)
        union = frozenset().union(*[c.forms for c in certs]) if certs else frozenset()
        report.verdict(
            "global-within-chart-union",
            gcert.forms <= union,
            value=[str(f) for f in sorted(gcert.forms, key=lambda f: f.sort_key())],
        )
        bad = shape_violations(gcert, p)
        report.verdict("shape:global", not bad, value=[str(f) for f in bad] if bad else "ok")
    else:
        report.results["global"] = "skipped (test forms missing for some chart)"


def cmd_eval(args, report: Report) -> None:
    scenario, inputs = _load_scenario(args.scenario)
    report.inputs.update(inputs)
    chart = _chart(scenario, args.chart)
    lam = _fractions(args.lam, "--lam", scenario.signature.nfactors)
    value = mellin_exact(scenario, chart)
    report.results["exact"] = value.to_obj()
    report.results["exact_pretty"] = str(value)
    try:
        point = value.eval_rational(lam)
    except PoleAtPointError as exc:
        raise ScenarioError("--lam", str(exc)) from None
    report.results["exact_at_point"] = _token_obj(point)
    if all(x >= 2 for x in lam) and scenario.signature.n <= 3:
        try:
            quad = mellin_quadrature(scenario, chart, [complex(x) for x in lam])
        except DimensionTooLargeError as exc:
            report.results["quadrature"] = f"skipped ({exc})"
            return
        ref = point.as_complex()
        rel = abs(quad.value - ref) / max(abs(ref), 1e-300)
        report.results["quadrature"] = _complex_obj(quad.value)
        report.verdict("exact-vs-quadrature", rel <= args.tol, value=rel, tolerance=args.tol)
    else:
        report.results["quadrature"] = "skipped (needs Re(lambda) >= 2 and n <= 3)"


def cmd_global(args, report: Report) -> None:
    scenario, inputs = _load_scenario(args.scenario)
    report.inputs.update(inputs)
    total, _ = chart_sum(scenario)
    report.results["value"] = total.to_obj()
    report.results["value_pretty"] = str(total)
    forms = sorted(total.hyperplane_forms(), key=lambda f: f.sort_key())
    report.results["pole_hyperplanes"] = [str(f) for f in forms]
    analytic = not forms
    report.verdict("analytic-at-origin", analytic, value=[str(f) for f in forms] or "yes")
    if analytic:
        report.results["value_at_origin"] = _token_obj(value_at_origin(total))


def cmd_residue(args, report: Report) -> None:
    scenario, inputs = _load_scenario(args.scenario)
    report.inputs.update(inputs)
    form = _form(args.form, "--form", scenario.signature.nfactors)
    point = _fractions(args.point, "--point", scenario.signature.nfactors)
    if form.eval(point) != 0:
        raise ScenarioError("--point", "not on the --form hyperplane")
    total = QI.zero()
    power = 0
    for chart in [_chart(scenario, args.chart)] if args.chart else scenario.charts:
        v = mellin_exact(scenario, chart)
        try:
            r = residue_on(form, v, point)
        except HigherOrderPoleError as exc:
            raise ScenarioError("--form", str(exc)) from None
        except PoleAtPointError as exc:
            raise ScenarioError("--point", f"chart {chart.name}: {exc}") from None
        report.results[f"residue:{chart.name}"] = _token_obj(r)
        if r.coeff:
            total = total + r.coeff
            power = r.power
    report.results["residue_sum"] = _token_obj(TokenScalar(total, power))
    if not args.chart:
        report.verdict("residues-cancel", not total, value=str(total))


def cmd_tube(args, report: Report) -> None:
    scenario, inputs = _load_scenario(args.scenario)
    report.inputs.update(inputs)
    testform, spec = _tube(scenario, args.chart, args.eps)
    if args.path_M < 1:
        raise ScenarioError("--path-M", "must be >= 1")
    val = tube_integral(spec, testform)
    report.results["tube_integral"] = _complex_obj(val)
    path = AdmissiblePath.default(len(spec.eps), args.path_M)
    report.results["path_exponents"] = list(path.exponents)
    report.verdict("admissible-ratio-condition", path.ratio_condition_ok())
    limit = admissible_limit(spec, testform, path, tol=args.tol)
    report.results["admissible_limit"] = _complex_obj(limit.value)
    report.results["limit_error"] = limit.error
    report.verdict("limit-converged", limit.converged, value=limit.error, tolerance=args.tol)
    try:
        value = mellin_exact(scenario, spec.chart)
    except ExactnessError as exc:
        report.results["origin_value"] = f"skipped ({exc})"
        return
    if not value.hyperplane_forms():
        ref = value_at_origin(value).as_complex()
        rel = abs(limit.value - ref) / max(abs(ref), 1e-300)
        report.results["origin_value"] = _complex_obj(ref)
        report.verdict("limit-matches-origin-value", rel <= args.tol, value=rel)


def cmd_mellin_check(args, report: Report) -> None:
    scenario, inputs = _load_scenario(args.scenario)
    report.inputs.update(inputs)
    testform, spec = _tube(scenario, args.chart, None)
    lambdas = [_fractions(tok, "--lam", scenario.signature.nfactors) for tok in args.lam]
    if any(x < 2 for lam in lambdas for x in lam):
        raise ScenarioError("--lam", "mellin-check needs every value >= 2")
    rows = mellin_check(spec, testform, [[complex(x) for x in lam] for lam in lambdas])
    signs = set()
    for row in rows:
        key = ",".join(str(z.real) for z in row.lam)
        report.results[f"lambda({key})"] = {
            "transform": _complex_obj(row.transform),
            "reference": _complex_obj(row.reference),
            "rel_error": row.rel_error,
            "sign": row.sign,
        }
        signs.add(row.sign)
        report.verdict(f"match({key})", row.rel_error <= args.tol, value=row.rel_error, tolerance=args.tol)
    report.verdict("sign-consistent", len(signs) <= 1, value=sorted(signs))


def cmd_divlemma(args, report: Report) -> None:
    obj, sha256 = _read_json(args.file)
    if not isinstance(obj, dict):
        raise ScenarioError(args.file, "expected a JSON object")
    report.inputs.update(file=str(Path(args.file)), sha256=sha256)
    n = _int(obj.get("n"), "n", 1)
    K = obj.get("K", [])
    if not isinstance(K, list):
        raise ScenarioError("K", "expected an index list")
    for i, j in enumerate(K):
        if _int(j, f"K[{i}]", 1) > n or j in K[:i]:
            raise ScenarioError(f"K[{i}]", f"expected a distinct index in 1..{n}, got {j}")
    alphas = obj.get("alphas", [])
    if not isinstance(alphas, list):
        raise ScenarioError("alphas", "expected a list of exponent rows")
    rows = _matrix(alphas, len(alphas), n, "alphas")
    for r, row in enumerate(rows):
        if not any(row):
            raise ScenarioError(f"alphas[{r}]", "a zero exponent row has no differential")
    if "psi" not in obj:
        raise ScenarioError("psi", "missing")
    psi = form_from_obj(obj["psi"], n, "psi")
    if "omega" in obj:
        omega = form_from_obj(obj["omega"], n, "omega")
        if omega.degree != psi.degree:
            raise ScenarioError("omega.degree", f"expected psi's degree {psi.degree}, got {omega.degree}")
    else:
        omega = build_interpolant(psi, K)
    report.results["omega"] = form_to_obj(omega)
    rep = log_wedge_nonsingular(psi, omega, K)
    for j in sorted(rep):
        report.verdict(f"nonsingular-log-wedge:x{j}", rep[j], value=rep[j])
    if rows:
        ok = annihilated_by_row_differentials(omega, rows)
        report.verdict("row-differentials-annihilate", ok)


def cmd_deduce(args, report: Report) -> None:
    trace = deduce(_int(args.p, "p", 1), _int(args.q, "q", 0))
    report.results["trace"] = trace.to_obj()
    report.results["steps"] = len(trace.steps)
    report.verdict("analytic", trace.analytic)


def cmd_example3(args, report: Report) -> None:
    if args.profile_degree < 1:
        raise ScenarioError("--profile-degree", "must be >= 1 so profiles vanish at the support edge")
    scenario = blowup_example(args.profile_degree, args.seed)
    if args.drop_chart:
        scenario = scenario.without_chart(_chart(scenario, args.drop_chart, "--drop-chart").name)
    report.inputs["profile_degree"] = args.profile_degree
    report.inputs["seed"] = args.seed
    report.inputs["charts"] = [c.name for c in scenario.charts]
    pair = AffineForm.normalize((1, 1, 0))

    for chart in scenario.charts:
        cert = chart_certificate(chart)
        report.results[f"certificate:{chart.name}"] = _cert_obj(cert)
        report.verdict(f"chart-poles-on-pair-hyperplane:{chart.name}", cert.forms == frozenset({pair}))

    point = (Fraction(1, 3), Fraction(-1, 3), Fraction(1, 5))
    total, values = chart_sum(scenario)
    residue_total = QI.zero()
    for name, v in values.items():
        r = residue_on(pair, v, point)
        report.results[f"residue:{name}"] = _token_obj(r)
        residue_total = residue_total + r.coeff
    report.verdict("cross-chart-residues-cancel", not residue_total, value=str(residue_total))

    forms = sorted(total.hyperplane_forms(), key=lambda f: f.sort_key())
    analytic = not forms
    report.verdict("global-analytic-at-origin", analytic, value=[str(f) for f in forms] or "yes")

    reference = mellin_exact(blowup_parts(args.profile_degree, args.seed), "parts")
    if analytic:
        got = value_at_origin(total)
        want = value_at_origin(reference)
        report.results["value_at_origin"] = _token_obj(got)
        report.results["parts_reference"] = _token_obj(want)
        report.verdict("value-matches-parts-reference", got == want, value=str(got), reference=str(want))
    else:
        report.verdict(
            "value-matches-parts-reference",
            False,
            value="pole at origin: " + ", ".join(str(f) for f in forms),
            reference=str(value_at_origin(reference)),
        )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="residuelab",
        description="Exact pole certificates, continuation values, tube integrals, "
        "and analyticity deductions for monomial residue data.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        s = sub.add_parser(name, help=help)
        s.add_argument("--format", choices=("table", "json"), default="table")
        s.set_defaults(fn=fn)
        return s

    def tol(s):
        s.add_argument("--tol", type=float, default=1e-6, help="comparison tolerance")

    s = command("poles", cmd_poles, "per-chart and global pole certificates")
    s.add_argument("scenario")

    s = command("eval", cmd_eval, "exact value at a parameter point plus quadrature check")
    s.add_argument("scenario")
    s.add_argument("--chart", default=None)
    s.add_argument("--lam", required=True, help="comma-separated rationals")
    tol(s)

    s = command("global", cmd_global, "exact chart sum and its behavior at the origin")
    s.add_argument("scenario")

    s = command("residue", cmd_residue, "simple-pole residues on a hyperplane")
    s.add_argument("scenario")
    s.add_argument("--form", required=True, help="comma-separated integer coefficients")
    s.add_argument("--point", required=True, help="comma-separated rationals on the hyperplane")
    s.add_argument("--chart", default=None)

    s = command("tube", cmd_tube, "tube integral and admissible-path limit (diagonal data)")
    s.add_argument("scenario")
    s.add_argument("--chart", default=None)
    s.add_argument("--eps", default=None, help="comma-separated tube radii")
    s.add_argument("--path-M", dest="path_M", type=int, default=10)
    tol(s)

    s = command("mellin-check", cmd_mellin_check, "iterated transform of the tube integral vs exact value")
    s.add_argument("scenario")
    s.add_argument("--chart", default=None)
    s.add_argument("--lam", action="append", required=True, help="repeatable: comma-separated values")
    tol(s)

    s = command("divlemma", cmd_divlemma, "division-lemma interpolant and checks on a form file")
    s.add_argument("file")

    s = command("deduce", cmd_deduce, "support-level analyticity deduction")
    s.add_argument("p", type=int)
    s.add_argument("q", type=int)

    s = command("example3", cmd_example3, "packaged two-chart blow-up verification")
    s.add_argument("--drop-chart", default=None)
    s.add_argument("--profile-degree", type=int, default=2)
    s.add_argument("--seed", type=int, default=None)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    report = Report(command=args.command)
    report.inputs["options"] = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("fn", "command") and v is not None and not callable(v)
    }
    started = time.monotonic()
    try:
        args.fn(args, report)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3
    elapsed = time.monotonic() - started
    sys.stdout.write(report.render(args.format, elapsed))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
