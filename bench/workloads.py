"""The four benchmark workloads: seeded inputs and self-checking operations.

Each workload is a fixed list of operations (one pass).  An operation calls
the library's public functions, checks its own answer, and returns a
JSON-ready object holding the exact results it produced; the runner hashes
that object for the exactness gate.  Floating-point results are checked
against a stated tolerance and are not hashed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, List

from residuelab import (
    LinForm,
    admissible_limit,
    blowup_example,
    blowup_parts,
    chart_certificate,
    deduce,
    diagonal_scenario,
    mellin_check,
    mellin_exact,
    mellin_quadrature,
    parse_scenario,
    residue_on,
    tube_spec_from_chart,
    value_at_origin,
)
from residuelab.charts import example_profiles
from residuelab.extforms import (
    annihilated_by_row_differentials,
    build_interpolant,
    form_from_obj,
    form_to_obj,
    log_wedge_nonsingular,
)

import inputs

REL_TOL = 1e-6
PAIR = LinForm.normalize((1, 1, 0))
GENERIC_POINT = (Fraction(1, 3), Fraction(-1, 3), Fraction(1, 5))


class CheckFailed(Exception):
    """An operation's answer failed its own check."""


@dataclass
class Op:
    key: str  # names the inputs; digests are recorded and compared per key
    kind: str
    fn: Callable


@dataclass
class Workload:
    ops: List[Op]
    properties: dict = field(default_factory=dict)
    observe: Callable = None  # sees each op's result object on the first pass
    probe: Callable = None  # (tracer, op index): runs before each op of a traced pass


def rng_for(seed: int, label: str) -> random.Random:
    # str seeds hash with sha512, so streams do not depend on PYTHONHASHSEED
    return random.Random(f"{label}:{seed}")


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _rel(got: complex, want: complex) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _parsed(scenario, tr):
    text = scenario.to_json()
    with tr.span("charts.parse"):
        return parse_scenario(text)


def _token_obj(ts) -> dict:
    c = ts.coeff
    return {"re": [c.re.numerator, c.re.denominator], "im": [c.im.numerator, c.im.denominator], "power": ts.power}


def _cert_obj(cert) -> dict:
    return {"scope": cert.scope, "forms": [list(f.coeffs) for f in cert.sorted_forms()], "eps": str(cert.halfspace.eps)}


def _certify(chart, tr):
    with tr.span("leibniz.cert"):
        cert = chart_certificate(chart)
    tr.note_chart(chart)
    tr.count("leibniz.cert_forms", len(cert.forms))
    return cert


def _exact(scenario, chart, tr):
    with tr.span("mellin.exact"):
        return mellin_exact(scenario, chart)


def _sizes(value, tr) -> None:
    tr.count("merovalue.num_terms", len(value.num.terms))
    tr.count("merovalue.den_forms", len(value.den))
    tr.count("merovalue.den_forms_homogeneous", sum(1 for f, _ in value.den if f.is_homogeneous()))


def _profile_degree(rho) -> int:
    return max((len(p) - 1 for p in rho.pieces), default=-1)


# --- exact-corpus -------------------------------------------------------------


def build_exact_corpus(seed: int, workdir: Path, tr, children) -> Workload:
    """The criterion-3 corpus (charts of seed 2024) with term coefficients
    redrawn from the run seed, in a seeded order.

    Keeping the chart structure fixed keeps the heavy tail fixed: the cost of
    a chart is set by its structure, and across freshly drawn 200-chart
    corpora the pass time varies more than threefold.
    """
    rng = rng_for(seed, "exact-corpus")
    corpus = [inputs.recoefficient(sc, rng) for sc in inputs.chart_corpus()]
    order = list(range(len(corpus)))
    rng.shuffle(order)
    npq = Counter()
    degrees = Counter()
    for sc in corpus:
        sig = sc.signature
        npq[f"{sig.n},{sig.p},{sig.q}"] += 1
        for term in sc.testform("c").terms:
            degrees.update(_profile_degree(f.rho) for f in term.factors)
    props = {
        "charts": len(corpus),
        "npq_histogram": dict(sorted(npq.items())),
        "profile_degree_histogram": {str(k): v for k, v in sorted(degrees.items())},
    }
    totals = Counter()

    def observe(obj):
        value = obj["value"]
        totals["numerator_terms"] += len(value["num"])
        totals["numerator_terms_max"] = max(totals["numerator_terms_max"], len(value["num"]))
        totals["den_forms"] += len(value["den"])
        totals["den_forms_nonhomogeneous"] += sum(1 for d in value["den"] if d["const"])
        props["numerator_terms_total"] = totals["numerator_terms"]
        props["numerator_terms_max"] = totals["numerator_terms_max"]
        props["nonhomogeneous_den_share"] = round(
            totals["den_forms_nonhomogeneous"] / max(totals["den_forms"], 1), 4
        )

    ops = []
    for idx in order:
        sc = _parsed(corpus[idx], tr)

        def run(tr, sc=sc):
            chart = sc.charts[0]
            cert = _certify(chart, tr)
            value = _exact(sc, chart, tr)
            with tr.span("merovalue.reduce"):
                value = value.reduced()
            _sizes(value, tr)
            _check(value.hyperplane_forms() <= cert.forms, "pole outside the certificate")
            return {"cert": _cert_obj(cert), "value": value.to_obj()}

        ops.append(Op(f"corpus/{seed}/{idx}", "chart", run))
    return Workload(ops, props, observe)


# --- proofs -------------------------------------------------------------------

PROFILE_DEGREES = range(2, 9)
# Jitter multiplies each bump by a random linear factor.  Its cost swings up
# to fourfold with the drawn rationals, which would move every timing of the
# workload, so the jittered pipelines use fixed jitter seeds (the degree).
JITTER_DEGREES = range(2, 6)
DEDUCE_P = range(1, 7)
DEDUCE_Q = range(0, 7)
DIVLEMMA_BATCH = 62


def _example3(scenario, parts, tr) -> dict:
    certs = {}
    values = {}
    residues = {}
    for chart in scenario.charts:
        cert = _certify(chart, tr)
        _check(cert.forms == frozenset({PAIR}), f"certificate of {chart.name} is not {{L1+L2}}")
        certs[chart.name] = _cert_obj(cert)
    for chart in scenario.charts:
        values[chart.name] = _exact(scenario, chart, tr)
        _sizes(values[chart.name], tr)
    for name, v in values.items():
        with tr.span("merovalue.residue"):
            residues[name] = residue_on(PAIR, v, GENERIC_POINT)
    rz, rzeta = residues["z"], residues["zeta"]
    _check(bool(rz.coeff) and bool(rzeta.coeff) and not (rz.coeff + rzeta.coeff), "residues do not cancel")
    with tr.span("merovalue.sum"):
        total = (values["z"] + values["zeta"]).reduced()
    _sizes(total, tr)
    _check(not total.hyperplane_forms(), "chart sum has a pole at the origin")
    with tr.span("merovalue.origin"):
        got = value_at_origin(total)
    reference = _exact(parts, "parts", tr)
    with tr.span("merovalue.origin"):
        want = value_at_origin(reference)
    _check(got == want, "origin value differs from the integration-by-parts reference")
    return {
        "certificates": certs,
        "values": {k: v.to_obj() for k, v in values.items()},
        "residues": {k: _token_obj(r) for k, r in residues.items()},
        "sum": total.to_obj(),
        "origin": _token_obj(got),
        "reference": _token_obj(want),
    }


def build_proofs(seed: int, workdir: Path, tr, children) -> Workload:
    rng = rng_for(seed, "proofs")
    ops = []
    for degree in PROFILE_DEGREES:
        for jitter in (None, degree) if degree in JITTER_DEGREES else (None,):
            profiles = example_profiles(degree, jitter)
            scenario = _parsed(blowup_example(degree, jitter, profiles), tr)
            parts = _parsed(blowup_parts(degree, jitter, profiles), tr)
            if jitter is None:
                key, kind = f"example3/deg{degree}/plain", "example3-plain"
            else:
                key, kind = f"example3/deg{degree}/jitter{jitter}", "example3-jitter"
            ops.append(Op(key, kind, lambda tr, s=scenario, p=parts: _example3(s, p, tr)))
    for p in DEDUCE_P:
        for q in DEDUCE_Q:

            def run(tr, p=p, q=q):
                with tr.span("deduction.deduce"):
                    trace = deduce(p, q)
                tr.count("deduction.steps", len(trace.steps))
                _check(trace.analytic, f"deduce({p}, {q}) not analytic")
                return trace.to_obj()

            ops.append(Op(f"deduce/{p}/{q}", "deduce", run))
    cases = inputs.division_lemma_set(rng)
    for start in range(0, len(cases), DIVLEMMA_BATCH):
        batch = cases[start : start + DIVLEMMA_BATCH]

        def run(tr, batch=batch):
            out = []
            for psi, K, rows in batch:
                with tr.span("extforms.interpolant"):
                    omega = build_interpolant(psi, K)
                with tr.span("extforms.check"):
                    ok = all(log_wedge_nonsingular(psi, omega, K).values())
                    if rows is not None:
                        ok = ok and annihilated_by_row_differentials(omega, rows)
                _check(ok, "division-lemma interpolant fails its checks")
                out.append(form_to_obj(omega))
            return out

        ops.append(Op(f"divlemma/{seed}/{start}", "divlemma", run))
    rng.shuffle(ops)
    props = {
        "profile_degrees": list(PROFILE_DEGREES),
        "jitter_degrees": list(JITTER_DEGREES),
        "jitter_seed": "the profile degree",
        "deduce_pq": f"p in {DEDUCE_P.start}..{DEDUCE_P.stop - 1}, q in {DEDUCE_Q.start}..{DEDUCE_Q.stop - 1}",
        "division_lemma_cases": len(cases),
        "division_lemma_batch": DIVLEMMA_BATCH,
    }
    return Workload(ops, props)


# --- tube-numerics ------------------------------------------------------------

ONE_FACTOR = [([k], p) for k in (1, 2, 3) for p in (0, 1)]
TWO_FACTOR = [([1, 1], 1), ([2, 1], 2)]
# The last tube factor has k = 1: with k >= 2 there the Aitken limit does not
# reach the library's convergence test (see bench/README.md).
LIMIT_TUBES = [([k, 1], p) for k in (1, 2, 3) for p in (0, 1, 2)]
CHECK_EPS = Fraction(1, 100)
LIMIT_EPS = Fraction(1, 4)


def _lam(rng, count):
    return [Fraction(rng.randint(8, 24), 4) for _ in range(count)]


def build_tube_numerics(seed: int, workdir: Path, tr, children) -> Workload:
    rng = rng_for(seed, "tube-numerics")
    ops = []
    checks = []
    for ks, p in ONE_FACTOR + TWO_FACTOR:
        sc = _parsed(diagonal_scenario(ks, p=p), tr)
        chart = sc.charts[0]
        exact = _exact(sc, chart, tr)
        spec = tube_spec_from_chart(chart, [CHECK_EPS] * len(ks))
        rows = 2 if len(ks) == 1 else 1
        for row in range(rows):
            lam = _lam(rng, len(ks))
            checks.append((ks, p, [str(x) for x in lam]))

            def run(tr, spec=spec, tf=sc.testform(chart.name), lam=lam, exact=exact):
                with tr.span("tubes.check"):
                    (result,) = mellin_check(spec, tf, [[complex(x) for x in lam]])
                _check(result.sign == 1, f"Mellin sign {result.sign}, expected +1")
                _check(result.rel_error <= REL_TOL, f"Mellin identity off by {result.rel_error:.2e}")
                return {"exact": exact.to_obj()}

            kind = "check-1f" if len(ks) == 1 else "check-2f"
            ops.append(Op(f"check/{ks}/{p}/{row}", kind, run))
    for ks, p in LIMIT_TUBES:
        sc = _parsed(diagonal_scenario(ks, p=p), tr)
        chart = sc.charts[0]
        value = _exact(sc, chart, tr).reduced()
        origin = None if value.hyperplane_forms() else value_at_origin(value)
        spec = tube_spec_from_chart(chart, [LIMIT_EPS] * len(ks))

        def run(tr, spec=spec, tf=sc.testform(chart.name), origin=origin):
            with tr.span("tubes.limit"):
                res = admissible_limit(spec, tf)
            _check(res.converged, f"admissible limit did not converge (error {res.error:.2e})")
            if origin is not None:
                rel = _rel(res.value, origin.as_complex())
                _check(rel <= REL_TOL, f"limit off the origin value by {rel:.2e}")
            return {"origin": None if origin is None else _token_obj(origin)}

        ops.append(Op(f"limit/{ks}/{p}", "limit", run))
    quad = inputs.quadrature_set(rng)
    npq = Counter()
    terms = Counter()
    for i, sc in enumerate(quad):
        sc = _parsed(sc, tr)
        sig = sc.signature
        npq[f"{sig.n},{sig.p},{sig.q}"] += 1
        terms[str(len(sc.testform(sc.charts[0].name).terms))] += 1
        chart = sc.charts[0]
        exact = _exact(sc, chart, tr)
        for j in range(5):
            lam = _lam(rng, sig.nfactors)

            def run(tr, sc=sc, chart=chart, exact=exact, lam=[complex(x) for x in lam]):
                with tr.span("mellin.quad"):
                    q = mellin_quadrature(sc, chart, lam)
                tr.maximum("mellin.quad_err_max", q.error / max(abs(q.value), 1e-300))
                rel = _rel(q.value, exact.eval_complex(lam))
                _check(rel <= REL_TOL, f"quadrature off the exact value by {rel:.2e}")
                return {"exact": exact.to_obj()}

            ops.append(Op(f"quad/{seed}/{i}/{j}", "quad", run))
    rng.shuffle(ops)
    props = {
        "mellin_checks": checks,
        "check_eps": str(CHECK_EPS),
        "limit_tubes": LIMIT_TUBES,
        "limit_eps": str(LIMIT_EPS),
        "quadrature_scenarios": len(quad),
        "quadrature_npq_histogram": dict(sorted(npq.items())),
        "quadrature_terms_histogram": dict(sorted(terms.items())),
    }
    return Workload(ops, props)


# --- cli-cold -----------------------------------------------------------------

CLI_ROUNDS = 3
CLI_COMMANDS = ("poles", "eval", "global", "residue", "tube", "mellin-check", "divlemma", "deduce", "example3")


class Children:
    """Runs child processes one at a time and keeps their peak resident set."""

    def __init__(self, root: Path):
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        self.peak_kb = 0

    def run(self, argv: list, cwd: Path):
        """Returns (exit code, stdout bytes, stderr bytes)."""
        with open(cwd / ".stderr", "w+b") as err:
            proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=self.env, stdout=subprocess.PIPE, stderr=err)
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
            err.seek(0)
            return proc.returncode, out, err.read()


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1))
    return path.name


def _cli_inputs(rng, workdir: Path, r: int, tr) -> dict:
    """Writes one round's input files; returns the argument list of each command."""
    jitter = r + 2  # fixed, as in the proofs workload
    blowup = _write(workdir / f"blowup_{r}.json", blowup_example(2, jitter).to_obj())
    small = inputs.quadrature_set(rng, 1)[0]
    small_file = _write(workdir / f"small_{r}.json", small.to_obj())
    lam = ",".join(str(x) for x in _lam(rng, small.signature.nfactors))
    k, p = rng.choice(LIMIT_TUBES)
    tube = _write(workdir / f"tube_{r}.json", diagonal_scenario(k, p=p).to_obj())
    k1, p1 = rng.choice(ONE_FACTOR)
    check = _write(workdir / f"check_{r}.json", diagonal_scenario(k1, p=p1).to_obj())
    psi, K, rows = inputs.ci_pullback_instance(rng)
    forms = _write(
        workdir / f"forms_{r}.json",
        {"n": psi.nvars, "K": sorted(K), "psi": form_to_obj(psi), "alphas": [list(x) for x in rows]},
    )
    for name in (blowup, small_file, tube, check):
        with tr.span("charts.parse"):
            parse_scenario((workdir / name).read_text())
    with tr.span("charts.parse"):
        form_from_obj(json.loads((workdir / forms).read_text())["psi"], psi.nvars, "psi")
    return {
        "poles": ["poles", blowup],
        "eval": ["eval", small_file, "--lam", lam],
        "global": ["global", blowup],
        "residue": ["residue", blowup, "--form", "1,1,0", "--point", "1/3,-1/3,1/5"],
        "tube": ["tube", tube],
        "mellin-check": ["mellin-check", check, "--lam", str(_lam(rng, 1)[0])],
        "divlemma": ["divlemma", forms],
        "deduce": ["deduce", str(rng.randint(1, 3)), str(rng.randint(0, 3))],
        "example3": ["example3", "--seed", str(jitter)],
    }


def _report_digest_obj(stdout: bytes) -> dict:
    report = json.loads(stdout)
    report.get("inputs", {}).pop("options", None)  # echoes flags; not an answer
    return report


def build_cli_cold(seed: int, workdir: Path, tr, children: Children) -> Workload:
    rng = rng_for(seed, "cli-cold")
    first_output = {}
    ops = []
    commands = {}
    for r in range(CLI_ROUNDS):
        args = _cli_inputs(rng, workdir, r, tr)
        commands[r] = {c: " ".join(a) for c, a in args.items()}
        for cmd in CLI_COMMANDS:
            argv = ["-m", "residuelab.cli", *args[cmd], "--format", "json"]
            key = f"cli/{seed}/{r}/{cmd}"

            def run(tr, argv=argv, key=key, cmd=cmd):
                with tr.span(f"cli.cmd.{cmd}"):
                    code, out, err = children.run(argv, workdir)
                _check(code == 0, f"exit {code}: {err.decode(errors='replace').strip()[-300:]}")
                report = _report_digest_obj(out)
                _check(report.get("ok") is True, "report not ok")
                _check(first_output.setdefault(key, out) == out, "report bytes differ from the first run")
                return report

            ops.append(Op(key, f"cli:{cmd}", run))

    def probe(tr, index):
        """Once per round: a bare interpreter and an import-only child."""
        if index % len(CLI_COMMANDS) == 0:
            with tr.span("cli.python"):
                children.run(["-c", "pass"], workdir)
            with tr.span("cli.import"):
                children.run(["-c", "import residuelab.cli"], workdir)

    return Workload(ops, {"rounds": CLI_ROUNDS, "commands": commands}, probe=probe)


BUILDERS = {
    "exact-corpus": build_exact_corpus,
    "proofs": build_proofs,
    "tube-numerics": build_tube_numerics,
    "cli-cold": build_cli_cold,
}
