"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import json
import random
import time
from fractions import Fraction

from residuelab import (
    QI,
    LinForm,
    RadialProfile,
    blowup_example,
    blowup_parts,
    chart_certificate,
    deduce,
    diagonal_scenario,
    extreme_pole,
    mellin_check,
    mellin_exact,
    mellin_quadrature,
    residue_on,
    tube_integral,
    tube_spec_from_chart,
    value_at_origin,
)
from residuelab.charts import ChartSpec, Factor, ProblemSignature, Scenario, SeparableTerm, SeparableTestForm
from residuelab.cli import main
from residuelab.extforms import (
    annihilated_by_row_differentials,
    build_interpolant,
    log_wedge_nonsingular,
)
from residuelab.merovalue import TokenScalar

from corpus import ci_pullback_instance, random_chart_scenario, random_polyform


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_blowup_golden(capsys):
    t0 = time.monotonic()
    assert main(["example3", "--format", "json"]) == 0
    out = capsys.readouterr().out
    obj = json.loads(out)
    assert obj["ok"] is True

    sc = blowup_example()
    pair = LinForm.normalize((1, 1, 0))
    # (a) each chart certificate is exactly the pair hyperplane
    for chart in sc.charts:
        assert chart_certificate(chart).forms == frozenset({pair})
    # (b) residues at a generic rational point cancel exactly, zero tolerance
    pt = (Fraction(1, 3), Fraction(-1, 3), Fraction(1, 5))
    vz = mellin_exact(sc, "z")
    vzeta = mellin_exact(sc, "zeta")
    rz = residue_on(pair, vz, pt)
    rzeta = residue_on(pair, vzeta, pt)
    assert rz.coeff and rzeta.coeff
    assert rz.coeff + rzeta.coeff == QI.zero()
    # (c) the chart sum is analytic at the origin
    total = (vz + vzeta).reduced()
    assert total.hyperplane_forms() == frozenset()
    # (d) its value equals the two-fold integration-by-parts reference,
    # exactly, with the orientation pinned by the one-variable identity
    got = value_at_origin(total)
    want = value_at_origin(mellin_exact(blowup_parts(), "parts"))
    assert got == want == TokenScalar(QI.of(-1), 3)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    with capsys.disabled():
        _report(1, f"blow-up golden pipeline exact in {elapsed:.2f}s (< 10s)")


def _chart_corpus(count=200, seed=2024):
    rng = random.Random(seed)
    out = []
    saw_q = False
    while len(out) < count:
        sc = random_chart_scenario(rng, nmax=4, pmax=4, qmax=4, emax=3)
        saw_q = saw_q or sc.signature.q >= 1
        out.append(sc)
    assert saw_q
    return out


def test_criterion_2_certificate_shape(capsys):
    t0 = time.monotonic()
    violations = 0
    for sc in _chart_corpus():
        chart = sc.charts[0]
        cert = chart_certificate(chart)
        for f in cert.forms:
            s = f.support()
            if len(s) < 2 or any(i > chart.p for i in s):
                violations += 1
    elapsed = time.monotonic() - t0
    assert violations == 0
    assert elapsed < 60.0
    with capsys.disabled():
        _report(2, f"200 random charts, certificate shape violations: 0 ({elapsed:.2f}s < 60s)")


def test_criterion_3_oracle_soundness(capsys):
    violations = 0
    nonzero = 0
    for sc in _chart_corpus():
        chart = sc.charts[0]
        cert = chart_certificate(chart)
        v = mellin_exact(sc, chart).reduced()
        if not v.is_zero():
            nonzero += 1
        if not v.hyperplane_forms() <= cert.forms:
            violations += 1
    assert violations == 0
    assert nonzero > 100
    with capsys.disabled():
        _report(3, f"oracle soundness on the corpus: 0 unpredicted poles ({nonzero} nonzero values)")


def test_criterion_4_division_lemma(capsys):
    rng = random.Random(404)
    bad_i = 0
    for _ in range(500):
        n = rng.randint(2, 5)
        d = rng.randint(0, n)
        K = set(rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
        psi = random_polyform(rng, n, d)
        omega = build_interpolant(psi, K)
        if not all(log_wedge_nonsingular(psi, omega, K).values()):
            bad_i += 1
    bad_ii = 0
    for _ in range(120):
        psih, K, alpha_rows = ci_pullback_instance(rng)
        omega = build_interpolant(psih, K)
        if not all(log_wedge_nonsingular(psih, omega, K).values()):
            bad_ii += 1
        if not annihilated_by_row_differentials(omega, alpha_rows):
            bad_ii += 1
    assert bad_i == 0 and bad_ii == 0
    with capsys.disabled():
        _report(4, "division lemma: 500 interpolants divisible, 120 pulled-back instances annihilated")


def test_criterion_5_deduction(capsys):
    t0 = time.monotonic()
    for p in range(1, 6):
        for q in range(0, 6):
            assert deduce(p, q).analytic
    trace = deduce(2, 1)
    steps = [s for s in trace.steps if s.target.dbar_set == {1, 2}]
    assert len(steps) == 2
    assert steps[0].context.allowed_supports == frozenset({frozenset({1, 3})})
    assert steps[0].result.allowed_supports == frozenset({frozenset({1})})
    assert steps[1].context.allowed_supports == frozenset({frozenset({2, 3})})
    assert steps[1].result.is_analytic
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    with capsys.disabled():
        _report(5, f"36 deductions analytic, two-step elimination trace verified ({elapsed:.2f}s < 5s)")


def test_criterion_6_mellin_identity(capsys):
    # closed tube form: -2*pi*i*(1 - eps)
    import math

    box = RadialProfile.on_unit([1])
    tf = SeparableTestForm(
        (SeparableTerm(QI.one(), (Factor(1, 0, box),), frozenset({1})),)
    )
    from residuelab import TubeSpec

    for eps in (Fraction(1, 4), Fraction(1, 9), Fraction(3, 7)):
        spec = TubeSpec(1, (1,), (1,), 0, (eps,))
        got = tube_integral(spec, tf)
        assert abs(got - (-2j * math.pi * (1 - float(eps)))) < 1e-12
    # closed continued value: -2*pi*i/(L+1)
    sig = ProblemSignature(n=1, p=0, q=1, N=1)
    chart = ChartSpec("c", (), ((1,),), (0,), 1)
    sc = Scenario(sig, (chart,), {"c": tf})
    v = mellin_exact(sc, "c")
    from residuelab.linform import AffineForm
    from residuelab.merovalue import MeroValue
    from residuelab.poly import Poly

    assert v == MeroValue.from_poly(Poly.const(1, QI.of(-1)), [(AffineForm((1,), 1), 1)], 1)
    # numeric identity at lambda in {3, 5}
    spec = TubeSpec(1, (1,), (1,), 0, (Fraction(1, 4),))
    rows = mellin_check(spec, tf, [[3.0], [5.0]])
    assert all(r.rel_error <= 1e-6 for r in rows)
    # mixed pair at (3, 3)
    pair_sc = diagonal_scenario([1, 1], p=1)
    pair_chart = pair_sc.charts[0]
    pair_spec = tube_spec_from_chart(pair_chart, [Fraction(1, 100)] * 2)
    pair_rows = mellin_check(pair_spec, pair_sc.testform(pair_chart.name), [[3.0, 3.0]])
    assert pair_rows[0].rel_error <= 1e-6
    signs = {r.sign for r in rows} | {pair_rows[0].sign}
    assert len(signs) == 1
    with capsys.disabled():
        _report(6, "iterated transform identity: closed forms exact, numeric checks <= 1e-6")


def test_criterion_7_halfspace_independent_of_N(capsys):
    for k in (1, 2, 3, 4):
        for N in (1, 2, 3, 4, 5):
            sig = ProblemSignature(n=1, p=0, q=1, N=N)
            chart = ChartSpec("c", (), ((k,),), (0,), 1)
            tf = SeparableTestForm(
                (SeparableTerm(QI.one(), (Factor(N * k, 0, RadialProfile.bump(2)),), frozenset({1})),)
            )
            sc = Scenario(sig, (chart,), {"c": tf})
            assert extreme_pole(mellin_exact(sc, "c")) == Fraction(-1, k)
    with capsys.disabled():
        _report(7, "extreme pole is exactly -1/k for k <= 4, N <= 5")


def test_criterion_8_exact_vs_quadrature(capsys):
    t0 = time.monotonic()
    rng = random.Random(808)
    scenarios = []
    while len(scenarios) < 20:
        sc = random_chart_scenario(rng, nmax=2, pmax=2, qmax=2, emax=3)
        if not mellin_exact(sc, sc.charts[0]).is_zero():
            scenarios.append(sc)
    worst = 0.0
    for sc in scenarios:
        v = mellin_exact(sc, sc.charts[0])
        for _ in range(5):
            lam = [
                Fraction(rng.randint(8, 24), 4) for _ in range(sc.signature.nfactors)
            ]
            ref = v.eval_complex([complex(x) for x in lam])
            q = mellin_quadrature(sc, sc.charts[0], [complex(x) for x in lam])
            rel = abs(q.value - ref) / max(abs(ref), 1e-30)
            worst = max(worst, rel)
            assert rel <= 1e-6, (sc.charts[0], lam, rel)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    with capsys.disabled():
        _report(8, f"20 scenarios x 5 points: worst relative deviation {worst:.2e} <= 1e-6 ({elapsed:.1f}s < 120s)")
