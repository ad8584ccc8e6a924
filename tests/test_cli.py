import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from residuelab import QI, AffineForm, MeroValue, RadialProfile, blowup_example, cli, diagonal_scenario
from residuelab.charts import Factor
from residuelab.cli import main
from residuelab.deduction import StalledError
from residuelab.extforms import PolyForm, form_to_obj
from residuelab.merovalue import TokenPowerError
from residuelab.poly import Poly


@pytest.fixture()
def blowup_file(tmp_path):
    path = tmp_path / "blowup.json"
    path.write_text(blowup_example().to_json())
    return str(path)


@pytest.fixture()
def diagonal_file(tmp_path):
    path = tmp_path / "diag.json"
    path.write_text(diagonal_scenario([1, 1], p=1).to_json())
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_poles_blowup(capsys, blowup_file):
    code, out = run(capsys, "poles", blowup_file, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["results"]["chart:z"]["forms"] == [[1, 1, 0]]
    assert obj["results"]["global"]["forms"] == []


def test_poles_shape_violation_exit_1(capsys, tmp_path):
    # duplicated factor: not a complete intersection, the chart sum keeps a
    # mixed-block pole and the certificate shape check must fail
    doc = {
        "signature": {"n": 1, "p": 1, "q": 1, "N": 1},
        "charts": [{"name": "c", "alpha": [[1]], "beta": [[1]], "jac": [0], "sign": 1}],
        "testforms": {
            "c": {
                "terms": [
                    {
                        "coeff": {"re": [1, 1], "im": [0, 1]},
                        "factors": [
                            {"a": 1, "b": 0, "rho": {"knots": [[0, 1], [1, 1]], "pieces": [[[1, 1]]]}}
                        ],
                        "dbar_slots": [],
                    }
                ]
            }
        },
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "poles", str(path), "--format", "json")
    assert code == 1
    obj = json.loads(out)
    verdicts = {v["name"]: v["pass"] for v in obj["verdicts"]}
    assert verdicts["shape:global"] is False


def test_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["poles", str(bad)]) == 2
    assert main(["poles", str(tmp_path / "missing.json")]) == 2


def test_eval_command(capsys, blowup_file):
    code, out = run(capsys, "eval", blowup_file, "--chart", "z", "--lam", "3,4,5", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdicts"][0]["name"] == "exact-vs-quadrature"
    assert obj["verdicts"][0]["pass"] is True


def test_eval_checks_the_quadrature_on_four_variables(capsys, tmp_path):
    # the quadrature takes any number of variables, so eval checks n = 4 against it
    path = tmp_path / "diag4.json"
    path.write_text(diagonal_scenario([1, 1, 2, 1], p=2).to_json())
    code, out = run(capsys, "eval", str(path), "--lam", "3,3,3,3", "--format", "json")
    assert code == 0
    (verdict,) = json.loads(out)["verdicts"]
    assert verdict["name"] == "exact-vs-quadrature" and verdict["pass"] is True


def test_table_report_prints_the_verdict_tolerance(capsys, diagonal_file):
    code, out = run(capsys, "eval", diagonal_file, "--lam", "3,3")
    assert code == 0
    (line,) = [ln for ln in out.splitlines() if "exact-vs-quadrature" in ln]
    assert line.startswith("  [PASS] exact-vs-quadrature  value=") and line.endswith("  tol=1e-06")


def test_global_command(capsys, blowup_file):
    code, out = run(capsys, "global", blowup_file, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["results"]["pole_hyperplanes"] == []
    assert obj["results"]["value_at_origin"]["pretty"] == "(-1)*(2*pi*i)^3"


def test_residue_command(capsys, blowup_file):
    code, out = run(
        capsys, "residue", blowup_file, "--form", "1,1,0", "--point", "1/3,-1/3,1/5",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["results"]["residue_sum"]["re"] == [0, 1]


def test_tube_command(capsys, diagonal_file):
    code, out = run(capsys, "tube", diagonal_file, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    names = {v["name"] for v in obj["verdicts"]}
    assert "admissible-ratio-condition" in names
    assert "limit-matches-origin-value" in names


def test_tube_tol_tightens_origin_value_check(capsys, diagonal_file):
    code, out = run(capsys, "tube", diagonal_file, "--tol", "1e-20", "--format", "json")
    assert code == 1
    verdicts = {v["name"]: v["pass"] for v in json.loads(out)["verdicts"]}
    assert verdicts["limit-matches-origin-value"] is False


def test_flags_only_on_commands_that_read_them(capsys, blowup_file):
    assert main(["poles", blowup_file, "--seed", "3"]) == 2
    capsys.readouterr()
    code, out = run(capsys, "poles", blowup_file, "--format", "json")
    assert code == 0
    assert json.loads(out)["inputs"]["options"] == {"format": "json", "scenario": blowup_file}


def test_mellin_check_command(capsys, diagonal_file):
    code, out = run(capsys, "mellin-check", diagonal_file, "--lam", "3,3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert all(v["pass"] for v in obj["verdicts"])


def test_mellin_check_rejects_rows_that_share_a_report_key(capsys, tmp_path):
    # each row reports under the float text of its lambda, so two rows that
    # read as the same floats would overwrite one another's result
    path = tmp_path / "diag1.json"
    path.write_text(diagonal_scenario([1], p=1).to_json())
    for lams in (["3", "3"], ["3", "30000000000000001/10000000000000000"]):
        code = main(["mellin-check", str(path), *(x for lam in lams for x in ("--lam", lam))])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: --lam: ")
    code, out = run(capsys, "mellin-check", str(path), "--lam", "3", "--lam", "4", "--format", "json")
    assert code == 0
    assert sorted(json.loads(out)["results"]) == ["lambda(3.0)", "lambda(4.0)"]


def test_tube_commands_apply_the_chart_sign(capsys, tmp_path):
    # a tube that dropped the chart's sign would meet the origin value and
    # the exact value with the wrong sign
    doc = diagonal_scenario([1, 1], p=1).to_obj()
    doc["charts"][0]["sign"] = -1
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "tube", str(path), "--format", "json")
    verdicts = {v["name"]: v["pass"] for v in json.loads(out)["verdicts"]}
    assert code == 0
    assert verdicts["limit-matches-origin-value"] is True
    code, out = run(capsys, "mellin-check", str(path), "--lam", "3,3", "--format", "json")
    assert code == 0
    reference = json.loads(out)["results"]["lambda(3.0,3.0)"]["reference"]
    code, out = run(capsys, "eval", str(path), "--lam", "3,3", "--format", "json")
    exact = json.loads(out)["results"]["exact_at_point"]
    want = complex(Fraction(*exact["re"]), Fraction(*exact["im"])) * (2j * math.pi) ** exact["twopii_power"]
    assert abs(want) > 1e-3
    assert complex(reference["re"], reference["im"]) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("argv", [["tube"], ["mellin-check", "--lam", "3,3"]], ids=["tube", "mellin-check"])
def test_tube_commands_reject_N_other_than_1(capsys, tmp_path, argv):
    # the tube factors are the N = 1 integrals: an N = 2 scenario would be
    # checked against the wrong integral
    path = tmp_path / "n2.json"
    path.write_text(diagonal_scenario([1, 1], p=1, N=2).to_json())
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: signature.N: tubes take N = 1 data, got N = 2\n"
    assert captured.out == ""


def test_missing_test_form_names_its_path(capsys, tmp_path):
    doc = blowup_example().to_obj()
    del doc["testforms"]["zeta"]
    path = tmp_path / "no-zeta.json"
    path.write_text(json.dumps(doc))
    for argv in (["global", str(path)], ["tube", str(path), "--chart", "zeta"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: testforms['zeta']: no test form for this chart\n"
        assert captured.out == ""
    code, out = run(capsys, "poles", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["global"] == "skipped (test forms missing for some chart)"


def test_divlemma_pass_and_fail(capsys, tmp_path):
    psi = PolyForm.basis(3, (2,)) + PolyForm.basis(3, (3,), Poly.variable(3, 0, Fraction(1)))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"n": 3, "K": [1], "psi": form_to_obj(psi), "alphas": [[0, 3, 0]]}))
    assert main(["divlemma", str(good)]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "n": 3,
                "K": [1],
                "psi": form_to_obj(PolyForm.basis(3, (2,))),
                "omega": form_to_obj(PolyForm.zero(3, 1)),
            }
        )
    )
    code = main(["divlemma", str(bad), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    obj = json.loads(out)
    failing = [v["name"] for v in obj["verdicts"] if not v["pass"]]
    assert failing == ["nonsingular-log-wedge:x1"]


def test_deduce_command(capsys):
    code, out = run(capsys, "deduce", "2", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["results"]["trace"]["analytic"] is True


def test_example3_command(capsys):
    code, out = run(capsys, "example3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    names = [v["name"] for v in obj["verdicts"]]
    assert "cross-chart-residues-cancel" in names
    assert "global-analytic-at-origin" in names
    assert "value-matches-parts-reference" in names


def test_example3_dropped_chart_detects_pole(capsys):
    code, out = run(capsys, "example3", "--drop-chart", "zeta", "--format", "json")
    assert code == 1
    obj = json.loads(out)
    verdicts = {v["name"]: v for v in obj["verdicts"]}
    assert verdicts["global-analytic-at-origin"]["pass"] is False
    assert verdicts["global-analytic-at-origin"]["value"] == ["L1+L2"]


def test_json_reports_reproducible(capsys, blowup_file):
    _, first = run(capsys, "poles", blowup_file, "--format", "json")
    _, second = run(capsys, "poles", blowup_file, "--format", "json")
    assert first == second
    _, third = run(capsys, "eval", blowup_file, "--chart", "z", "--lam", "3,4,5", "--format", "json")
    _, fourth = run(capsys, "eval", blowup_file, "--chart", "z", "--lam", "3,4,5", "--format", "json")
    assert third == fourth


def test_seeded_example3(capsys):
    code, _ = run(capsys, "example3", "--seed", "7")
    assert code == 0


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("eval", "{blowup}", "--lam", "1/0,1,1"), "--lam"),
        (("residue", "{blowup}", "--form", "1,1,0", "--point", "1/0,1,1"), "--point"),
        (("tube", "{diagonal}", "--eps", "1/0"), "--eps"),
    ],
    ids=["eval", "residue", "tube"],
)
def test_zero_denominator_flag_exit_2(capsys, blowup_file, diagonal_file, argv, flag):
    argv = [a.format(blowup=blowup_file, diagonal=diagonal_file) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {flag}: zero denominator\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--eps", "1/4"), "--eps: expected 2 values"),
        (("--eps", "1/4,0"), "--eps: tube radii must be positive"),
    ],
    ids=["eps-count", "eps-zero"],
)
def test_tube_flag_errors_name_the_flag(capsys, diagonal_file, argv, message):
    assert main(["tube", diagonal_file, *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_tube_has_no_path_flag(capsys, diagonal_file):
    # tube limits follow one fixed admissible path
    assert main(["tube", diagonal_file, "--path-M", "5"]) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --path-M 5" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "1e400"])
@pytest.mark.parametrize(
    "argv",
    [("eval", "{blowup}", "--lam", "3,3,3"), ("tube", "{diagonal}"), ("mellin-check", "{diagonal}", "--lam", "3,3")],
    ids=["eval", "tube", "mellin-check"],
)
def test_tol_that_is_no_tolerance_names_the_flag(capsys, blowup_file, diagonal_file, argv, tol):
    # NaN failed every numeric verdict and inf passed them all, so bad input read as a verdict
    argv = [a.format(blowup=blowup_file, diagonal=diagonal_file) for a in argv]
    assert main([*argv, f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --tol: expected a finite tolerance >= 0\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("tube", "{diagonal}", "--eps", "1e400,1"), "--eps"),
        (("eval", "{blowup}", "--lam", "1e400,3,3"), "--lam"),
        (("mellin-check", "{diagonal}", "--lam", "1e400,3"), "--lam"),
    ],
    ids=["tube", "eval", "mellin-check"],
)
def test_flag_values_beyond_the_float_range_name_the_flag(capsys, blowup_file, diagonal_file, argv, flag):
    argv = [a.format(blowup=blowup_file, diagonal=diagonal_file) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag}: value beyond the float range\n"
    assert captured.out == ""


def test_tube_radius_that_rounds_to_zero_names_the_flag(capsys, diagonal_file):
    # 1e-400 is a positive rational, but the tube paths would read it as 0.0
    assert main(["tube", diagonal_file, "--eps", "1e-400,1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --eps: tube radii must be positive as floats: 2^-1075 or less rounds to 0.0\n"
    assert captured.out == ""


def test_eval_quadrature_beyond_the_float_range_names_the_flag(capsys, blowup_file):
    # each lambda is a finite float, but the quadrature's integrand overflows;
    # it used to warn, report NaN and fail the exact-vs-quadrature verdict
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval", blowup_file, "--lam", "1e300,1e300,1e300"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --lam: the quadrature leaves the float range at this point\n"
    assert captured.out == ""


def test_eval_takes_a_point_beyond_the_float_range_when_no_float_path_reads_it(capsys, blowup_file):
    # Re(lambda) < 2 skips the quadrature, so the exact value alone is reported
    code, out = run(capsys, "eval", blowup_file, "--lam", "1e400,1,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["quadrature"].startswith("skipped")


THIRD_KNOT = RadialProfile(
    (Fraction(0), Fraction(1, 3), Fraction(1)), ((Fraction(1), Fraction(1, 2)), (Fraction(3, 4),))
)
THIRD_KNOT_ERROR = (
    "testforms['diag'].terms[0].factors[1].rho: profile knots ('0', '1/3', '1') not in {0,1}: "
    "Mellin transform is not a rational function"
)


@pytest.fixture()
def third_knot_file(tmp_path):
    # the exact engine reads factor 0's unit bump first, then factor 1's 1/3-knot profile
    factors = [Factor(0, 0, RadialProfile.bump(2)), Factor(1, 0, THIRD_KNOT)]
    path = tmp_path / "third-knot.json"
    path.write_text(diagonal_scenario([1, 1], p=1, factors=factors).to_json())
    return str(path)


def test_poles_skips_only_the_global_certificate_outside_the_exact_class(capsys, third_knot_file):
    code, out = run(capsys, "poles", third_knot_file, "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["chart:diag"]["forms"] == []
    assert results["global"] == f"skipped ({THIRD_KNOT_ERROR})"


@pytest.mark.parametrize(
    "argv", [["eval", "--lam", "3,3"], ["global"], ["mellin-check", "--lam", "3,3"]], ids=["eval", "global", "mellin-check"]
)
def test_exactness_errors_name_the_profile_field(capsys, third_knot_file, argv):
    assert main([argv[0], third_knot_file, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {THIRD_KNOT_ERROR}\n"
    assert captured.out == ""


def test_mellin_check_lam_length_exit_2(capsys, diagonal_file):
    assert main(["mellin-check", diagonal_file, "--lam", "3"]) == 2
    assert capsys.readouterr().err == "error: --lam: expected 2 values\n"


def test_residue_point_count_exit_2(capsys, blowup_file):
    # the blow-up example has three factors, so a point needs three values
    assert main(["residue", blowup_file, "--form", "1,1,0", "--point", "1,2"]) == 2
    assert capsys.readouterr().err == "error: --point: expected 3 values\n"


@pytest.mark.parametrize(
    "form, message",
    [
        ("1,1", "expected 3 values"),
        ("1,1,0,0", "expected 3 values"),
        ("a,1,0", "expected integers"),
        ("1/2,1,0", "expected integers"),
        ("0,0,0", "expected a nonzero vector"),
    ],
    ids=["short", "long", "letter", "fraction", "zero"],
)
def test_residue_form_errors_name_the_flag(capsys, blowup_file, form, message):
    # a form of the wrong length can match no pole, so its residue sum of 0
    # would be a false residues-cancel pass
    assert main(["residue", blowup_file, "--form", form, "--point", "1/3,-1/3,1/5"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --form: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("form", ["1,0,0", "1,1,0"], ids=["no-pole", "pole"])
def test_residue_point_off_the_form_hyperplane_names_the_flag(capsys, blowup_file, form):
    # 1,0,0 matches no pole, so its residue sum of 0 would be a false
    # residues-cancel pass; 1,1,0 would fail inside the engine
    assert main(["residue", blowup_file, "--form", form, "--point", "1,2,3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --point: not on the --form hyperplane\n"
    assert captured.out == ""


def test_mellin_check_lam_below_2_names_the_flag(capsys, diagonal_file):
    assert main(["mellin-check", diagonal_file, "--lam", "3,3", "--lam", "1,3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --lam: mellin-check needs every value >= 2\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (("residue", "{blowup}", "--form", "1,1,0", "--point", "1/3,-1/3,1/5", "--chart", "nope"),
         "--chart: no chart named 'nope'"),
        (("eval", "{blowup}", "--lam", "1,1,1", "--chart", "nope"), "--chart: no chart named 'nope'"),
        (("tube", "{diagonal}", "--chart", "nope"), "--chart: no chart named 'nope'"),
        (("mellin-check", "{diagonal}", "--lam", "3,3", "--chart", "nope"), "--chart: no chart named 'nope'"),
        (("example3", "--drop-chart", "nope"), "--drop-chart: no chart named 'nope'"),
        (("example3", "--profile-degree", "0"),
         "--profile-degree: must be >= 1 so profiles vanish at the support edge"),
    ],
    ids=["residue", "eval", "tube", "mellin-check", "example3-drop-chart", "example3-profile-degree"],
)
def test_chart_and_profile_flag_errors_name_the_flag(capsys, blowup_file, diagonal_file, argv, message):
    # an unknown name must not let residue skip every chart and pass with no
    # verdicts and a zero residue sum
    argv = [a.format(blowup=blowup_file, diagonal=diagonal_file) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_divlemma_input_errors_name_the_field(capsys, tmp_path):
    no_psi = tmp_path / "no_psi.json"
    no_psi.write_text(json.dumps({"n": 3, "K": [1]}))
    assert main(["divlemma", str(no_psi)]) == 2
    assert capsys.readouterr().err == "error: psi: missing\n"
    listed = tmp_path / "list.json"
    listed.write_text("[]")
    assert main(["divlemma", str(listed)]) == 2
    assert capsys.readouterr().err == f"error: {listed}: expected a JSON object\n"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("K", [0], "K[0]: must be >= 1, got 0"),
        ("K", [5], "K[0]: expected a distinct index in 1..3, got 5"),
        ("K", ["a"], "K[0]: expected integer, got 'a'"),
        ("K", [1, 1], "K[1]: expected a distinct index in 1..3, got 1"),
        ("K", "1", "K: expected an index list"),
        ("alphas", [[0, 0, 0]], "alphas[0]: a zero exponent row has no differential"),
        ("alphas", [[0, 3]], "alphas[0]: expected 3 entries"),
        ("alphas", [[0, -1, 0]], "alphas[0][1]: must be >= 0, got -1"),
        ("alphas", [[0, 1, 0], [0, "a", 1]], "alphas[1][1]: expected integer, got 'a'"),
        ("alphas", 3, "alphas: expected a list of exponent rows"),
        ("psi", {"degree": 0, "terms": ["x"]}, "psi.terms[0]: expected object"),
        ("psi", {"degree": 1, "terms": [{"idx": [4]}]}, "psi.terms[0].idx[0]: expected an index in 1..3, got 4"),
        ("psi", {"degree": 1, "terms": [{"idx": [1, 2]}]},
         "psi.terms[0].idx: expected one index per degree (1), got 2"),
        ("omega", {"degree": 2, "terms": []}, "omega.degree: expected psi's degree 1, got 2"),
    ],
    ids=["K-zero", "K-above-n", "K-string", "K-repeated", "K-not-list", "alphas-zero-row",
         "alphas-short-row", "alphas-negative", "alphas-string", "alphas-not-list", "psi-term",
         "psi-index-above-n", "psi-index-count", "omega-degree"],
)
def test_divlemma_index_and_row_errors_name_the_field(capsys, tmp_path, field, value, message):
    # an unchecked K = [0] would read x3 through e[i - 1] and pass
    psi = PolyForm.basis(3, (2,)) + PolyForm.basis(3, (3,), Poly.variable(3, 0, Fraction(1)))
    doc = {"n": 3, "K": [1], "psi": form_to_obj(psi), "alphas": [[0, 3, 0]], field: value}
    path = tmp_path / "forms.json"
    path.write_text(json.dumps(doc))
    assert main(["divlemma", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_scenario_non_object_coeff_exits_2(capsys, tmp_path):
    doc = blowup_example().to_obj()
    doc["testforms"]["z"]["terms"][0]["coeff"] = [1, 2]
    path = tmp_path / "coeff.json"
    path.write_text(json.dumps(doc))
    assert main(["poles", str(path)]) == 2
    assert capsys.readouterr().err == "error: testforms['z'].terms[0].coeff: expected object with re and im\n"


def test_tube_verdicts_compare_value_with_tolerance(capsys, diagonal_file):
    seen = set()
    for tol in ("1e-6", "1e-12", "1e-13", "1e-20"):
        code, out = run(capsys, "tube", diagonal_file, "--tol", tol, "--format", "json")
        verdicts = json.loads(out)["verdicts"]
        assert code == (0 if all(v["pass"] for v in verdicts) else 1)
        for v in verdicts:
            if "tolerance" in v:
                assert v["pass"] == (v["value"] <= v["tolerance"]), (tol, v)
                seen.add(v["pass"])
    assert seen == {True, False}


def test_stalled_deduction_exits_3(capsys, monkeypatch):
    def stalled(p, q):
        raise StalledError("T{1|}", [{1}])

    monkeypatch.setattr("residuelab.deduction.deduce", stalled)
    assert main(["deduce", "2", "1", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: StalledError: Stalled: T{1|} retains supports [[1]]\n"


def test_engine_fault_exits_3_without_traceback(capsys, monkeypatch, blowup_file):
    def broken(scenario):
        raise RuntimeError("engine fault")

    monkeypatch.setattr("residuelab.mellin.chart_sum", broken)
    assert main(["global", blowup_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: engine fault\n"


@pytest.mark.parametrize(
    "exc",
    [KeyError("no such key"), TokenPowerError("mixed powers of 2*pi*i"), ValueError("engine fault")],
    ids=["KeyError", "TokenPowerError", "ValueError"],
)
def test_library_errors_other_than_input_errors_exit_3(capsys, monkeypatch, blowup_file, exc):
    # only an InputError is bad input; a KeyError or ValueError from the
    # engine is an engine fault, whatever its base class
    def broken(scenario):
        raise exc

    monkeypatch.setattr("residuelab.mellin.chart_sum", broken)
    assert main(["global", blowup_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {type(exc).__name__}: {exc}\n"


@pytest.mark.parametrize(
    "path, value, field",
    [
        (("charts", 0, "sign"), 1.0, "charts[0].sign"),
        (("charts", 0, "sign"), -1.0, "charts[0].sign"),
        (("charts", 0, "sign"), True, "charts[0].sign"),
        (("testforms", "z", "terms", 0, "coeff", "re"), [True, 2], "testforms['z'].terms[0].coeff.re"),
        (("testforms", "z", "terms", 0, "factors", 0, "rho", "knots", 1), True,
         "testforms['z'].terms[0].factors[0].rho.knots[1]"),
    ],
    ids=["sign-1.0", "sign--1.0", "sign-true", "coeff-re-true", "knot-true"],
)
def test_json_floats_and_booleans_are_not_integers(capsys, tmp_path, path, value, field):
    # a float sign reached the engine and failed there; JSON true was read as 1
    doc = blowup_example().to_obj()
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    file = tmp_path / "typed.json"
    file.write_text(json.dumps(doc))
    for argv in (["poles"], ["global"], ["eval", "--lam", "3,3,3"]):
        assert main([argv[0], str(file), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field}: ")
        assert captured.out == ""


@pytest.mark.parametrize("command", ["poles", "divlemma"])
@pytest.mark.parametrize("kind", ["directory", "not-utf8", "not-json", "missing"])
def test_unreadable_input_files_name_the_file(capsys, tmp_path, command, kind):
    path = tmp_path / "input.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe{}")
    elif kind == "not-json":
        path.write_text("{not json")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "lam, message",
    [
        ("1,-1,0", "--lam: value has a pole at the requested point: L2+1, L1+L2"),
        ("x,1,1", "--lam: expected comma-separated rationals"),
    ],
    ids=["pole", "not-rational"],
)
def test_eval_lam_errors_name_the_flag(capsys, blowup_file, lam, message):
    assert main(["eval", blowup_file, "--lam", lam]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_residue_on_a_double_pole_names_the_form(capsys, monkeypatch, blowup_file):
    # no chart of the example has a double pole, so the chart value is replaced by one
    pair = AffineForm.normalize((1, 1, 0))
    double = MeroValue.from_poly(Poly.const(3, QI.one()), [(pair, 2)])
    monkeypatch.setattr("residuelab.mellin.mellin_exact", lambda scenario, chart: double)
    assert main(["residue", blowup_file, "--form", "1,1,0", "--point", "1/3,-1/3,1/5"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --form: HigherOrderPole: L1+L2 has multiplicity 2\n"
    assert captured.out == ""


def test_residue_point_on_another_pole_names_the_point(capsys, blowup_file):
    assert main(["residue", blowup_file, "--form", "1,1,0", "--point", "1,-1,0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --point: chart z: value has a pole at the requested point: L2+1\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message", [(("0", "1"), "p: must be >= 1, got 0"), (("1", "-1"), "q: must be >= 0, got -1")],
    ids=["p-0", "q-negative"],
)
def test_deduce_arguments_out_of_range_name_the_argument(capsys, argv, message):
    assert main(["deduce", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_eval_checks_the_quadrature_on_a_twist_of_99999(capsys, tmp_path):
    # the quadrature integrates only the terms angular selection keeps, so a
    # huge twist on a test-form factor needs no angle grid
    doc = blowup_example().to_obj()
    doc["testforms"]["z"]["terms"][0]["factors"][0]["b"] = 10**5
    path = tmp_path / "twist.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "eval", str(path), "--chart", "z", "--lam", "3,3,3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert isinstance(report["results"]["quadrature"], dict)
    (verdict,) = report["verdicts"]
    assert verdict["name"] == "exact-vs-quadrature" and verdict["pass"] is True
    assert verdict["value"] <= 1e-12


def test_eval_quadrature_drops_a_twist_the_angle_count_would_alias(capsys, tmp_path):
    # x^0 conj(x)^1 against f = x^64 twists by u - v = -64, which the old grid
    # of 32 and 64 midpoint angles, sized from |a - b| = 1, read as no twist
    sc = diagonal_scenario([64], p=1, factors=[Factor(0, 1, RadialProfile.bump(2))])
    path = tmp_path / "twist64.json"
    path.write_text(sc.to_json())
    code, out = run(capsys, "eval", str(path), "--lam", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["quadrature"] == {"re": 0.0, "im": 0.0}
    assert report["verdicts"] == [{"name": "exact-vs-quadrature", "pass": True, "tolerance": 1e-06, "value": 0.0}]


def test_exact_commands_start_without_numpy(tmp_path, blowup_file, diagonal_file):
    # one fresh interpreter per command, so neither the test session nor
    # another command counts: each loads only the modules it runs, and none
    # loads dataclasses
    psi = PolyForm.basis(3, (2,)) + PolyForm.basis(3, (3,), Poly.variable(3, 0, Fraction(1)))
    div = tmp_path / "div.json"
    div.write_text(json.dumps({"n": 3, "K": [1], "psi": form_to_obj(psi), "alphas": [[0, 3, 0]]}))
    commands = {
        "poles": [blowup_file],
        "eval": [diagonal_file, "--lam", "3,3"],
        "global": [blowup_file],
        "residue": [blowup_file, "--form", "1,1,0", "--point", "1/3,-1/3,1/5"],
        "tube": [diagonal_file],
        "mellin-check": [diagonal_file, "--lam", "3,3"],
        "divlemma": [str(div)],
        "deduce": ["2", "1"],
        "example3": [],
    }
    script = (
        "import contextlib, io, json, sys\n"
        "from residuelab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(json.dumps([code, list(sys.modules)]))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    loaded = {}
    for command, args in commands.items():
        proc = subprocess.run(
            [sys.executable, "-c", script, command, *args],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout)
        assert code == 0, command
        loaded[command] = set(modules)

    def loading(module):
        return {command for command, modules in loaded.items() if module in modules}

    assert loading("dataclasses") == set()
    assert loading("numpy") == {"eval", "mellin-check"}
    assert loading("residuelab.tubes") == {"tube", "mellin-check"}
    assert loading("residuelab.deduction") == {"deduce"}
    assert loading("residuelab.extforms") == {"divlemma"}
    assert not loading("residuelab.mellin") & {"deduce", "divlemma"}
    assert not loaded["deduce"] & {"residuelab.merovalue", "residuelab.leibniz"}
    # deduce and divlemma read their input through errors alone, without charts
    for module in ("residuelab.charts", "residuelab.profiles", "residuelab.gaussian"):
        assert loading(module) == set(commands) - {"deduce", "divlemma"}, module
    package = {m for m in loaded["deduce"] if m.startswith("residuelab.")}
    assert package <= {"residuelab.cli", "residuelab.errors", "residuelab.frozen", "residuelab.deduction"}
