import argparse
import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallsub import strength
from smallsub.budget import Budget, InternalError
from smallsub.cli import build_parser, main, run
from smallsub.fields import GF
from smallsub.grammar import MAX_VARIABLES, parse_polynomial as pp


def _json_out(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def test_gb_subcommand(capsys):
    code = main(["gb", "--field", "p=5", "--gens", "x1^2+x2^2; x1*x2"])
    assert code == 0
    report = _json_out(capsys)
    assert report["schema"] == 1
    assert "x2^3" in report["result"]["basis"]


def test_reports_are_byte_identical(capsys):
    argv = ["descend", "--field", "p=2", "--forms", "x1*x2+x3*x4", "--seed", "7"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["config"]["seed"] == 7


def test_strength_subcommand(capsys):
    code = main(["strength", "--field", "p=2", "--form", "x1*x2+x3*x4"])
    assert code == 0
    report = _json_out(capsys)
    result = report["result"]
    assert result["exact"] == 1
    assert result["jacobian_lower"] == 1
    assert result["witness"]["k"] == 2


def test_strength_linear_reports_inf(capsys):
    main(["strength", "--field", "p=2", "--form", "x1+x2"])
    report = _json_out(capsys)
    assert report["result"]["exact"] == "inf"


def test_collapse_subcommand(capsys):
    code = main(["collapse", "--field", "p=2", "--form", "x1*x2+x3*x4", "--k", "1"])
    assert code == 0
    assert _json_out(capsys)["result"]["found"] is False


def test_pdim_subcommand(capsys):
    code = main(["pdim", "--field", "p=2", "--gens", "x1; x2; x3"])
    assert code == 0
    assert _json_out(capsys)["result"]["pdim"] == 3


def test_certify_pass_and_fail_exit_codes(capsys):
    code = main(["certify", "--field", "p=5", "--forms", "x1^2+x2^2+x3^2",
                 "--eta", "1"])
    assert code == 0
    report = _json_out(capsys)
    assert report["result"]["verdict"] == "pass"
    code = main(["certify", "--field", "p=5", "--forms", "x1*x2", "--eta", "1"])
    assert code == 1
    report = _json_out(capsys)
    assert report["result"]["verdict"] == "fail"


def test_certify_smooth_quotient_prints_inf(capsys):
    # a linear complete intersection has an empty singular locus: its
    # codimension prints as "inf", as JSON text, and R_eta passes
    code = main(["certify", "--field", "p=5", "--nvars", "3", "--forms", "x1; x2",
                 "--eta", "1"])
    out = capsys.readouterr().out
    assert code == 0 and "Infinity" not in out
    report = json.loads(out)["result"]
    assert (report["verdict"], report["smooth"], report["codim_singular"]) == \
        ("pass", True, "inf")


def test_certify_matrix_file(capsys, tmp_path):
    spec = {"field": "p=5", "nvars": 3,
            "rows": [["x1", "x2", "x3"], ["x1^2", "x2^2", "x3^2"]]}
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(spec))
    code = main(["certify", "--matrix", str(path), "--theorem", "max-minors"])
    assert code == 0
    report = _json_out(capsys)
    assert report["result"]["holds"] is True
    # the rows are parsed in the file's field, not in the default --field Q
    assert report["config"]["field"] == "p=5"
    del spec["field"]
    path.write_text(json.dumps(spec))
    assert main(["certify", "--field", "p=7", "--matrix", str(path),
                 "--theorem", "max-minors"]) == 0
    assert _json_out(capsys)["config"]["field"] == "p=7"


def test_descend_subcommand(capsys):
    code = main(["descend", "--field", "p=2", "--forms", "x1*x2+x3*x4",
                 "--policy", "maximal"])
    assert code == 0
    result = _json_out(capsys)["result"]
    assert result["s"] == 4
    assert result["regular_sequence"] is True
    assert all(result["membership"])


def test_descend_table_policy(capsys):
    code = main(["descend", "--field", "p=2", "--forms", "x1*x2+x3*x4",
                 "--policy", "table", "--eta", "1"])
    assert code == 0
    result = _json_out(capsys)["result"]
    assert result["policy"] == "table" and result["steps"] == [] and result["s"] == 1


def test_descend_budget_report_names_its_cap(capsys):
    # the search stops at the candidate cap: an exit-2 report like every
    # other, with the partial trace as its result
    code = main(["descend", "--field", "p=3", "--max-candidates", "30",
                 "--forms", "x1*x2+x3*x4+x5*x6; x1^2+x2*x5+x3*x6"])
    assert code == 2
    report = _json_out(capsys)
    assert report["budget_exceeded"] is True
    assert report["cap"] == {"what": "collapse candidates", "limit": 30}
    assert report["error"] == "budget exceeded: collapse candidates limit 30"
    assert report["config"]["budgets"]["max_candidates"] == 30
    assert report["result"]["complete"] is False and report["result"]["s"] == 2


def test_gb_gens_file(capsys, tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("# a comment line\nx1^2+x2^2\nx1*x2\n")
    assert main(["gb", "--field", "p=5", "--gens-file", str(path)]) == 0
    from_file = _json_out(capsys)
    assert main(["gb", "--field", "p=5", "--gens", "x1^2+x2^2; x1*x2"]) == 0
    assert from_file == _json_out(capsys)
    assert "x2^3" in from_file["result"]["basis"]


def test_descend_forms_file(capsys, tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("# fixture\nx1*x2\n")
    code = main(["descend", "--field", "p=2", "--forms-file", str(path),
                 "--policy", "k=1"])
    assert code == 0
    assert _json_out(capsys)["result"]["final_generators"] == ["x1", "x2"]


def test_bounds_subcommands(capsys):
    main(["bounds", "--table", "quadric-B", "--n", "3"])
    assert _json_out(capsys)["result"]["value"] == 20
    main(["bounds", "--table", "cubic", "--char", "0", "--eta", "1",
          "--delta", "0,0,1"])
    assert _json_out(capsys)["result"]["value"] == [0, 2, 14]
    main(["bounds", "--table", "quadric-thresholds", "--n", "3", "--eta", "2"])
    out = _json_out(capsys)["result"]
    assert (out["regular_sequence_threshold"], out["reta_threshold"]) == (2, 3)
    main(["bounds", "--table", "phi", "--h", "4", "--d", "3", "--char", "2"])
    assert _json_out(capsys)["result"]["value"] == 4


def test_parse_error_exit_code(capsys):
    code = main(["gb", "--field", "p=5", "--gens", "x1 +* x2"])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_overlong_literal_exit_code(capsys, default_int_digit_limit):
    code = main(["strength", "--field", "p=5",
                 "--form", "x1^" + "9" * (default_int_digit_limit + 700)])
    assert code == 3
    assert "too long (at position 3)" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    ["--gens", f"x{MAX_VARIABLES + 1} + 1"],
    ["--gens", "x1", "--nvars", str(MAX_VARIABLES + 1)],
])
def test_variable_cap_exit_code(capsys, extra):
    code = main(["gb", "--field", "p=5"] + extra)
    assert code == 3
    assert "cap of 1000" in capsys.readouterr().err


def test_bad_field_exit_code(capsys):
    code = main(["gb", "--field", "p=6", "--gens", "x1"])
    assert code == 3
    capsys.readouterr()


def test_large_prime_field_runs_promptly(capsys):
    start = time.perf_counter()
    code = main(["gb", "--field", "p=2305843009213693951", "--gens", "x1"])
    assert code == 0
    assert time.perf_counter() - start < 5.0
    assert _json_out(capsys)["result"]["basis"] == ["x1"]


@pytest.mark.parametrize("p", [3215031751, 3317044064679887385961981])
def test_pseudoprime_and_unprovable_fields_exit_code(capsys, p):
    code = main(["gb", "--field", f"p={p}", "--gens", "x1"])
    assert code == 3
    assert "bad field spec" in capsys.readouterr().err


def test_budget_exceeded_exit_code(capsys):
    code = main(["gb", "--field", "p=5", "--max-pairs", "1",
                 "--gens", "x1^3+x2^2*x3; x2^3+x1*x3^2; x3^3+x1^2*x2"])
    assert code == 2
    report = _json_out(capsys)
    assert report["budget_exceeded"] is True
    # the same config block as every other report, and the cap that was hit
    assert report["config"] == {
        "field": "p=5", "order": "grevlex", "seed": 0,
        "budgets": {"max_pairs": 1, "max_degree": None,
                    "max_candidates": Budget().max_candidates,
                    "max_steps": Budget().max_steps}}
    assert report["cap"] == {"what": "groebner pairs", "limit": 1}
    assert report["error"] == "budget exceeded: groebner pairs limit 1"


def test_internal_error_exit_code(capsys, monkeypatch):
    # a degree-d solve disagreeing with the collapse verdict is a bug, not a
    # verdict: here the lift's layout, the only one with more slots than
    # the 3 quadratic monomials, reduces nothing, so F's residual stays
    # nonzero while the search still finds x1.  The command runs once
    # first, so every table of its shape is cached before the patch: the
    # lift still takes its layout from _slot_layout on every call
    argv = ["collapse", "--field", "p=2", "--form", "x1*x2", "--k", "1"]
    assert main(argv) == 0
    capsys.readouterr()
    layout = strength._slot_layout

    def no_reduction(p, nslots):
        width, norm, reduce, monic = layout(p, nslots)
        if nslots > 3:
            reduce = lambda vec, rows, mask: vec
        return width, norm, reduce, monic

    monkeypatch.setattr(strength, "_slot_layout", no_reduction)
    code = main(argv)
    assert code == 4
    report = _json_out(capsys)
    assert report["internal_error"] is True
    assert report["command"] == "collapse"
    assert report["config"]["field"] == "p=2"
    assert report["config"]["budgets"]["max_candidates"] == Budget().max_candidates
    assert "cap" not in report and "result" not in report


def test_default_budgets_come_from_budget(monkeypatch):
    for env in ("SMALLSUB_MAX_PAIRS", "SMALLSUB_MAX_DEGREE",
                "SMALLSUB_MAX_CANDIDATES", "SMALLSUB_MAX_STEPS"):
        monkeypatch.delenv(env, raising=False)
    _, report = run(["bounds", "--table", "quadric-B", "--n", "2"])
    default = Budget()
    assert report["config"]["budgets"] == {
        "max_pairs": default.max_pairs, "max_degree": default.max_degree,
        "max_candidates": default.max_candidates, "max_steps": default.max_steps}


def test_unknown_flag_exit_code(capsys):
    code = main(["gb", "--nope"])
    assert code == 3
    capsys.readouterr()


def test_text_output(capsys):
    code = main(["bounds", "--table", "quadric-B", "--n", "4",
                 "--output", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "result.value: 68" in out


def test_timing_flag_adds_field(capsys):
    main(["bounds", "--table", "quadric-B", "--n", "3", "--timing"])
    assert "timing_ms" in _json_out(capsys)


def test_run_returns_report():
    code, report = run(["bounds", "--table", "quadric-B", "--n", "2"])
    assert code == 0 and report["result"]["value"] == 4


def test_intersect_colon_infer_shared_ambient(capsys):
    code = main(["intersect", "--field", "p=5", "--gens", "x1; x2",
                 "--with", "x2; x3"])
    assert code == 0
    assert sorted(_json_out(capsys)["result"]["basis"]) == ["x1*x3", "x2"]
    code = main(["colon", "--field", "p=5", "--gens", "x1*x2",
                 "--with", "x1; x3"])
    assert code == 0
    capsys.readouterr()


def test_verbose_trace_on_stderr(capsys):
    code = main(["gb", "--field", "p=5", "--gens", "x1^2+x2^2; x1*x2",
                 "--verbose"])
    assert code == 0
    err = capsys.readouterr().err
    assert err == ("trace: pairs_processed=1 zero_reductions=0 syzygy_skips=2 "
                   "rewrite_skips=0 basis_size=3 reduced_basis_size=3\n")


def test_candidate_cap_degrades_to_an_interval(capsys):
    code = main(["strength", "--field", "p=3",
                 "--form", "x1*x2+x2*x3+x1*x3", "--max-candidates", "2"])
    capsys.readouterr()
    assert code == 0  # degrades to an honest interval, not an error
    code, report = run(["strength", "--field", "p=3",
                        "--form", "x1*x2+x2*x3+x1*x3", "--max-candidates", "2"])
    assert report["config"]["budgets"]["max_candidates"] == 2
    assert report["result"]["exhausted"] is True


def test_lcm_degree_cap(capsys):
    argv = ["gb", "--field", "p=5", "--gens", "x1^2 - x2; x1*x2 - x3"]
    assert main(argv + ["--max-degree", "2"]) == 2
    assert "groebner lcm degree limit 2" in _json_out(capsys)["error"]
    assert main(argv + ["--max-degree", "3"]) == 0
    assert _json_out(capsys)["result"]["basis"] == [
        "x1^2 + 4*x2", "x1*x2 + 4*x3", "x2^2 + 4*x1*x3"]


# a valid command line per subcommand, and the flags each one does not read
_BASE_ARGV = {
    "gb": ["--gens", "x1"],
    "sat": ["--gens", "x1", "--by", "x1"],
    "colon": ["--gens", "x1", "--with", "x1"],
    "intersect": ["--gens", "x1", "--with", "x1"],
    "leading-ideal": ["--gens", "x1"],
    "pdim": ["--gens", "x1"],
    "strength": ["--form", "x1*x2"],
    "collapse": ["--form", "x1*x2", "--k", "1"],
    "certify": ["--forms", "x1*x2", "--eta", "1"],
    "descend": ["--field", "p=2", "--forms", "x1*x2"],
    "bounds": ["--table", "quadric-B", "--n", "2"],
    "selftest": [],
}
_DROPPED = sorted(
    [(cmd, "--budget", "2") for cmd in _BASE_ARGV]
    + [(cmd, "--order", "lex") for cmd in _BASE_ARGV if cmd not in ("gb", "pdim")]
    + [(cmd, "--verbose", None) for cmd in _BASE_ARGV if cmd != "gb"]
    + [(cmd, "--seed", "7") for cmd in _BASE_ARGV if cmd != "descend"]
    + [(cmd, flag, value) for cmd in ("bounds", "selftest")
       for flag, value in (("--field", "p=7"), ("--nvars", "3"))])


@pytest.mark.parametrize("cmd, flag, value", _DROPPED,
                         ids=[f"{cmd}{flag}" for cmd, flag, _ in _DROPPED])
def test_flags_a_subcommand_does_not_read_exit_3(capsys, cmd, flag, value):
    argv = [cmd] + _BASE_ARGV[cmd]
    build_parser().parse_args(argv)  # valid without the flag
    assert main(argv + [flag] + ([value] if value else [])) == 3
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_option_slots_and_config_defaults():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    slots = sum(len(action.option_strings)
                for sub in subparsers.choices.values() for action in sub._actions
                if "-h" not in action.option_strings)
    assert len(_DROPPED) == 48 and slots == 133
    _, report = run(["sat", "--field", "p=5", "--gens", "x1*x2", "--by", "x1"])
    config = report["config"]
    assert (config["field"], config["order"], config["seed"]) == ("p=5", "grevlex", 0)
    _, report = run(["bounds", "--table", "quadric-B", "--n", "2"])
    assert report["config"]["field"] == "Q"


def test_parser_is_reused_across_runs(capsys):
    argvs = [
        ["gb", "--field", "p=5", "--gens", "x1^2+x2^2; x1*x2"],
        ["gb", "--field", "p=5", "--no-such-flag"],
        ["bounds", "--table", "quadric-B", "--n", "3", "--output", "text"],
    ]
    runs = []
    for _ in range(2):
        for argv in argvs:
            code = main(argv)
            out = capsys.readouterr()
            runs.append((code, out.out, out.err))
    assert [code for code, _, _ in runs] == [0, 3, 0, 0, 3, 0]
    assert runs[:3] == runs[3:]


def test_exponent_cap_is_budget_exceeded(capsys):
    from smallsub.groebner import EXPONENT_BITS
    code = main(["gb", "--field", "p=5",
                 "--gens", f"x1^{1 << EXPONENT_BITS} - x2; x1*x2"])
    assert code == 2
    report = _json_out(capsys)
    assert report["budget_exceeded"] is True
    assert "monomial exponent" in report["error"]


def test_resolution_internal_error_exit_code(capsys, monkeypatch):
    # an S-pair of a Groebner basis that does not reduce to zero is a bug
    from smallsub import modules

    def nonzero_remainder(vec, basis, p, track=False):
        rem = {(0, (0, 0)): 1}  # the ring has two variables
        return (rem, []) if track else rem
    monkeypatch.setattr(modules, "normal_form_vec", nonzero_remainder)
    sub = modules.SubmoduleOfFree.from_ideal_generators(
        [pp("x1", GF(2), 2), pp("x2", GF(2), 2)])
    with pytest.raises(InternalError):
        modules.free_resolution(sub)
    code = main(["pdim", "--field", "p=2", "--gens", "x1; x2"])
    assert code == 4
    report = _json_out(capsys)
    assert report["internal_error"] is True
    assert report["command"] == "pdim"


@pytest.mark.parametrize("argv", [
    ["bounds", "--table", "B", "--delta", "2,2,2"],
    ["bounds", "--table", "C", "--m", "2", "--n", "2", "--d", "3"],
])
def test_deep_bound_recursion_hits_the_node_budget(capsys, argv):
    code = main(argv + ["--max-steps", "2000"])
    assert code == 2
    report = _json_out(capsys)
    assert report["budget_exceeded"] is True
    assert "bound recursion nodes" in report["error"]


@pytest.mark.parametrize("spec", [
    {"field": "p=5"},
    [["x1", "x2"]],
    {"rows": []},
    {"rows": [[]]},
    {"rows": [["x1"], []]},
    {"rows": ["x1"]},
    {"rows": [[1, 2]]},
    {"rows": [["x1"]], "nvars": "3"},
    {"rows": [["x1"]], "field": 5},
    {"rows": [["x1", "x2"], ["x1^2"]]},
], ids=["no-rows", "list", "no-row", "empty-row", "one-empty-row", "row-not-list",
        "entry-not-string", "nvars-not-int", "field-not-string", "ragged"])
def test_malformed_matrix_file_exit_code(capsys, tmp_path, spec):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(spec))
    code = main(["certify", "--matrix", str(path), "--theorem", "max-minors"])
    assert code == 3
    captured = capsys.readouterr()
    assert "error" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_descend_max_k_zero_is_a_cap(capsys):
    # x1*x2 + x3*x4 needs a collapse of two pairs
    code = main(["descend", "--field", "p=2", "--forms", "x1*x2+x3*x4",
                 "--policy", "maximal", "--max-k", "0"])
    assert code == 0
    result = _json_out(capsys)["result"]
    assert result["steps"] == []
    assert result["s"] == 1


def test_strength_max_k_zero_claims_no_field_caveat(capsys):
    # no size was searched, so the lower bound 0 rests on no enumeration
    code = main(["strength", "--field", "p=2", "--form", "x1*x2+x3*x4", "--max-k", "0"])
    assert code == 0
    result = _json_out(capsys)["result"]
    assert (result["lower"], result["upper"], result["exact"]) == (0, "inf", None)
    assert result["field_caveat"] is False and result["exhausted"] is False


@pytest.mark.parametrize("argv", [
    ["strength", "--field", "p=2", "--form", "x1*x2+x3*x4", "--max-k", "-1"],
    ["bounds", "--table", "cubic", "--char", "-1", "--delta", "0,0,1"],
    ["bounds", "--table", "phi", "--h", "4", "--d", "3", "--char", "-1"],
], ids=["strength-max-k", "cubic-char", "phi-char"])
def test_negative_caps_and_characteristics_exit_code(capsys, argv):
    assert main(argv) == 3
    assert "must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gb", "--nvars", "-1", "--gens", "3"],
    ["pdim", "--nvars", "-1", "--gens", "x1; 3"],
    ["strength", "--nvars", "-2", "--form", "x1^2"],
    ["descend", "--nvars", "-1", "--forms", "x1*x2"],
], ids=["gb", "pdim", "strength", "descend"])
def test_negative_nvars_exit_code(capsys, argv):
    # malformed input, also for a text that names no variable
    assert main(argv[:1] + ["--field", "p=5"] + argv[1:]) == 3
    assert "must be nonnegative (at position 0)" in capsys.readouterr().err


# ----- property: any input text ends in an exit code, never an exception -----

_ALPHABET = "x0123456789+-*^ ;"


@st.composite
def _form_lists(draw):
    """One to three forms of degree 1 to 3 in x1..x4, joined by ';',
    with up to two characters of the alphabet inserted."""
    forms = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 3))
        text = ""
        for i in range(draw(st.integers(1, 3))):
            sign = draw(st.sampled_from(["", "-"] if i == 0 else [" + ", " - "]))
            coeff = draw(st.sampled_from(["", "", "2*", "3*"]))
            factors = draw(st.lists(st.sampled_from(["x1", "x2", "x3", "x4"]),
                                    min_size=degree, max_size=degree))
            text += sign + coeff + "*".join(factors)
        forms.append(text)
    text = "; ".join(forms)
    stray = draw(st.text(alphabet=_ALPHABET, max_size=2))
    at = draw(st.integers(0, len(text)))
    return text[:at] + stray + text[at:]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(["gb", "strength", "certify", "descend"]),
       st.one_of(st.text(alphabet=_ALPHABET, max_size=14), _form_lists()),
       st.sampled_from([None, -1, 0, 1, 2, 3]),
       st.sampled_from(["p=2", "p=5", "Q"]))
def test_cli_ends_in_an_exit_code(command, text, nvars, field):
    flag = {"gb": "--gens", "strength": "--form"}.get(command, "--forms")
    argv = [command, "--field", field, f"{flag}={text}", "--max-pairs", "40",
            "--max-degree", "8", "--max-candidates", "40", "--max-steps", "40"]
    if nvars is not None:
        argv += ["--nvars", str(nvars)]
    if command == "certify":
        argv += ["--eta", "1"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code, _ = run(argv)
    assert code in (0, 1, 2, 3)
