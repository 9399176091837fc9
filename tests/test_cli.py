import json

import pytest

from smallsub import strength
from smallsub.budget import Budget
from smallsub.cli import main, run


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
    argv = ["strength", "--field", "p=2", "--form", "x1*x2+x3*x4", "--seed", "7"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


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


def test_certify_matrix_file(capsys, tmp_path):
    spec = {"field": "p=5", "nvars": 3,
            "rows": [["x1", "x2", "x3"], ["x1^2", "x2^2", "x3^2"]]}
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(spec))
    code = main(["certify", "--matrix", str(path), "--theorem", "max-minors"])
    assert code == 0
    assert _json_out(capsys)["result"]["holds"] is True


def test_descend_subcommand(capsys):
    code = main(["descend", "--field", "p=2", "--forms", "x1*x2+x3*x4",
                 "--policy", "maximal"])
    assert code == 0
    result = _json_out(capsys)["result"]
    assert result["s"] == 4
    assert result["regular_sequence"] is True
    assert all(result["membership"])


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


def test_bad_field_exit_code(capsys):
    code = main(["gb", "--field", "p=6", "--gens", "x1"])
    assert code == 3
    capsys.readouterr()


def test_budget_exceeded_exit_code(capsys):
    code = main(["gb", "--field", "p=5", "--max-pairs", "1",
                 "--gens", "x1^3+x2^2*x3; x2^3+x1*x3^2; x3^3+x1^2*x2"])
    assert code == 2
    report = _json_out(capsys)
    assert report["budget_exceeded"] is True


def test_internal_error_exit_code(capsys, monkeypatch):
    # witness lifting disagreeing with the collapse verdict is a bug, not a verdict
    monkeypatch.setattr(strength, "membership_cofactors", lambda *a, **kw: None)
    code = main(["collapse", "--field", "p=2", "--form", "x1*x2", "--k", "1"])
    assert code == 4
    report = _json_out(capsys)
    assert report["internal_error"] is True
    assert report["command"] == "collapse"


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
    assert "pairs_processed=" in err


def test_budget_shorthand_sets_candidate_cap(capsys):
    code = main(["strength", "--field", "p=3",
                 "--form", "x1*x2+x2*x3+x1*x3", "--budget", "2"])
    capsys.readouterr()
    assert code == 0  # degrades to an honest interval, not an error
    code, report = run(["strength", "--field", "p=3",
                        "--form", "x1*x2+x2*x3+x1*x3", "--budget", "2"])
    assert report["config"]["budgets"]["max_candidates"] == 2
    assert report["result"]["exhausted"] is True
