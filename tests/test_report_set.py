import json

from tools import report_set


def test_report_set_has_352_cases_and_runs_one(tmp_path):
    cases = report_set.cases(report_set.write_inputs(tmp_path / "in"))
    stems = dict(cases)
    assert len(cases) == len(stems) == 352
    assert stems["s1-c12.tol-1e-12.verify"] == [
        "verify", stems["s1-c12.verify"][1], "--tol", "1e-12"]
    stem = "pauli-d3.analyze"
    assert report_set.run_case(stem, stems[stem], tmp_path) == 0
    assert (tmp_path / f"{stem}.exit").read_text() == "0\n"
    report = json.loads((tmp_path / f"{stem}.json").read_text())
    assert report["dims"]["fixed_points"] == 1
