"""The output checker accepts genuine reports and flags corrupted ones.

    python3 -m pytest perfbench/test_checker.py -q
"""

import copy
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checker  # noqa: E402
import inputs  # noqa: E402
from chanstruct import cli  # noqa: E402


def _run(command, name, payload, tmp):
    path = os.path.join(tmp, f"{name}.json")
    out = os.path.join(tmp, f"{name}.{command}.out.json")
    with open(path, "w") as fh:
        json.dump(payload, fh)
    code = cli.main([command, path, "--output", out])
    with open(out) as fh:
        return code, json.load(fh), checker.Reference(payload)


@pytest.fixture(scope="module")
def analysis(tmp_path_factory):
    """Report for a three-dimensional unitary mixture of the corpus."""
    payload = inputs.corpus_json(inputs.DEFAULT_CORPUS_SEED)["c04"]
    code, report, ref = _run("analyze", "c04", payload,
                             str(tmp_path_factory.mktemp("analysis")))
    assert code == 0
    return report, ref, checker.load_schema(ROOT, "analysis")


@pytest.fixture(scope="module")
def verification(tmp_path_factory):
    """Verify report for the nearest-neighbour 4-cycle walk."""
    code, report, ref = _run("verify", "nn4", inputs.nn_cycle_special(4),
                             str(tmp_path_factory.mktemp("verify")))
    return code, report, ref, checker.load_schema(ROOT, "verification")


def test_genuine_reports_pass(analysis, verification):
    report, ref, schema = analysis
    assert checker.check_analysis(report, ref, schema) == []
    code, vreport, vref, vschema = verification
    assert checker.check_verification(vreport, code, vref, vschema,
                                      walk=True) == []


# field -> (corruption, text of the problem the checker must report)
ANALYSIS_CORRUPTIONS = {
    "dims.dfa": (lambda r: r["dims"].update(dfa=r["dims"]["dfa"] + 1),
                 "peripheral eigenvalues"),
    "dims.fixed_points": (lambda r: r["dims"].update(
        fixed_points=r["dims"]["fixed_points"] + 1), "nullity of T-I"),
    "dims.stable": (lambda r: r["dims"].update(
        stable=r["dims"]["stable"] - 1), "dims.stable"),
    "rho_max not invariant": (lambda r: r["invariant_state"].update(
        rho_max=inputs.matrix_json(np.diag([1.0, 0.0, 0.0]))),
        "rho_max not invariant"),
    "rho_max trace": (lambda r: r["invariant_state"].update(
        rho_max=[[[2 * re, 2 * im] for re, im in row]
                 for row in r["invariant_state"]["rho_max"]]),
        "rho_max trace"),
    "peripheral_eigenvalues": (
        lambda r: r["peripheral_eigenvalues"][0].__setitem__(1, 0.5),
        "peripheral_eigenvalues do not match"),
    "gap.asymptotic": (lambda r: r["gap"].update(
        asymptotic=2 * float(r["gap"]["asymptotic"])),
        "gap.asymptotic"),
    "gap.finite_horizon negative": (
        lambda r: r["gap"].update(finite_horizon=-1e-6), "is negative"),
    "gap.finite_horizon above asymptotic": (lambda r: r["gap"].update(
        finite_horizon=1.5 * float(r["gap"]["asymptotic"])),
        "exceeds gap.asymptotic"),
    "component period": (lambda r: r["components"][0].update(
        period=r["components"][0]["period"] + 1),
        "cyclic projections, period"),
    "component projection": (lambda r: r["components"][0].update(
        projection=inputs.matrix_json(np.zeros((3, 3)))),
        "component projections miss I"),
    "structured_kraus_residual": (lambda r: r["components"][0].update(
        structured_kraus_residual=1e-3), "structured_kraus_residual"),
    "ledger entry": (lambda r: r["verification"][0].update(passed=False),
                     "failed"),
    "schema": (lambda r: r.pop("dims"), "schema:"),
}


@pytest.mark.parametrize("field", sorted(ANALYSIS_CORRUPTIONS))
def test_corrupted_analysis_is_flagged(analysis, field):
    report, ref, schema = analysis
    corrupt, expected = ANALYSIS_CORRUPTIONS[field]
    bad = copy.deepcopy(report)
    corrupt(bad)
    problems = checker.check_analysis(bad, ref, schema)
    assert any(expected in p for p in problems), problems


def _drop(name):
    return (lambda r: r.update(
        checks=[e for e in r["checks"] if e["name"] != name]),
        f"{name} missing")


VERIFY_CORRUPTIONS = {
    "all_pass": (lambda r: r.update(all_pass=False), "all_pass False"),
    "kraus-unitality residual": (lambda r: next(
        e for e in r["checks"] if e["name"] == "kraus-unitality").update(
            residual=1e-10), "kraus-unitality residual"),
    "dfa-equals-peripheral-span": _drop("dfa-equals-peripheral-span"),
    "oqrw-mult-domain-oracle": _drop("oqrw-mult-domain-oracle"),
    "oqrw-dfa-oracle": _drop("oqrw-dfa-oracle"),
    "failed entry": (lambda r: r["checks"][-1].update(passed=False),
                     "failed"),
    "schema": (lambda r: r.pop("checks"), "schema:"),
}


@pytest.mark.parametrize("field", sorted(VERIFY_CORRUPTIONS))
def test_corrupted_verification_is_flagged(verification, field):
    code, report, ref, schema = verification
    corrupt, expected = VERIFY_CORRUPTIONS[field]
    bad = copy.deepcopy(report)
    corrupt(bad)
    problems = checker.check_verification(bad, code, ref, schema, walk=True)
    assert any(expected in p for p in problems), problems


def test_nonzero_exit_is_flagged(verification):
    _, report, ref, schema = verification
    problems = checker.check_verification(report, 1, ref, schema, walk=True)
    assert any("verify exit 1" in p for p in problems), problems
