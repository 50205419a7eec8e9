import json

import jsonschema
import numpy as np
import pytest

from chanstruct.algebra import center
from chanstruct.channel import matrix_to_json
from chanstruct.cli import (
    _choi_min_eig,
    EXIT_INPUT_ERROR,
    EXIT_NUMERICAL_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)
from chanstruct.structure import dfa
from tests.test_acceptance import _choi_min_eig as choi_min_eig_by_units
from tests.test_acceptance import build_corpus

SCHEMA_DIR = "docs/schemas"


def load_schema(name):
    with open(f"{SCHEMA_DIR}/{name}") as fh:
        return json.load(fh)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def write_channel(path, kraus, label=""):
    data = {"dim": kraus[0].shape[0],
            "kraus": [matrix_to_json(V) for V in kraus],
            "label": label}
    path.write_text(json.dumps(data))
    return str(path)


def pauli_channel_file(tmp_path):
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.diag([1.0, -1.0]).astype(complex)
    return write_channel(tmp_path / "pauli.json",
                         [X / np.sqrt(2), Z / np.sqrt(2)], label="pauli")


# ---------------------------------------------------------------------------
# example generation
# ---------------------------------------------------------------------------

def test_example_pauli_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "walk.json"
    code, _ = run(["example", "pauli", "--d", "3", "--alpha", "0.5",
                   "--output", str(out_file)], capsys)
    assert code == EXIT_OK
    data = json.loads(out_file.read_text())
    assert data["local_dims"] == [3, 3]
    assert len(data["transitions"]) == 4

    code, out = run(["analyze", str(out_file)], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    jsonschema.validate(report, load_schema("analysis_report_v1.json"))
    assert report["dims"]["fixed_points"] == 1
    assert report["dims"]["dfa"] == 3
    assert report["components"][0]["period"] == 3
    assert report["irreducible"] is True
    assert all(e["passed"] for e in report["verification"])


def test_example_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["example", "cyclic-shift", "--d", "3", "--seed", "42",
         "--output", str(a)], capsys)
    run(["example", "cyclic-shift", "--d", "3", "--seed", "42",
         "--output", str(b)], capsys)
    assert a.read_text() == b.read_text()


def test_analyze_reproducible(tmp_path, capsys):
    f = tmp_path / "w.json"
    run(["example", "cyclic-shift", "--d", "3", "--seed", "42",
         "--output", str(f)], capsys)
    _, out1 = run(["analyze", str(f), "--seed", "7"], capsys)
    _, out2 = run(["analyze", str(f), "--seed", "7"], capsys)
    assert out1 == out2


def test_example_nn_cycle_presets(tmp_path, capsys):
    f = tmp_path / "nn.json"
    code, _ = run(["example", "nn-cycle", "--n", "8",
                   "--preset", "special-basis", "--output", str(f)], capsys)
    assert code == EXIT_OK
    data = json.loads(f.read_text())
    assert len(data["vertices"]) == 8
    code, _ = run(["example", "nn-cycle", "--n", "8",
                   "--preset", "generic-unitary", "--seed", "5",
                   "--output", str(f)], capsys)
    assert code == EXIT_OK
    code, _ = run(["example", "nn-cycle", "--preset", "no-such"], capsys)
    assert code == EXIT_INPUT_ERROR


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_choi_min_eig_layout():
    # the transpose map has the swap as its Choi matrix, eigenvalues +-1
    D = 3
    transpose = np.zeros((D * D, D * D))
    for a in range(D):
        for b in range(D):
            transpose[b + a * D, a + b * D] = 1
    assert _choi_min_eig(transpose, D) == pytest.approx(-1)
    rng = np.random.default_rng(7)
    T = rng.standard_normal((D * D, D * D)) + 1j * rng.standard_normal((D * D, D * D))
    assert _choi_min_eig(T, D) == pytest.approx(choi_min_eig_by_units(T, D))


def test_analyze_channel_input(tmp_path, capsys):
    path = pauli_channel_file(tmp_path)
    code, out = run(["analyze", path], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    jsonschema.validate(report, load_schema("analysis_report_v1.json"))
    assert report["channel"]["dim"] == 2
    assert report["dims"]["dfa"] == 2
    assert report["components"][0]["period"] == 2
    assert "walk" not in report


def test_analyze_non_faithful_undetermined(tmp_path, capsys):
    # preadjoint collapses everything onto |0><0|: no faithful state
    V1 = np.array([[0, 1], [0, 0]], dtype=complex)
    V2 = np.array([[1, 0], [0, 0]], dtype=complex)
    path = write_channel(tmp_path / "c.json", [V1, V2])
    code, out = run(["analyze", path], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    jsonschema.validate(report, load_schema("analysis_report_v1.json"))
    assert report["faithful"] is False
    assert report["irreducible"] == "undetermined"
    assert report["peripheral_eigenvalues"] == "undetermined"
    assert report["components"] == "undetermined"
    assert report["gap"] == "undetermined"
    assert isinstance(report["dims"]["dfa"], int)


def test_analyze_gap_rate_nonnegative(tmp_path, capsys):
    # Phi contracts in the rho-weighted geometry; a norm rounded above 1
    # must not show up as a negative decay rate
    f = tmp_path / "nn4.json"
    run(["example", "nn-cycle", "--n", "4", "--output", str(f)], capsys)
    code, out = run(["analyze", str(f)], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["gap"]["finite_horizon"] >= 0


def test_analyze_shift_walk_center_keeps_identity(tmp_path, capsys):
    # channel 35 of the corpus drawn with seed 27: a cyclic shift on four
    # vertices with 2x2 unitaries, whose dfa has four minimal central
    # projections; deciding the center on part of the constraints lost I
    c = build_corpus(27)[35]
    assert c.label == "cyclic-shift-4" and c.dim == 8
    Z = center(dfa(c))
    assert Z.dim == 4
    assert Z.subspace.residual(np.eye(8)) < 1e-8
    path = write_channel(tmp_path / "c35.json", list(c.kraus))
    code, _ = run(["analyze", path], capsys)
    assert code == EXIT_OK


def test_analyze_text_format(tmp_path, capsys):
    path = pauli_channel_file(tmp_path)
    code, out = run(["analyze", path, "--format", "text"], capsys)
    assert code == EXIT_OK
    assert "dims.dfa: 2" in out
    assert "faithful: True" in out


def test_analyze_atomic_output(tmp_path, capsys):
    path = pauli_channel_file(tmp_path)
    out_file = tmp_path / "report.json"
    code, _ = run(["analyze", path, "--output", str(out_file)], capsys)
    assert code == EXIT_OK
    report = json.loads(out_file.read_text())
    assert report["kind"] == "analysis"
    assert list(tmp_path.glob("*.tmp")) == []


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_pass(tmp_path, capsys):
    f = tmp_path / "w.json"
    run(["example", "pauli", "--d", "4", "--alpha", "0.3",
         "--output", str(f)], capsys)
    code, out = run(["verify", str(f)], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    jsonschema.validate(report, load_schema("verification_report_v1.json"))
    assert report["all_pass"] is True
    names = [e["name"] for e in report["checks"]]
    assert "oqrw-dfa-block-diagonal" in names


def test_verify_corrupted_kraus(tmp_path, capsys):
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.diag([1.0, -1.0]).astype(complex)
    kraus = [X / np.sqrt(2), Z / np.sqrt(2)]
    kraus[0] = kraus[0] + 1e-3
    path = write_channel(tmp_path / "bad.json", kraus)
    code, out = run(["verify", str(path)], capsys)
    assert code == EXIT_VERIFY_FAILED
    report = json.loads(out)
    assert report["all_pass"] is False
    assert report["checks"][0]["name"] == "kraus-unitality"
    assert not report["checks"][0]["passed"]


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------

def test_missing_file(capsys):
    code, _ = run(["analyze", "/no/such/file.json"], capsys)
    assert code == EXIT_INPUT_ERROR


def test_malformed_json(tmp_path, capsys):
    f = tmp_path / "garbage.json"
    f.write_text("{not json")
    code, _ = run(["analyze", str(f)], capsys)
    assert code == EXIT_INPUT_ERROR


def test_unrecognized_payload(tmp_path, capsys):
    f = tmp_path / "other.json"
    f.write_text(json.dumps({"something": 1}))
    code, _ = run(["analyze", str(f)], capsys)
    assert code == EXIT_INPUT_ERROR


def test_nonunital_channel_rejected(tmp_path, capsys):
    path = write_channel(tmp_path / "nu.json",
                         [np.eye(2, dtype=complex),
                          np.eye(2, dtype=complex)])
    code, _ = run(["analyze", path], capsys)
    assert code == EXIT_INPUT_ERROR


def test_exit_codes_are_distinct():
    assert len({EXIT_OK, EXIT_VERIFY_FAILED, EXIT_INPUT_ERROR,
                EXIT_NUMERICAL_ERROR}) == 4
