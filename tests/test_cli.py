import dataclasses
import importlib
import inspect
import json
import pkgutil
import tracemalloc
import warnings

import jsonschema
import numpy as np
import pytest

import chanstruct
from chanstruct import cli, oqrw
from chanstruct.algebra import center
from chanstruct.channel import (
    from_kraus,
    matrix_from_json,
    matrix_to_json,
)
from chanstruct.cli import (
    _choi_min_eig,
    Analysis,
    EXIT_INPUT_ERROR,
    EXIT_NUMERICAL_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    build_ledger,
    main,
)
from chanstruct.numerics import MatrixSubspace, Tolerances
from chanstruct.oqrw import to_channel
from chanstruct.structure import dfa, fixed_points, spectrum
from tests.conftest import (
    I2,
    X,
    Z,
    amplitude_damping,
    dense,
    dephasing_mixture,
)
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
    _, out1 = run(["analyze", str(f)], capsys)
    _, out2 = run(["analyze", str(f)], capsys)
    assert out1 == out2


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_analyze_and_verify_take_no_seed(tmp_path, capsys, command):
    # analyze and verify make no random draw; example draws its unitaries
    f = tmp_path / "w.json"
    code, _ = run(["example", "cyclic-shift", "--d", "3", "--seed", "1",
                   "--output", str(f)], capsys)
    assert code == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        main([command, str(f), "--seed", "1"])
    assert exc.value.code == EXIT_INPUT_ERROR


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
    assert _choi_min_eig(transpose, np.eye(D * D), D) == pytest.approx(-1)
    rng = np.random.default_rng(7)
    T = rng.standard_normal((D * D, D * D)) + 1j * rng.standard_normal((D * D, D * D))
    assert _choi_min_eig(T, np.eye(D * D), D) == \
        pytest.approx(choi_min_eig_by_units(T, D))


def test_choi_min_eig_of_factors_matches_the_dense_choi_matrix():
    # E_N and E_F of the two D=16 walks, whose Choi matrices have zero
    # rows, and a random factor pair whose Choi matrix has none
    lm = np.diag([np.sqrt(0.3), np.sqrt(0.7)])
    lp = np.array([[0, np.sqrt(0.3)], [np.sqrt(0.7), 0]])
    pairs = []
    for c in (to_channel(oqrw.builder_nn_cycle(8, lp, lm)),
              to_channel(oqrw.builder_pauli_walk(8, 0.5))):
        s = spectrum(c.transfer_blocks)
        pairs += [(s.e_n_factors, c.dim), (s.e_f_factors, c.dim)]
    rng = np.random.default_rng(11)
    XY = rng.standard_normal((2, 16, 3)) + 1j * rng.standard_normal((2, 16, 3))
    pairs.append((tuple(XY / np.linalg.norm(XY, axis=(1, 2))[:, None, None]),
                  4))
    zero_rows = []
    for (Xf, Yf), D in pairs:
        E = Xf @ Yf.conj().T
        C = E.reshape((D,) * 4).transpose(3, 1, 2, 0).reshape(D * D, D * D)
        zero_rows.append(int(np.sum(~np.any(C + C.conj().T, axis=1))))
        assert abs(_choi_min_eig(Xf, Yf, D) - choi_min_eig_by_units(E, D)) \
            <= 1e-14
    assert zero_rows[-1] == 0 and max(zero_rows) > 0


def test_analyze_and_verify_hold_no_dense_transfer_matrix(tmp_path,
                                                          capsys):
    # nn-cycle n=24 (D=48): one dense D^2 x D^2 complex array is
    # 2304^2 * 16 B = 81 MiB, so a peak of traced allocations below that
    # shows that no stage formed one, through T, M, the gap, the ledger's
    # L2 norm or the component residual
    path = str(tmp_path / "nn-cycle-24.json")
    assert main(["example", "nn-cycle", "--n", "24",
                 "--output", path]) == EXIT_OK
    dense_bytes = (48 * 48) ** 2 * 16
    for command in ("analyze", "verify"):
        tracemalloc.start()
        try:
            code, out = run([command, path], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK, command
        assert peak < dense_bytes, (command, peak / 2 ** 20)
    assert json.loads(out)["all_pass"]
    # the ledger passes on two small walks and a Haar mixture (one block)
    paths = []
    for name, argv in (("nn-cycle-4", ["nn-cycle", "--n", "4"]),
                       ("pauli-walk-3", ["pauli", "--d", "3"])):
        paths.append(str(tmp_path / f"{name}.json"))
        assert main(["example", *argv, "--output", paths[-1]]) == EXIT_OK
    mixture = build_corpus(20240817)[14]
    assert mixture.label == "mixture-5-3"
    paths.append(write_channel(tmp_path / "mixture.json", mixture.kraus))
    for path in paths:
        code, out = run(["verify", path], capsys)
        assert code == EXIT_OK and json.loads(out)["all_pass"], path


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


def test_dfa_center_is_the_block_count_of_n(tmp_path, capsys):
    # dims.dfa_center is read off the one atomic structure of N that the
    # components also use
    for c in build_corpus(20240817):
        a = Analysis(c, None, Tolerances(), max_power=None)
        assert a.N_structure.n_blocks == center(a.N).dim, c.label
    c = amplitude_damping()
    code, out = run(["analyze", write_channel(tmp_path / "ad.json",
                                              list(c.kraus))], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["faithful"] is False
    assert report["dims"]["dfa_center"] == center(dfa(c)).dim


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7, 5e-8, 1e-8, 3e-9, 1e-9,
                                 1e-10])
def test_one_band_rule_for_every_spectral_stage(eps, tmp_path, capsys):
    # Phi = (1 - p) id + p Ad_Z has the eigenvalue 1 - eps twice, at the
    # edge of the peripheral band for eps near 1e-7; F, the invariant
    # states, E_F and E_N must still agree on which eigenvalues are 1
    c = dephasing_mixture(eps)
    s = spectrum(c.transfer_blocks)
    rank_f = np.linalg.matrix_rank(dense(s.e_f_factors))
    assert fixed_points(s).dim == rank_f
    assert rank_f <= np.linalg.matrix_rank(dense(s.e_n_factors))
    code, out = run(["analyze", write_channel(tmp_path / "c.json",
                                              list(c.kraus))], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["dims"]["fixed_points"] == rank_f
    assert report["invariant_state"]["space_dim"] == rank_f
    assert rank_f <= 4 - report["dims"]["stable"]


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
    assert Z.residual(np.eye(8)) < 1e-8
    path = write_channel(tmp_path / "c35.json", list(c.kraus))
    code, _ = run(["analyze", path], capsys)
    assert code == EXIT_OK


def test_analyze_two_component_corpus_channels(tmp_path, capsys):
    # the block sums of the corpus are its two-component channels
    channels = [c for c in build_corpus(20240817)
                if c.label.startswith("blocksum")]
    assert len(channels) == 12
    for n, c in enumerate(channels):
        path = write_channel(tmp_path / f"b{n}.json", list(c.kraus))
        code, out = run(["analyze", path], capsys)
        assert code == EXIT_OK
        comps = json.loads(out)["components"]
        assert len(comps) == 2
        total = sum(matrix_from_json(comp["projection"]) for comp in comps)
        assert np.allclose(total, np.eye(c.dim), atol=1e-8)
        for comp in comps:
            assert comp["period"] == len(comp["cyclic_projections"])
            assert comp["structured_kraus_residual"] <= 1e-8


def test_slowly_mixing_channels_pass_e_f_vs_rho(tmp_path, capsys):
    # channels 12 and 50 of the corpus drawn with seed 1 mix slowly (second
    # |lambda| = 0.99910 and 0.99992); a Cesaro average over a fixed 10 000
    # steps failed them, the rho-orthogonal projections do not
    corpus = build_corpus(1)
    for i, label in ((12, "mixture-5-2"), (50, "blocksum-4+4")):
        c = corpus[i]
        assert c.label == label
        path = write_channel(tmp_path / f"c{i}.json", list(c.kraus))
        code, out = run(["analyze", path], capsys)
        assert code == EXIT_OK
        entries = {e["name"]: e for e in json.loads(out)["verification"]}
        assert "cesaro-vs-spectral" not in entries
        for name in ("e-f-vs-rho", "e-n-vs-rho"):
            assert entries[name]["passed"]
            assert entries[name]["residual"] < 1e-10
        code, _ = run(["verify", path], capsys)
        assert code == EXIT_OK


def _add_rank_one(factors, size, dim):
    """Factors of X Y* + size u v* for unit vectors u, v."""
    X, Y = factors
    rng = np.random.default_rng(0)
    u, v = (rng.standard_normal((dim * dim, 1)) for _ in range(2))
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    return np.hstack([X, size * u]), np.hstack([Y, v])


@pytest.mark.parametrize("name", ["e-f", "e-n"])
def test_corrupted_expectation_fails_its_rho_entry(name):
    # E + 1e-5 u v* is 1e-5 from the rho-orthogonal projection: the
    # matching -vs-rho entry fails at its 1e-6 bound, the other one passes
    a = Analysis(build_corpus(20240817)[40], None, Tolerances(), None)
    clean = {e["name"]: e for e in build_ledger(a)}
    assert clean["e-f-vs-rho"]["passed"] and clean["e-n-vs-rho"]["passed"]
    field = f"{name.replace('-', '_')}_factors"
    a.spectrum = dataclasses.replace(a.spectrum, **{field: _add_rank_one(
        getattr(a.spectrum, field), 1e-5, a.c.dim)})
    entries = {e["name"]: e for e in build_ledger(a)}
    assert not entries[f"{name}-vs-rho"]["passed"]
    assert entries[f"{name}-vs-rho"]["residual"] == pytest.approx(1e-5,
                                                                  rel=1e-3)
    other = "e-n" if name == "e-f" else "e-f"
    assert entries[f"{other}-vs-rho"]["passed"]


def test_ledger_reads_the_product_defect_of_f():
    # span{I, X, Z} is not product-closed: XZ = -iY lies at HS distance
    # ||Y / 2|| = 2^-1/2 from it
    a = Analysis(from_kraus([I2]), None, Tolerances(), max_power=None)
    sub = MatrixSubspace.from_span([I2, X, Z])
    a.spectrum = dataclasses.replace(a.spectrum, fixed=sub)
    adjoint, product = sub.closure_defects()
    assert adjoint < 1e-15
    assert product == pytest.approx(2 ** -0.5, abs=1e-15)
    assert not a.F.is_algebra
    assert a.F.product_defect == product
    entry = {e["name"]: e for e in build_ledger(a)}[
        "fixed-points-product-closed"]
    assert entry["residual"] == product and not entry["passed"]


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


def test_verify_builds_the_walk_path_chain_once(tmp_path, capsys,
                                               monkeypatch):
    # the M oracle is the first step of the chain that the N oracle ends
    f = tmp_path / "w.json"
    run(["example", "pauli", "--d", "3", "--output", str(f)], capsys)
    chains = []
    build_chain = oqrw._diagonal_chain

    def counted(*args):
        chains.append(args)
        return build_chain(*args)

    monkeypatch.setattr(oqrw, "_diagonal_chain", counted)
    code, out = run(["verify", str(f)], capsys)
    assert code == EXIT_OK
    names = [e["name"] for e in json.loads(out)["checks"]]
    assert {"oqrw-mult-domain-oracle", "oqrw-dfa-oracle"} <= set(names)
    assert len(chains) == 1


def test_verify_tol_scales_every_ledger_bound(tmp_path, capsys):
    # every ledger bound is a level of Tolerances, a multiple of eq_tol
    f = tmp_path / "w.json"
    run(["example", "pauli", "--d", "3", "--output", str(f)], capsys)
    default, scaled = (json.loads(run(["verify", str(f), *tol], capsys)[1])
                       ["checks"] for tol in ([], ["--tol", "1e-6"]))
    assert [e["name"] for e in scaled] == [e["name"] for e in default]
    assert [e["tolerance"] for e in scaled] == \
        [100 * e["tolerance"] for e in default]


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


def two_vertex_walk():
    """A period-2 walk on two one-dimensional vertices, as walk JSON."""
    one = matrix_to_json(np.eye(1))
    return {"vertices": [0, 1], "local_dims": [1, 1],
            "transitions": [{"from": 0, "to": 1, "matrix": one},
                            {"from": 1, "to": 0, "matrix": one}]}


@pytest.mark.parametrize("key", ["to", "from"])
@pytest.mark.parametrize("vertex", [2, -1, -2])
def test_walk_vertex_out_of_range_is_an_input_error(tmp_path, capsys, key,
                                                    vertex):
    # one edge end moved outside range(2): -2 would otherwise pass the
    # checks as vertex 0
    walk = two_vertex_walk()
    walk["transitions"][1][key] = vertex
    f = tmp_path / "walk.json"
    f.write_text(json.dumps(walk))
    code = main(["analyze", str(f)])
    assert code == EXIT_INPUT_ERROR
    assert "outside 0..1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize("entry", [float("nan"), float("inf")])
def test_walk_non_finite_transition_is_an_input_error(tmp_path, capsys,
                                                      command, entry):
    # the step 0 -> 1 is NaN or Infinity in the JSON, and column 0 is
    # normalised without it: a NaN step was dropped as a zero operator
    # (exit 0, all checks passed), an infinite one warned in the
    # unitality test
    one = matrix_to_json(np.eye(1))
    walk = {"vertices": [0, 1], "local_dims": [1, 1],
            "transitions": [{"from": 0, "to": 0, "matrix": one},
                            {"from": 0, "to": 1, "matrix": [[[entry, 0.0]]]},
                            {"from": 1, "to": 1, "matrix": one}]}
    f = tmp_path / "walk.json"
    f.write_text(json.dumps(walk))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, str(f)])
    assert code == EXIT_INPUT_ERROR
    assert "transition (1,0) has non-finite entries" in \
        capsys.readouterr().err


@pytest.mark.parametrize("dim", [1.7, 0, "1"])
def test_walk_local_dim_not_a_positive_integer_is_an_input_error(
        tmp_path, capsys, dim):
    # 1.7 and "1" were read through int() as 1
    walk = two_vertex_walk()
    walk["local_dims"][0] = dim
    f = tmp_path / "walk.json"
    f.write_text(json.dumps(walk))
    assert main(["analyze", str(f)]) == EXIT_INPUT_ERROR
    assert "not positive integers" in capsys.readouterr().err


def test_walk_repeated_vertex_label_is_an_input_error(tmp_path, capsys):
    walk = two_vertex_walk()
    walk["vertices"] = [0, 0]
    f = tmp_path / "walk.json"
    f.write_text(json.dumps(walk))
    assert main(["analyze", str(f)]) == EXIT_INPUT_ERROR
    assert "repeated vertex labels" in capsys.readouterr().err


def _numerical_failure_classes():
    """Every RuntimeError subclass defined in a chanstruct module."""
    modules = [importlib.import_module(f"chanstruct.{m.name}")
               for m in pkgutil.iter_modules(chanstruct.__path__)]
    return sorted({cls for mod in modules
                   for _, cls in inspect.getmembers(mod, inspect.isclass)
                   if issubclass(cls, RuntimeError)
                   and cls.__module__ == mod.__name__},
                  key=lambda cls: cls.__name__)


@pytest.mark.parametrize("error", _numerical_failure_classes(),
                         ids=lambda cls: cls.__name__)
def test_every_numerical_failure_class_exits_3(tmp_path, capsys, monkeypatch,
                                               error):
    # a failed self-check inside analyze is a numerical error, not a
    # traceback with the exit code of a failed verification
    def fail(*args, **kwargs):
        raise error("injected")
    monkeypatch.setattr(cli, "atomic_structure", fail)
    assert main(["analyze", pauli_channel_file(tmp_path)]) \
        == EXIT_NUMERICAL_ERROR
    assert f"({error.__name__})" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize("option", ["--tol=0", "--tol=-1", "--tol=nan",
                                    "--tol=inf", "--max-power=0",
                                    "--max-power=-2"])
def test_bad_tolerance_or_power_is_an_input_error(tmp_path, capsys, command,
                                                  option):
    path = pauli_channel_file(tmp_path)
    code = main([command, path, option])
    assert code == EXIT_INPUT_ERROR
    assert "input error" in capsys.readouterr().err


def test_max_power_too_small_is_a_numerical_error(tmp_path, capsys):
    # the pauli walk's dfa chain needs more than one step to stabilise
    f = tmp_path / "walk.json"
    run(["example", "pauli", "--d", "3", "--output", str(f)], capsys)
    for command in ("analyze", "verify"):
        code = main([command, str(f), "--max-power=1"])
        assert code == EXIT_NUMERICAL_ERROR
        assert "NoStabilization" in capsys.readouterr().err


def test_exit_codes_are_distinct():
    assert len({EXIT_OK, EXIT_VERIFY_FAILED, EXIT_INPUT_ERROR,
                EXIT_NUMERICAL_ERROR}) == 4
