import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chanstruct.cli import EXIT_OK, main
from chanstruct.numerics import random_unitary

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"


def compare(parent_dir, change_dir):
    return subprocess.run([sys.executable, str(TOOL), str(parent_dir),
                           str(change_dir)], capture_output=True, text=True)


def analyzed_walk(tmp_path):
    """A case directory with the analysis of the d=3 Pauli walk."""
    walk = tmp_path / "walk.json"
    main(["example", "pauli", "--d", "3", "--output", str(walk)])
    parent = tmp_path / "parent"
    parent.mkdir()
    code = main(["analyze", str(walk), "--output", str(parent / "w.json")])
    assert code == EXIT_OK
    (parent / "w.exit").write_text(f"{code}\n")
    return parent


def moved_copy(tmp_path, parent, move):
    """A copy of the case directory with ``move`` applied to its report."""
    change = tmp_path / "change"
    shutil.copytree(parent, change)
    report = json.loads((change / "w.json").read_text())
    move(report)
    (change / "w.json").write_text(json.dumps(report))
    return change


def test_compare_reports_flags_a_moved_gap(tmp_path):
    parent = analyzed_walk(tmp_path)
    same = compare(parent, parent)
    assert same.returncode == 0, same.stdout

    def move(report):
        report["gap"]["finite_horizon"] += 1e-6
    moved = compare(parent, moved_copy(tmp_path, parent, move))
    assert moved.returncode == 1
    assert "FAIL gap.finite_horizon" in moved.stdout


def test_compare_reports_flags_a_moved_fixed_block_count(tmp_path):
    parent = analyzed_walk(tmp_path)

    def move(report):
        report["components"][0]["fixed_blocks"]["count"] += 1
    moved = compare(parent, moved_copy(tmp_path, parent, move))
    assert moved.returncode == 1
    assert "FAIL components.fixed_blocks.count" in moved.stdout
    assert "ok   components.projection" in moved.stdout


def test_compare_reports_reads_fixed_block_eigenvalues_up_to_a_phase(
        tmp_path):
    walk = tmp_path / "walk.json"
    main(["example", "pauli", "--d", "4", "--output", str(walk)])
    parent = tmp_path / "parent"
    parent.mkdir()
    assert main(["analyze", str(walk), "--output",
                 str(parent / "w.json")]) == EXIT_OK
    (parent / "w.exit").write_text("0\n")
    blocks = json.loads((parent / "w.json").read_text())[
        "components"][0]["fixed_blocks"]
    assert blocks["count"] == len(blocks["eigenvalues"]) == 2

    def move_eigenvalues(move):
        def move_report(report):
            fb = report["components"][0]["fixed_blocks"]
            z = move(np.array([complex(*v) for v in fb["eigenvalues"]]))
            fb["eigenvalues"] = [[x.real, x.imag] for x in z]
        return move_report
    rotated = compare(parent, moved_copy(
        tmp_path, parent, move_eigenvalues(lambda z: z * np.exp(2.1j))))
    assert rotated.returncode == 0, rotated.stdout
    assert "ok   components.fixed_blocks.eigenvalues" in rotated.stdout

    def turn_one(z):
        z[0] *= np.exp(0.1j)
        return z
    shutil.rmtree(tmp_path / "change")
    moved = compare(parent, moved_copy(tmp_path, parent,
                                       move_eigenvalues(turn_one)))
    assert moved.returncode == 1
    assert "FAIL components.fixed_blocks.eigenvalues" in moved.stdout


def test_compare_reports_flags_swapped_fixed_blocks(tmp_path):
    # the report lists the fixed blocks in an order free of the phase
    # gauge, so two blocks trading places is a change
    walk = tmp_path / "walk.json"
    main(["example", "pauli", "--d", "4", "--output", str(walk)])
    parent = tmp_path / "parent"
    parent.mkdir()
    assert main(["analyze", str(walk), "--output",
                 str(parent / "w.json")]) == EXIT_OK
    (parent / "w.exit").write_text("0\n")

    def swap(report):
        fb = report["components"][0]["fixed_blocks"]
        assert fb["count"] == 2
        for key in ("eigenvalues", "central_projections"):
            fb[key].reverse()
        fb["invariant_state_parameters"]["left_state_dims"].reverse()
    swapped = compare(parent, moved_copy(tmp_path, parent, swap))
    assert swapped.returncode == 1
    assert "FAIL components.fixed_blocks.central_projections" \
        in swapped.stdout
    assert "ok   components.projection" in swapped.stdout


def _move_xi_kraus(report, move):
    """Apply ``move`` to the (K, n, n') stack of every xi_kraus[m] of the
    first component, stored back as [re, im] pairs."""
    component = report["components"][0]
    for m, ops in enumerate(component["xi_kraus"]):
        pairs = np.array(ops)
        moved = move(pairs[..., 0] + 1j * pairs[..., 1])
        component["xi_kraus"][m] = np.stack(
            [moved.real, moved.imag], axis=-1).tolist()


def test_compare_reports_reads_xi_kraus_up_to_kraus_freedom(tmp_path):
    parent = analyzed_walk(tmp_path)
    component = json.loads((parent / "w.json").read_text())["components"][0]
    K = len(component["xi_kraus"][0])
    u = random_unitary(K, np.random.default_rng(4))

    def mix(report):
        _move_xi_kraus(report, lambda L: np.tensordot(u, L, 1))
    mixed = compare(parent, moved_copy(tmp_path, parent, mix))
    assert mixed.returncode == 0, mixed.stdout
    assert "ok   components.xi_choi_spectrum" in mixed.stdout

    def scale(report):
        def move(L):
            L[0] *= 1.5
            return L
        _move_xi_kraus(report, move)
    shutil.rmtree(tmp_path / "change")
    scaled = compare(parent, moved_copy(tmp_path, parent, scale))
    assert scaled.returncode == 1
    assert "FAIL components.xi_choi_spectrum" in scaled.stdout


def test_compare_reports_lists_flipped_exits_and_flags(tmp_path):
    walk = tmp_path / "walk.json"
    main(["example", "pauli", "--d", "3", "--output", str(walk)])
    parent = tmp_path / "parent"
    parent.mkdir()
    for command in ("analyze", "verify"):
        code = main([command, str(walk), "--output",
                     str(parent / f"w.{command}.json")])
        assert code == EXIT_OK
        (parent / f"w.{command}.exit").write_text(f"{code}\n")
    change = tmp_path / "change"
    shutil.copytree(parent, change)

    # verify: one check fails and the exit flips; analyze: one check is
    # renamed, which is not a flag change
    report = json.loads((change / "w.verify.json").read_text())
    report["checks"][1]["passed"] = False
    report["all_pass"] = False
    flipped = report["checks"][1]["name"]
    (change / "w.verify.json").write_text(json.dumps(report))
    (change / "w.verify.exit").write_text("1\n")
    report = json.loads((change / "w.analyze.json").read_text())
    renamed = report["verification"][-1]["name"]
    report["verification"][-1]["name"] = "renamed-check"
    (change / "w.analyze.json").write_text(json.dumps(report))

    out = compare(parent, change).stdout
    assert "1 cases with a different exit code or pass flag" in out
    assert f"  w.verify: exit 0 -> 1; {flipped} passed -> failed" in out
    assert f"only in {parent}: {renamed} in 1 cases, 0 failed" in out
    assert f"only in {change}: renamed-check in 1 cases, 0 failed" in out


def _hermitian_pairs(H):
    return np.stack([H.real, H.imag], axis=-1).tolist()


def _turn_states(report, turn):
    """Apply ``turn`` to sigma and to every block state of the first
    component, stored back as [re, im] pairs."""
    component = report["components"][0]
    fb = component["fixed_blocks"]
    for holder, key in [(fb, "sigma")] + [
            (component["block_states"], m)
            for m in range(len(component["block_states"]))]:
        pairs = np.array(holder[key])
        holder[key] = _hermitian_pairs(
            turn(pairs[..., 0] + 1j * pairs[..., 1]))


def test_compare_reports_reads_state_spectra_up_to_a_basis(tmp_path):
    # a unitary change of the K^R bases, and a new order of the steps,
    # keep the spectra of sigma and of the block states
    walk = tmp_path / "walk.json"
    main(["example", "pauli", "--d", "4", "--output", str(walk)])
    parent = tmp_path / "parent"
    parent.mkdir()
    assert main(["analyze", str(walk), "--output",
                 str(parent / "w.json")]) == EXIT_OK
    (parent / "w.exit").write_text("0\n")
    rng = np.random.default_rng(5)

    def rotate(report):
        def turn(H):
            U = random_unitary(len(H), rng)
            return U @ H @ U.conj().T
        _turn_states(report, turn)
        report["components"][0]["block_states"].reverse()
    rotated = compare(parent, moved_copy(tmp_path, parent, rotate))
    assert rotated.returncode == 0, rotated.stdout
    assert "ok   components.block_state_spectra" in rotated.stdout
    assert "ok   components.fixed_blocks.sigma_spectrum" in rotated.stdout


def _spread_sigma(component):
    fb = component["fixed_blocks"]
    fb["sigma"] = _hermitian_pairs(np.diag(np.linspace(0.1, 0.9,
                                                       len(fb["sigma"]))))


def _spread_first_block_state(component):
    states = component["block_states"]
    states[0] = _hermitian_pairs(np.diag(np.linspace(0.2, 0.8,
                                                     len(states[0]))))


def _grow_first_left_state_dim(component):
    component["fixed_blocks"]["invariant_state_parameters"][
        "left_state_dims"][0] += 1


@pytest.mark.parametrize("row,move", [
    ("components.fixed_blocks.sigma_spectrum", _spread_sigma),
    ("components.block_state_spectra", _spread_first_block_state),
    ("components.fixed_blocks.invariant_state_parameters.left_state_dims",
     _grow_first_left_state_dim),
])
def test_compare_reports_flags_a_moved_state_or_block_dim(tmp_path, row,
                                                          move):
    parent = analyzed_walk(tmp_path)
    moved = compare(parent, moved_copy(
        tmp_path, parent, lambda report: move(report["components"][0])))
    assert moved.returncode == 1
    assert f"FAIL {row} " in moved.stdout
    assert "ok   components.projection" in moved.stdout
