import json
import shutil
import subprocess
import sys
from pathlib import Path

from chanstruct.cli import EXIT_OK, main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"


def compare(parent_dir, change_dir):
    return subprocess.run([sys.executable, str(TOOL), str(parent_dir),
                           str(change_dir)], capture_output=True, text=True)


def test_compare_reports_flags_a_moved_gap(tmp_path):
    walk = tmp_path / "walk.json"
    main(["example", "pauli", "--d", "3", "--output", str(walk)])
    parent = tmp_path / "parent"
    parent.mkdir()
    code = main(["analyze", str(walk), "--output", str(parent / "w.json")])
    assert code == EXIT_OK
    (parent / "w.exit").write_text(f"{code}\n")

    same = compare(parent, parent)
    assert same.returncode == 0, same.stdout

    change = tmp_path / "change"
    shutil.copytree(parent, change)
    report = json.loads((change / "w.json").read_text())
    report["gap"]["finite_horizon"] += 1e-6
    (change / "w.json").write_text(json.dumps(report))
    moved = compare(parent, change)
    assert moved.returncode == 1
    assert "FAIL gap.finite_horizon" in moved.stdout
