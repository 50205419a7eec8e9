"""Compare two sets of `chanstruct analyze` / `verify` outputs field by field.

Usage::

    python3 tools/compare_reports.py PARENT_DIR CHANGE_DIR

Each directory holds one case per stem: ``<stem>.exit`` with the exit code
of the command, and ``<stem>.json`` with the report it wrote, if any
(``chanstruct analyze IN --output <stem>.json; echo $? > <stem>.exit``).
Both directories must hold the same stems.

Only fields that do not depend on the choice of bases are compared:

* exactly: the exit code, the ledger's check names and pass flags
  (``verification`` of an analysis, ``checks`` and ``all_pass`` of a
  verification);
* to 1e-8: ``dims``, ``faithful``, ``irreducible``,
  ``fixed_points_is_algebra``, ``invariant_state`` and the sorted
  ``peripheral_eigenvalues``;
* to 1e-10: ``gap``;
* as a set, to 1e-8: the components.  Each component is matched with the
  nearest one on the other side, and the matched pairs are compared, to
  1e-8, on the projection, ``period``, the set of cyclic projections,
  ``left_dim``, ``right_dims``, ``structured_kraus_residual`` (absolute),
  of ``fixed_blocks`` the ``count``, ``right_total``, the ``eigenvalues``
  up to one common phase (lam_i conj(lam_0) in report order; the monodromy
  fixes them only up to that phase, and the report lists the blocks in an
  order free of it), the ``central_projections`` position by position, the
  sorted eigenvalues of ``sigma``
  (``fixed_blocks.sigma_spectrum``) and, exactly, the sorted
  ``invariant_state_parameters.left_state_dims``;
  ``block_state_spectra``: the sorted eigenvalues of each
  ``block_states[m]``, compared as a set over m; and
  ``xi_choi_spectrum``: per step m, the sorted singular values of
  ``xi_kraus[m]`` as a (K, nR_m nR_{m-1}) matrix, compared as a set over
  m.  They are the square roots of the Choi eigenvalues of the reduced
  channel, so Kraus mixing and unitary changes of the K^R bases leave them
  unchanged, as such changes leave the spectra of the states.  Components
  whose numbers differ, or a string in place of the list, give one
  ``components`` row.

The script prints, for each field, the largest difference over all cases
and the case where it occurred, and exits 1 when any difference exceeds
its field's limit (0 otherwise).  It then lists every case whose exit code
differs or whose ledgers give one check a different pass flag, and counts,
per check name, the cases where only one of the two ledgers has it (a
renamed or new check).  Booleans compare as 0/1; a string (such
as ``"undetermined"`` or ``"inf"``) must match exactly, or the difference
is infinite.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

EXACT = 0.0
LIMITS = {
    "dims": 1e-8,
    "faithful": 1e-8,
    "irreducible": 1e-8,
    "fixed_points_is_algebra": 1e-8,
    "invariant_state": 1e-8,
    "peripheral_eigenvalues": 1e-8,
    "gap": 1e-10,
}
COMPONENT_LIMIT = 1e-8
COMPONENT_EXACT = {"fixed_blocks.invariant_state_parameters.left_state_dims"}


def _diff(a, b) -> float:
    """Largest elementwise difference of two JSON values of one shape."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return math.inf
        return max((_diff(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf
        return max((_diff(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(float(a) - float(b))
    return 0.0 if a == b else math.inf


def _sorted_eigenvalues(values):
    if not isinstance(values, list):
        return values
    return sorted(values, key=lambda z: (round(z[0], 6), round(z[1], 6)))


def _relative(values):
    """lam_i conj(lam_0) of a list of [re, im] values, in list order: the
    values up to one common phase."""
    if not isinstance(values, list):
        return values
    z = np.array([complex(*v) for v in values])
    return [[r.real, r.imag] for r in z * z[:1].conj()]


def _match(xs, ys, diff) -> list:
    """Pairs (x, y) of two lists of one length: each x is matched with the
    nearest y not yet taken."""
    free, pairs = list(ys), []
    for x in xs:
        dists = [diff(x, y) for y in free]
        pairs.append((x, free.pop(dists.index(min(dists)))))
    return pairs


def _set_diff(xs, ys, diff) -> float:
    """Distance of two lists compared as sets: the worst matched pair."""
    if len(xs) != len(ys):
        return math.inf
    return max((diff(x, y) for x, y in _match(xs, ys, diff)), default=0.0)


def _complex(value) -> np.ndarray:
    """A matrix, or a stack of them, stored as [re, im] pairs."""
    pairs = np.array(value, dtype=float)
    return pairs[..., 0] + 1j * pairs[..., 1]


def _xi_choi_spectra(component) -> list:
    """Per step m, the sorted singular values of the stacked xi_kraus[m]."""
    return [sorted(np.linalg.svd(_complex(ops).reshape(len(ops), -1),
                                 compute_uv=False).tolist())
            for ops in component["xi_kraus"]]


def _spectrum(matrix) -> list:
    """The ascending eigenvalues of a Hermitian matrix."""
    return np.linalg.eigvalsh(_complex(matrix)).tolist()


def _component_fields(a, b) -> dict:
    """Field -> difference of two components."""
    fa, fb = a["fixed_blocks"], b["fixed_blocks"]
    return {
        "projection": _diff(a["projection"], b["projection"]),
        "period": _diff(a["period"], b["period"]),
        "cyclic_projections": _set_diff(a["cyclic_projections"],
                                        b["cyclic_projections"], _diff),
        "left_dim": _diff(a["left_dim"], b["left_dim"]),
        "right_dims": _diff(a["right_dims"], b["right_dims"]),
        "structured_kraus_residual": _diff(a["structured_kraus_residual"],
                                           b["structured_kraus_residual"]),
        "fixed_blocks.count": _diff(fa["count"], fb["count"]),
        "fixed_blocks.right_total": _diff(fa["right_total"],
                                          fb["right_total"]),
        "fixed_blocks.eigenvalues": _diff(_relative(fa["eigenvalues"]),
                                          _relative(fb["eigenvalues"])),
        "fixed_blocks.central_projections": _diff(
            fa["central_projections"], fb["central_projections"]),
        "fixed_blocks.sigma_spectrum": _diff(_spectrum(fa["sigma"]),
                                             _spectrum(fb["sigma"])),
        "fixed_blocks.invariant_state_parameters.left_state_dims": _diff(
            sorted(fa["invariant_state_parameters"]["left_state_dims"]),
            sorted(fb["invariant_state_parameters"]["left_state_dims"])),
        "block_state_spectra": _set_diff(
            [_spectrum(r) for r in a["block_states"]],
            [_spectrum(r) for r in b["block_states"]], _diff),
        "xi_choi_spectrum": _set_diff(_xi_choi_spectra(a),
                                      _xi_choi_spectra(b), _diff),
    }


def _component_rows(a, b):
    """Yield (field, difference, limit) over the matched components of two
    reports."""
    if not (isinstance(a, list) and isinstance(b, list)) or len(a) != len(b):
        yield "components", _diff(a, b), COMPONENT_LIMIT
        return
    for x, y in _match(a, b,
                       lambda x, y: max(_component_fields(x, y).values())):
        for field, difference in _component_fields(x, y).items():
            limit = EXACT if field in COMPONENT_EXACT else COMPONENT_LIMIT
            yield f"components.{field}", difference, limit


def _ledger(entries):
    return [(e["name"], e["passed"]) for e in entries]


def _pass_flags(report: dict | None) -> dict:
    """Check name -> pass flag of the ledger in a report, if any."""
    if report is None:
        return {}
    key = "checks" if report.get("kind") == "verification" else "verification"
    return {e["name"]: e["passed"] for e in report.get(key, [])}


def _flag(passed: bool) -> str:
    return "passed" if passed else "failed"


def flag_changes(code_a: int, code_b: int, flags_a: dict,
                 flags_b: dict) -> list:
    """The exit code and the pass flags of the checks both ledgers hold,
    where they differ, as 'exit 1 -> 0' and '<check> failed -> passed'."""
    changes = [f"exit {code_a} -> {code_b}"] if code_a != code_b else []
    changes += [f"{name} {_flag(flags_a[name])} -> {_flag(flags_b[name])}"
                for name in flags_a
                if name in flags_b and flags_a[name] != flags_b[name]]
    return changes


def compare_case(parent: dict | None, change: dict | None):
    """Yield (field, difference, limit) for one pair of reports."""
    if parent is None or change is None:
        yield "report", 0.0 if parent is change else math.inf, EXACT
        return
    if parent.get("kind") != change.get("kind"):
        yield "kind", math.inf, EXACT
        return
    if parent["kind"] == "verification":
        yield "all_pass", _diff(parent["all_pass"], change["all_pass"]), EXACT
        yield "ledger", _diff(_ledger(parent["checks"]),
                              _ledger(change["checks"])), EXACT
        return
    yield "ledger", _diff(_ledger(parent["verification"]),
                          _ledger(change["verification"])), EXACT
    for field, limit in LIMITS.items():
        a, b = parent[field], change[field]
        if field == "peripheral_eigenvalues":
            a, b = _sorted_eigenvalues(a), _sorted_eigenvalues(b)
        if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
            for key in sorted(a):
                yield f"{field}.{key}", _diff(a[key], b[key]), limit
        else:
            yield field, _diff(a, b), limit
    yield from _component_rows(parent["components"], change["components"])


def _load(directory: Path, stem: str):
    code = int((directory / f"{stem}.exit").read_text())
    report = directory / f"{stem}.json"
    return code, json.loads(report.read_text()) if report.exists() else None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare_reports.py PARENT_DIR CHANGE_DIR",
              file=sys.stderr)
        return 2
    parent_dir, change_dir = Path(argv[0]), Path(argv[1])
    stems = {p.stem for p in parent_dir.glob("*.exit")}
    other = {p.stem for p in change_dir.glob("*.exit")}
    if stems != other or not stems:
        print(f"cases differ: only in {parent_dir}: {sorted(stems - other)}; "
              f"only in {change_dir}: {sorted(other - stems)}")
        return 1

    worst = {}  # field -> (difference, limit, stem)
    changed = []  # (stem, changes)
    one_sided = {}  # (side, check) -> [cases, failed]
    for stem in sorted(stems):
        code_a, report_a = _load(parent_dir, stem)
        code_b, report_b = _load(change_dir, stem)
        rows = [("exit", math.inf if code_a != code_b else 0.0, EXACT)]
        rows += compare_case(report_a, report_b)
        for field, difference, limit in rows:
            if field not in worst or difference > worst[field][0]:
                worst[field] = (difference, limit, stem)
        flags_a, flags_b = _pass_flags(report_a), _pass_flags(report_b)
        changes = flag_changes(code_a, code_b, flags_a, flags_b)
        if changes:
            changed.append((stem, changes))
        for side, own, other in ((parent_dir, flags_a, flags_b),
                                 (change_dir, flags_b, flags_a)):
            for name in own.keys() - other.keys():
                count = one_sided.setdefault((str(side), name), [0, 0])
                count[0] += 1
                count[1] += not own[name]

    failed = False
    print(f"{len(stems)} cases")
    for field, (difference, limit, stem) in sorted(worst.items()):
        bad = difference > limit
        failed |= bad
        where = f"; {stem}" if difference > 0 else ""
        print(f"{'FAIL' if bad else 'ok  '} {field:66s} {difference:.3g} "
              f"(limit {limit:g}{where})")
    print(f"{len(changed)} cases with a different exit code or pass flag")
    for stem, changes in changed:
        print(f"  {stem}: {'; '.join(changes)}")
    for (side, name), (cases, failed_in) in sorted(one_sided.items()):
        print(f"only in {side}: {name} in {cases} cases, {failed_in} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
