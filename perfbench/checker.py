"""Independent output checker for `chanstruct analyze` and `verify`.

Every check recomputes its reference with numpy from the Kraus operators of
the input file; nothing here imports `chanstruct`.  A check returns a list of
problems, empty when the output is correct.
"""

from __future__ import annotations

import json
import math
import os

import jsonschema
import numpy as np

# The program's default peripheral band: |lambda| > 1 - band is peripheral.
PERIPHERAL_BAND = 1e-7
EQ = 1e-8                # residuals the report claims to meet
RANK_CUTOFF = 1e-7       # singular values of T - I counted as zero
FINITE_HORIZON_FLOOR = -1e-12   # rounding allowed below a zero decay rate

REQUIRED_VERIFY_CHECKS = ("dfa-equals-peripheral-span",
                          "oqrw-mult-domain-oracle", "oqrw-dfa-oracle")

# Closed forms stated by the acceptance battery, keyed by input label.
CLOSED_FORMS = {
    "nn-cycle-8": {"dfa": 4, "dfa_center": 4, "components": 1, "period": 4},
}


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def kraus_operators(payload: dict) -> list:
    """D x D Kraus operators of a channel input or a flattened walk input."""
    if "kraus" in payload:
        return [_matrix(m) for m in payload["kraus"]]
    dims = payload["local_dims"]
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    D = int(offsets[-1])
    kraus = []
    for t in sorted(payload["transitions"],
                    key=lambda t: (t["to"], t["from"])):
        i, j = t["to"], t["from"]
        V = np.zeros((D, D), dtype=complex)
        V[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = \
            _matrix(t["matrix"])
        kraus.append(V)
    return kraus


class Reference:
    """Spectral data of one input, computed once and shared by its checks."""

    def __init__(self, payload: dict):
        self.label = payload.get("label", "")
        self.kraus = kraus_operators(payload)
        self.dim = self.kraus[0].shape[0]
        D = self.dim
        self.transfer = sum(np.kron(V.T, V.conj().T) for V in self.kraus)
        self.eigenvalues = np.linalg.eigvals(self.transfer)
        s = np.linalg.svd(self.transfer - np.eye(D * D), compute_uv=False)
        self.fixed_dim = int(np.sum(s <= RANK_CUTOFF * max(1.0, s[0])))
        moduli = np.abs(self.eigenvalues)
        self.peripheral = self.eigenvalues[moduli > 1.0 - PERIPHERAL_BAND]
        inner = moduli[moduli <= 1.0 - PERIPHERAL_BAND]
        self.asymptotic = (math.inf if inner.size == 0 or inner.max() <= 1e-9
                           else -math.log(float(inner.max())))
        self.unitality_defect = float(np.linalg.norm(
            sum(V.conj().T @ V for V in self.kraus) - np.eye(D), 2))

    def preadjoint(self, rho: np.ndarray) -> np.ndarray:
        return sum(V @ rho @ V.conj().T for V in self.kraus)


def load_schema(root: str, kind: str) -> dict:
    path = os.path.join(root, "docs", "schemas", f"{kind}_report_v1.json")
    with open(path) as fh:
        return json.load(fh)


def _schema_problems(report: dict, schema: dict) -> list:
    validator = jsonschema.Draft7Validator(schema)
    return [f"schema: {e.message} at {list(e.absolute_path)}"
            for e in validator.iter_errors(report)]


def _unmatched(claimed, reference, tol=1e-6) -> int:
    """Claimed values with no distinct reference value within tol."""
    pool = list(reference)
    missing = 0
    for z in claimed:
        dist = [abs(z - w) for w in pool]
        if dist and min(dist) <= tol:
            pool.pop(int(np.argmin(dist)))
        else:
            missing += 1
    return missing + len(pool)


def check_analysis(report: dict, ref: Reference, schema: dict) -> list:
    problems = _schema_problems(report, schema)
    if problems:
        return problems
    D = ref.dim
    dims = report["dims"]

    def expect(cond, msg):
        if not cond:
            problems.append(msg)

    expect(dims["fixed_points"] == ref.fixed_dim,
           f"dims.fixed_points {dims['fixed_points']} != nullity of T-I "
           f"{ref.fixed_dim}")

    rho = _matrix(report["invariant_state"]["rho_max"])
    herm = np.linalg.norm(rho - rho.conj().T, 2)
    expect(herm <= EQ, f"rho_max not Hermitian ({herm:.2e})")
    low = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    expect(low >= -EQ, f"rho_max not positive (min eigenvalue {low:.2e})")
    expect(abs(np.trace(rho) - 1) <= EQ,
           f"rho_max trace {np.trace(rho).real:.12g} != 1")
    drift = np.linalg.norm(ref.preadjoint(rho) - rho, 2)
    expect(drift <= EQ, f"rho_max not invariant ({drift:.2e})")

    for entry in report["verification"]:
        expect(entry["passed"], f"ledger entry {entry['name']} failed")

    if not report["faithful"]:
        return problems

    n_per = len(ref.peripheral)
    expect(dims["dfa"] == n_per,
           f"dims.dfa {dims['dfa']} != {n_per} peripheral eigenvalues")
    expect(dims["stable"] == D * D - dims["dfa"],
           f"dims.stable {dims['stable']} != D^2 - dims.dfa")
    claimed = [complex(re, im) for re, im in report["peripheral_eigenvalues"]]
    expect(_unmatched(claimed, ref.peripheral) == 0,
           "peripheral_eigenvalues do not match the spectrum of T")

    gap = report["gap"]
    asym = float(gap["asymptotic"])
    if math.isinf(ref.asymptotic):
        expect(math.isinf(asym), f"gap.asymptotic {asym} != inf")
    else:
        expect(abs(asym - ref.asymptotic) <= 1e-8 + 1e-6 * ref.asymptotic,
               f"gap.asymptotic {asym!r} != -log max non-peripheral |lambda| "
               f"{ref.asymptotic!r}")
    finite = float(gap["finite_horizon"])
    expect(finite >= FINITE_HORIZON_FLOOR,
           f"gap.finite_horizon {finite!r} is negative")
    expect(finite <= asym * (1 + 1e-9) + 1e-12,
           f"gap.finite_horizon {finite!r} exceeds gap.asymptotic {asym!r}")

    components = report["components"]
    total = sum((_matrix(c["projection"]) for c in components),
                np.zeros((D, D), dtype=complex))
    err = np.linalg.norm(total - np.eye(D), 2)
    expect(err <= EQ, f"component projections miss I by {err:.2e}")
    for n, comp in enumerate(components):
        cyc = comp["cyclic_projections"]
        expect(len(cyc) == comp["period"],
               f"component {n}: {len(cyc)} cyclic projections, "
               f"period {comp['period']}")
        # cyclic projections act on the component's range, rank P
        rank = round(float(np.trace(_matrix(comp["projection"])).real))
        if cyc:
            err = np.linalg.norm(sum(_matrix(Q) for Q in cyc)
                                 - np.eye(rank), 2) if \
                len(cyc[0]) == rank else float("inf")
            expect(err <= EQ,
                   f"component {n}: cyclic projections miss its identity "
                   f"by {err:.2e}")
        res = float(comp["structured_kraus_residual"])
        expect(res <= EQ,
               f"component {n}: structured_kraus_residual {res:.2e}")

    form = CLOSED_FORMS.get(ref.label)
    if form:
        expect(dims["dfa"] == form["dfa"],
               f"{ref.label}: dim N {dims['dfa']} != {form['dfa']}")
        expect(dims["dfa_center"] == form["dfa_center"],
               f"{ref.label}: N not abelian (center {dims['dfa_center']})")
        expect(len(components) == form["components"] and
               all(c["period"] == form["period"] for c in components),
               f"{ref.label}: expected {form['components']} component of "
               f"period {form['period']}")
    return problems


def check_verification(report: dict, exit_code: int, ref: Reference,
                       schema: dict, walk: bool) -> list:
    problems = _schema_problems(report, schema)
    if problems:
        return problems
    if exit_code != 0 or not report["all_pass"]:
        problems.append(f"verify exit {exit_code}, all_pass "
                        f"{report['all_pass']}")
    entries = {e["name"]: e for e in report["checks"]}
    for entry in report["checks"]:
        if not entry["passed"]:
            problems.append(f"ledger entry {entry['name']} failed")
    required = REQUIRED_VERIFY_CHECKS if walk else REQUIRED_VERIFY_CHECKS[:1]
    for name in required:
        if name not in entries:
            problems.append(f"ledger entry {name} missing")
    unit = entries.get("kraus-unitality")
    if unit is None:
        problems.append("ledger entry kraus-unitality missing")
    elif abs(float(unit["residual"]) - ref.unitality_defect) > 1e-14:
        problems.append(f"kraus-unitality residual {unit['residual']!r} != "
                        f"{ref.unitality_defect!r}")
    return problems
