"""Command-line front end.

Subcommands:

* ``analyze``  — run the full structure pipeline on a channel or walk
  given as JSON and emit a report (JSON or text).
* ``verify``   — run the property suite; exit 0 iff every check passes.
* ``example``  — materialize one of the built-in example families as an
  input JSON file.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 internal numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from functools import cached_property

import numpy as np

from chanstruct.algebra import center
from chanstruct.channel import (
    ChannelSpec,
    NotUnital,
    channel_from_json,
    matrix_to_json,
)
from chanstruct.cycles import (
    component_decompose,
    fixed_multiblock,
    mfnc_decompose,
    structured_kraus,
)
from chanstruct.numerics import (
    Tolerances,
    dagger,
    hs_norm,
    random_unitary,
    spectral_norm,
    subspace_distance,
    unvec,
    vec,
)
from chanstruct.oqrw import (
    OqrwSpec,
    builder_cyclic_shift,
    builder_nn_cycle,
    builder_pauli_walk,
    oqrw_dfa,
    oqrw_from_json,
    oqrw_multiplicative_domain,
    oqrw_to_json,
    to_channel,
)
from chanstruct.structure import (
    cesaro_expectation,
    decoherence_gap,
    dfa,
    fixed_points,
    invariant_states,
    L2Structure,
    multiplicative_domain,
    peripheral_subalgebra,
    stable_subspace,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_ERROR = 3


class InputError(ValueError):
    """The input file could not be parsed into a channel or a walk."""


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _num(x: float):
    """JSON-safe float: infinities become strings."""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


def _complex_pairs(values):
    return [[float(np.real(v)), float(np.imag(v))] for v in values]


def _write_atomic(text: str, path: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(payload: dict, fmt: str, output: str | None):
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = _render_text(payload)
    if output:
        _write_atomic(text, output)
    else:
        sys.stdout.write(text)


def _fmt10(x) -> str:
    if isinstance(x, str):
        return x
    return f"{float(x):.10g}"


def _render_text(payload: dict) -> str:
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}{k}.", value[k])
        elif isinstance(value, list) and value and \
                all(isinstance(v, (int, float)) for v in value):
            lines.append(prefix[:-1] + ": " +
                         " ".join(_fmt10(v) for v in value))
        elif isinstance(value, list):
            for n, v in enumerate(value):
                walk(f"{prefix}{n}.", v)
        elif isinstance(value, float):
            lines.append(prefix[:-1] + ": " + _fmt10(value))
        else:
            lines.append(prefix[:-1] + ": " + str(value))

    walk("", payload)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------

def load_input(path: str, tol: Tolerances):
    """Parse an input file into (channel, walk-or-None)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: top-level JSON object expected")
    try:
        if "transitions" in data:
            w = oqrw_from_json(data, tol=tol)
            return to_channel(w, tol=tol), w
        if "kraus" in data:
            return channel_from_json(data, tol=tol), None
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    raise InputError(f"{path}: neither a channel ('kraus') nor a walk "
                     "('transitions')")


# ---------------------------------------------------------------------------
# shared analysis
# ---------------------------------------------------------------------------

class Analysis:
    """The structure stages of one input, each computed on first use and
    then shared by the report and the verification ledger."""

    def __init__(self, c: ChannelSpec, w: OqrwSpec | None, tol: Tolerances,
                 seed: int, max_power: int | None):
        self.c, self.w, self.tol = c, w, tol
        self.seed, self.max_power = seed, max_power

    @cached_property
    def F(self):
        return fixed_points(self.c, tol=self.tol)

    @cached_property
    def M(self):
        return multiplicative_domain(self.c, tol=self.tol)

    @cached_property
    def N(self):
        return dfa(self.c, tol=self.tol, n_max=self.max_power)

    @cached_property
    def inv(self):
        return invariant_states(self.c, tol=self.tol)

    @cached_property
    def peripheral(self):
        return peripheral_subalgebra(self.c, self.inv, tol=self.tol)

    @cached_property
    def l2(self):
        return L2Structure.from_state(self.inv.rho_max, tol=self.tol)


# ---------------------------------------------------------------------------
# verification ledger
# ---------------------------------------------------------------------------

def _choi_min_eig(transfer: np.ndarray, dim: int) -> float:
    """Smallest eigenvalue of the Choi matrix of a transfer-matrix map.

    Choi block (a, b) is the image of E_ab, column b * dim + a of the
    transfer matrix."""
    C = transfer.reshape((dim,) * 4).transpose(3, 1, 2, 0).reshape(
        dim * dim, dim * dim)
    return float(np.linalg.eigvalsh((C + dagger(C)) / 2).min())


def _expectation_checks(name: str, E: np.ndarray, c: ChannelSpec):
    """Idempotent / unital / CP / commutes-with-the-channel residuals."""
    D = c.dim
    yield (f"{name}-idempotent", spectral_norm(E @ E - E), 1e-7)
    yield (f"{name}-unital",
           hs_norm(unvec(E @ vec(np.eye(D)), D) - np.eye(D)), 1e-7)
    yield (f"{name}-cp", max(0.0, -_choi_min_eig(E, D)), 1e-7)
    yield (f"{name}-commutes",
           spectral_norm(E @ c.transfer - c.transfer @ E), 1e-7)


def build_ledger(analysis: Analysis) -> list:
    """Property checks with residuals; each entry carries its tolerance."""
    c, w, tol = analysis.c, analysis.w, analysis.tol
    entries = []

    def add(name, residual, tolerance):
        entries.append({"name": name, "residual": _num(float(residual)),
                        "tolerance": tolerance,
                        "passed": bool(residual <= tolerance)})

    add("kraus-unitality", c.unitality_defect, 100 * tol.eq_tol)
    if not entries[-1]["passed"]:
        # downstream structure theory is meaningless for a non-unital map
        return entries

    F = analysis.F
    prod_res = 0.0
    for a in F.subspace.basis:
        for b in F.subspace.basis:
            prod_res = max(prod_res, F.subspace.residual(a @ b))
    add("fixed-points-product-closed", prod_res, 1e-6)

    inv, N = analysis.inv, analysis.N
    if inv.faithful:
        p = analysis.peripheral
        add("dfa-equals-peripheral-span",
            subspace_distance(N.subspace, p.reversible), 1e-6)
        for item in _expectation_checks("e-n", p.e_n_transfer, c):
            add(*item)
        Ef, discrepancy = cesaro_expectation(c, max_n=10_000, tol=tol,
                                             seed=analysis.seed)
        for item in _expectation_checks("e-f", Ef.transfer, c):
            add(*item)
        add("cesaro-vs-spectral", discrepancy, 1e-6)

        l2 = analysis.l2
        add("l2-contraction", max(0.0, l2.map_norm(c.transfer) - 1.0), 1e-8)
        iso_res = max((abs(l2.norm(c.apply(b)) - l2.norm(b))
                       for b in N.subspace.basis), default=0.0)
        add("l2-isometry-on-dfa", iso_res, 1e-8)

    if w is not None:
        m_block = oqrw_multiplicative_domain(w, tol=tol)
        add("oqrw-mult-domain-oracle",
            subspace_distance(m_block.subspace, analysis.M.subspace), 1e-7)
        rep = oqrw_dfa(w, n_max=analysis.max_power, tol=tol)
        add("oqrw-dfa-oracle",
            subspace_distance(rep.algebra.subspace, N.subspace), 1e-7)
        if inv.faithful:
            add("oqrw-dfa-block-diagonal", rep.off_diagonal.dim, 0)
    return entries


# ---------------------------------------------------------------------------
# analysis pipeline
# ---------------------------------------------------------------------------

def _component_summary(comp, tol, seed):
    cd = component_decompose(comp, tol=tol, seed=seed)
    rebuilt = structured_kraus(cd, tol=tol)
    recon = spectral_norm(rebuilt.transfer - comp.channel.transfer)
    fb = fixed_multiblock(cd, fixed_points(comp.channel, tol=tol).as_algebra(),
                          tol=tol)
    return {
        "projection": matrix_to_json(comp.projection),
        "period": cd.period,
        "cyclic_projections": [matrix_to_json(Q)
                               for Q in cd.cycle.projections],
        "left_dim": cd.left_dim,
        "right_dims": list(cd.right_dims),
        "xi_kraus": [[matrix_to_json(L) for L in ops]
                     for ops in cd.xi_kraus],
        "block_states": [matrix_to_json(r) for r in cd.block_states],
        "structured_kraus_residual": _num(recon),
        "fixed_blocks": {
            "count": fb.n_blocks,
            "eigenvalues": _complex_pairs(fb.eigenvalues),
            "central_projections": [matrix_to_json(P)
                                    for P in fb.central_projections],
            "sigma": matrix_to_json(fb.sigma),
            "right_total": fb.right_total,
            "invariant_state_parameters": {
                "weights": fb.n_blocks,
                "left_state_dims": [int(B.shape[1]) for B in fb.left_bases],
            },
        },
    }


def analyze(c: ChannelSpec, w: OqrwSpec | None, tol: Tolerances,
            seed: int, max_power: int) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "analysis",
        "channel": {
            "label": c.label,
            "dim": c.dim,
            "kraus_count": len(c.kraus),
            "unitality_defect": _num(c.unitality_defect),
        },
    }
    if w is not None:
        report["walk"] = {
            "vertices": list(w.vertices),
            "local_dims": list(w.local_dims),
            "homogeneous": w.homogeneous,
        }

    analysis = Analysis(c, w, tol, seed, max_power)
    F, M, N, inv = analysis.F, analysis.M, analysis.N, analysis.inv
    report["faithful"] = inv.faithful
    report["invariant_state"] = {
        "space_dim": inv.basis.dim,
        "min_eigenvalue": _num(inv.min_eigenvalue),
        "rho_max": matrix_to_json(inv.rho_max),
    }
    dims = {
        "fixed_points": F.dim,
        "multiplicative_domain": M.dim,
        "dfa": N.dim,
        "dfa_center": center(N, tol=tol).dim,
    }
    report["fixed_points_is_algebra"] = F.is_algebra

    if not inv.faithful:
        dims["stable"] = "undetermined"
        report["dims"] = dims
        report["irreducible"] = "undetermined"
        report["peripheral_eigenvalues"] = "undetermined"
        report["components"] = "undetermined"
        report["gap"] = "undetermined"
        report["verification"] = build_ledger(analysis)
        return report

    p = analysis.peripheral
    dims["stable"] = stable_subspace(p, tol=tol).dim
    report["dims"] = dims
    report["irreducible"] = F.dim == 1
    report["peripheral_eigenvalues"] = _complex_pairs(p.eigenvalues)

    dec = mfnc_decompose(c, F.as_algebra(), N, tol=tol, seed=seed)
    report["components"] = [_component_summary(comp, tol, seed)
                            for comp in dec.components]

    gap = decoherence_gap(c, p, analysis.l2, tol=tol)
    report["gap"] = {
        "finite_horizon": _num(gap.finite_horizon),
        "asymptotic": _num(gap.asymptotic),
        "horizon": gap.horizon,
        "uniform_bound": gap.uniform_bound,
    }
    report["verification"] = build_ledger(analysis)
    return report


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------

def make_example(name: str, args) -> dict:
    if name == "pauli":
        return oqrw_to_json(builder_pauli_walk(args.d, args.alpha))
    if name == "cyclic-shift":
        rng = np.random.default_rng(args.seed)
        us = [random_unitary(args.local_dim, rng) for _ in range(args.d)]
        return oqrw_to_json(builder_cyclic_shift(args.d, us))
    if name == "nn-cycle":
        if args.preset == "special-basis":
            lm = np.diag([np.sqrt(0.3), np.sqrt(0.7)])
            lp = np.array([[0, np.sqrt(0.3)], [np.sqrt(0.7), 0]])
        elif args.preset == "generic-unitary":
            rng = np.random.default_rng(args.seed)
            lp = random_unitary(2, rng) / np.sqrt(2)
            lm = random_unitary(2, rng) / np.sqrt(2)
        else:
            raise InputError(f"unknown preset {args.preset!r}")
        return oqrw_to_json(builder_nn_cycle(args.n, lp, lm))
    raise InputError(f"unknown example {name!r}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chanstruct",
        description="Structure analysis of finite-dimensional quantum "
                    "channels and open quantum random walks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=None,
                       help="equality tolerance (default 1e-8)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-power", type=int, default=None,
                       help="cap on the power/path chain length")
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--output", default=None,
                       help="write to this file (atomically)")

    pa = sub.add_parser("analyze", help="full structure report")
    pa.add_argument("input")
    common(pa)

    pv = sub.add_parser("verify", help="property suite; exit 0 iff all pass")
    pv.add_argument("input")
    common(pv)

    pe = sub.add_parser("example", help="write an example input JSON")
    pe.add_argument("name", choices=["pauli", "cyclic-shift", "nn-cycle"])
    pe.add_argument("--d", type=int, default=3)
    pe.add_argument("--alpha", type=float, default=0.5)
    pe.add_argument("--n", type=int, default=8)
    pe.add_argument("--local-dim", type=int, default=2)
    pe.add_argument("--preset", default="special-basis")
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--output", default=None)
    return parser


def _tolerances(args) -> Tolerances:
    if getattr(args, "tol", None) is None:
        return Tolerances()
    return Tolerances(eq_tol=args.tol)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "example":
            payload = make_example(args.name, args)
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
            if args.output:
                _write_atomic(text, args.output)
            else:
                sys.stdout.write(text)
            return EXIT_OK

        tol = _tolerances(args)
        max_power = args.max_power
        try:
            c, w = load_input(args.input, tol)
        except InputError as exc:
            if args.command == "verify" and \
                    isinstance(exc.__cause__, NotUnital):
                # surface the defect as a failed check, not a parse error
                c, w = load_input(args.input, Tolerances(eq_tol=1.0))
            else:
                raise
        if args.command == "analyze":
            report = analyze(c, w, tol, args.seed, max_power)
            _emit(report, args.format, args.output)
            return EXIT_OK
        # verify
        ledger = build_ledger(Analysis(c, w, tol, args.seed, max_power))
        all_pass = all(e["passed"] for e in ledger)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kind": "verification",
            "all_pass": all_pass,
            "checks": ledger,
        }
        _emit(payload, args.format, args.output)
        return EXIT_OK if all_pass else EXIT_VERIFY_FAILED
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical error ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
