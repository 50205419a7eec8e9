"""Command-line front end.

Subcommands:

* ``analyze``  — run the full structure pipeline on a channel or walk
  given as JSON and emit a report (JSON or text).
* ``verify``   — run the property suite; exit 0 iff every check passes.
* ``example``  — materialize one of the built-in example families as an
  input JSON file.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 internal numerical error or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from functools import cached_property

import numpy as np

from chanstruct.algebra import atomic_structure
from chanstruct.channel import (
    ChannelSpec,
    NotUnital,
    channel_from_json,
    matrix_to_json,
)
from chanstruct.cycles import fixed_multiblock, mfnc_decompose
from chanstruct.numerics import (
    Tolerances,
    commutator_norm,
    dagger,
    hs_norm,
    kron_blocks,
    lowrank_norm,
    random_unitary,
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
    oqrw_to_json,
    to_channel,
)
from chanstruct.structure import (
    decoherence_gap,
    dfa,
    fixed_points,
    fixed_points_commutant,
    invariant_states,
    L2Structure,
    multiplicative_domain,
    peripheral_subalgebra,
    spectrum,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_ERROR = 3


class InputError(ValueError):
    """The input file or a command-line value was rejected."""


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
        text = json.dumps(payload, sort_keys=True) + "\n"
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

    def __init__(self, c: ChannelSpec, w: OqrwSpec | None, tol: Tolerances):
        self.c, self.w, self.tol = c, w, tol

    @cached_property
    def spectrum(self):
        return spectrum(self.c.transfer_blocks, tol=self.tol)

    @cached_property
    def F(self):
        return fixed_points(self.spectrum, tol=self.tol)

    @cached_property
    def M(self):
        return multiplicative_domain(self.c, tol=self.tol)

    @cached_property
    def N(self):
        return dfa(self.c, tol=self.tol, M=self.M)

    @cached_property
    def N_structure(self):
        return atomic_structure(self.N, tol=self.tol)

    @cached_property
    def inv(self):
        return invariant_states(self.c, self.spectrum, tol=self.tol)

    @cached_property
    def peripheral(self):
        return peripheral_subalgebra(self.c, self.N, tol=self.tol)

    @cached_property
    def l2(self):
        return L2Structure.from_state(self.inv.rho_max, tol=self.tol)

    @cached_property
    def e_n(self):
        """Factors of E_N, the rho-orthogonal projection onto N."""
        return self.l2.projection(self.N.basis_matrix())

    @cached_property
    def weighted(self):
        return self.l2.weighted_transfer(self.c.kraus)


# ---------------------------------------------------------------------------
# verification ledger
# ---------------------------------------------------------------------------

def _choi_min_eig(X: np.ndarray, Y: np.ndarray, dim: int) -> float:
    """Smallest eigenvalue of the Choi matrix of E = X Y*.  Choi block
    (a, b) is E(E_ab), so the Choi matrix is sum_r conj(y_r) (x) x_r, x_r
    and y_r the unvec'd columns of X and Y, taken over the blocks of its
    split; a row that no term reaches is an eigenvalue 0 of its own."""
    x, y = unvec(X.T, dim), unvec(Y.T, dim)
    return min(float(np.linalg.eigvalsh((S + dagger(S)) / 2).min())
               for _, S in kron_blocks(y.conj(), x))


def _expectation_checks(name: str, factors, c: ChannelSpec):
    """Idempotent / unital / CP / commutation residuals of E = X Y*."""
    X, Y = factors
    D = c.dim
    yield (f"{name}-idempotent",
           lowrank_norm(X @ (dagger(Y) @ X - np.eye(X.shape[1])), Y))
    yield (f"{name}-unital",
           hs_norm(unvec(X @ (dagger(Y) @ vec(np.eye(D))), D) - np.eye(D)))
    yield f"{name}-cp", max(0.0, -_choi_min_eig(X, Y, D))
    yield f"{name}-commutes", commutator_norm(c.transfer_blocks, X, Y)


def build_ledger(analysis: Analysis) -> list:
    """Property checks with residuals; each entry carries its tolerance."""
    c, w, tol = analysis.c, analysis.w, analysis.tol
    entries = []

    def add(name, residual, tolerance):
        entries.append({"name": name, "residual": _num(float(residual)),
                        "tolerance": tolerance,
                        "passed": bool(residual <= tolerance)})

    add("kraus-unitality", c.unitality_defect, tol.eq_tol)
    if not entries[-1]["passed"]:
        # downstream structure theory is meaningless for a non-unital map
        return entries

    F = analysis.F
    add("fixed-points-product-closed", F.product_defect, tol.derived_tol)

    inv, N = analysis.inv, analysis.N
    if inv.faithful:
        p, s = analysis.peripheral, analysis.spectrum
        # N is the reversible part when T has dim N eigenvalues in the
        # peripheral band and N spans eigenmatrices of T
        reversible = np.count_nonzero(
            np.abs(s.eigenvalues) > 1.0 - tol.peripheral_band)
        add("dfa-equals-peripheral-span",
            p.eigenpair_residual if reversible == N.dim else 1.0,
            tol.check_tol)
        kraus_commutant = fixed_points_commutant(c, inv, analysis.M, tol)
        add("fixed-points-kraus-commutant",
            subspace_distance(kraus_commutant, F.subspace), tol.check_tol)
        for item in _expectation_checks("e-n", analysis.e_n, c):
            add(*item, tol.derived_tol)
        for item in _expectation_checks("e-f", s.e_f_factors, c):
            add(*item, tol.derived_tol)
        # a faithful invariant rho admits one rho-preserving expectation
        # onto each algebra, the rho-orthogonal projection (Takesaki), so
        # the spectral E_F must equal the projection onto the algebraic F
        l2 = analysis.l2
        (X, Y), (B, W) = s.e_f_factors, l2.projection(
            kraus_commutant.basis_matrix())
        add("e-f-vs-rho", lowrank_norm(np.hstack([X, -B]), np.hstack([Y, W])),
            tol.check_tol)
        add("l2-contraction",
            max(0.0, l2.map_norm(analysis.weighted) - 1.0), tol.eq_tol)
        iso_res = float(np.abs(l2.norm(c.apply(N.basis))
                               - l2.norm(N.basis)).max(initial=0.0))
        add("l2-isometry-on-dfa", iso_res, tol.eq_tol)

    if w is not None:
        rep = oqrw_dfa(w, tol=tol)
        add("oqrw-mult-domain-oracle",
            subspace_distance(rep.multiplicative_domain, analysis.M),
            tol.derived_tol)
        add("oqrw-dfa-oracle",
            subspace_distance(rep.algebra, N), tol.derived_tol)
        if inv.faithful:
            add("oqrw-dfa-block-diagonal", rep.off_diagonal.dim, 0)
    return entries


# ---------------------------------------------------------------------------
# analysis pipeline
# ---------------------------------------------------------------------------

def _component_summary(comp, tol):
    fb = fixed_multiblock(comp, tol=tol)
    return {
        "projection": matrix_to_json(comp.projection),
        "period": comp.period,
        "cyclic_projections": [matrix_to_json(Q)
                               for Q in comp.cyclic_projections],
        "left_dim": comp.left_dim,
        "right_dims": list(comp.right_dims),
        "xi_kraus": [[matrix_to_json(L) for L in ops]
                     for ops in comp.xi_kraus],
        "block_states": [matrix_to_json(r) for r in comp.block_states],
        "structured_kraus_residual": _num(comp.structured_kraus_residual),
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


def analyze(c: ChannelSpec, w: OqrwSpec | None, tol: Tolerances) -> dict:
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

    analysis = Analysis(c, w, tol)
    M, N, F, inv = analysis.M, analysis.N, analysis.F, analysis.inv
    report["faithful"] = inv.faithful
    report["invariant_state"] = {
        "space_dim": F.dim,
        "min_eigenvalue": _num(inv.min_eigenvalue),
        "rho_max": matrix_to_json(inv.rho_max),
    }
    report["fixed_points_is_algebra"] = F.is_algebra
    report["dims"] = {
        "fixed_points": F.dim,
        "multiplicative_domain": M.dim,
        "dfa": N.dim,
        "dfa_center": analysis.N_structure.n_blocks,
        "stable": c.dim ** 2 - N.dim if inv.faithful else "undetermined",
    }
    if inv.faithful:
        report["irreducible"] = F.dim == 1
        report["peripheral_eigenvalues"] = _complex_pairs(
            analysis.peripheral.eigenvalues)
        report["components"] = [
            _component_summary(comp, tol)
            for comp in mfnc_decompose(c, F.as_algebra(),
                                       analysis.N_structure, inv.rho_max,
                                       tol=tol)]
        gap = decoherence_gap(analysis.weighted, analysis.spectrum,
                              analysis.l2, analysis.e_n, tol=tol)
        report["gap"] = {
            "finite_horizon": _num(gap.finite_horizon),
            "asymptotic": _num(gap.asymptotic),
            "horizon": gap.horizon,
            "uniform_bound": gap.uniform_bound,
        }
    else:
        report.update(dict.fromkeys(("irreducible", "peripheral_eigenvalues",
                                     "components", "gap"), "undetermined"))
    report["verification"] = build_ledger(analysis)
    return report


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------

def make_example(name: str, args) -> dict:
    try:
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
    except ValueError as exc:         # a parameter the builder rejects
        raise InputError(f"example {name}: {exc}") from exc
    raise InputError(f"unknown example {name!r}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chanstruct",
        description="Structure analysis of finite-dimensional quantum "
                    "channels and open quantum random walks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=None,
                       help="equality tolerance eq_tol (default 1e-8); "
                            "every other threshold is a fixed multiple")
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
    try:
        return Tolerances() if args.tol is None else Tolerances(eq_tol=args.tol)
    except ValueError as exc:
        raise InputError(f"--tol: {exc}") from exc


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "example":
            _emit(make_example(args.name, args), "json", args.output)
            return EXIT_OK

        tol = _tolerances(args)
        try:
            c, w = load_input(args.input, tol)
        except InputError as exc:
            if args.command != "verify" or \
                    not isinstance(exc.__cause__, NotUnital):
                raise
            # the rejected map: its defect fails kraus-unitality
            c, w = exc.__cause__.channel, None
        if args.command == "analyze":
            report = analyze(c, w, tol)
            _emit(report, args.format, args.output)
            return EXIT_OK
        # verify
        ledger = build_ledger(Analysis(c, w, tol))
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
    except (RuntimeError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numerical error ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
