"""Write `chanstruct analyze` and `verify` reports on the standard case set.

Usage::

    python3 tools/report_set.py OUT_DIR

For each input and each of the two commands, writes ``<stem>.json`` (the
report, when the command wrote one) and ``<stem>.exit`` (its exit code)
into OUT_DIR, the layout `tools/compare_reports.py` reads; the inputs
themselves go to OUT_DIR/in.  The stem is ``<input>.<command>``, or
``<run>.<command>`` for the runs of ``EXTRA_RUNS``, which pass extra
arguments.  The 175 inputs, and one of them again at ``--tol 1e-12``, 352
cases:

* the 52-channel corpora of seeds 20240817, 27 and 1, built by
  `perfbench/inputs.py` (``s<seed>-cNN``);
* the benchmark's two D=16 walks, ``nn-cycle-8`` and ``pauli-walk-8``;
* eight `chanstruct example` models: the Pauli walk with d=3, d=4 and
  d=16, the cyclic shift with d=4 and with d=3 on local dimension 3, and
  the nearest-neighbour cycle with n=4 and n=32 (special basis) and n=6
  (generic unitary steps); at n=32 (D=64) a dense commutator would fill
  two kernel fold blocks, while the one-block operators' commutators,
  taken on their supports, fill one together, and at d=16 (D=32) the
  first step of the walk oracle splits into many classes of coupled
  columns;
* the dephasing mixture Phi = (1 - p) id + p Ad_Z with eps = 2p in
  {1e-3, 1e-5, 1e-7, 5e-8, 1e-9}, whose eigenvalue 1 - eps crosses the
  edge of the peripheral band (``dephasing-<eps>``), and amplitude
  damping with gamma = 0.3, which has no faithful invariant state
  (``amplitude-damping-0.3``);
* the 3-vertex walk with two dead corners, whose N has a nonzero
  off-diagonal part (``dead-corners-3``);
* two inputs whose Kraus operators have supports of mixed sizes: a
  3-vertex walk on local dimensions 2, 1 and 3 (``mixed-dims-3``) and
  sqrt(p) U with sqrt(1 - p) P_0, sqrt(1 - p) P_1 for a Haar unitary U and
  two complementary projections (``haar-and-projections-4``);
* ``s1-c12`` at ``--tol 1e-12`` (``s1-c12.tol-1e-12``): it mixes slowly,
  and M holds I only to 2e-13, above that rank_tol.

The commands run in-process through `chanstruct.cli.main`, imported from
the `src/` next to this script.  Run as a script, it sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before
numpy is imported, so the reports of two runs compare byte for byte
whatever the caller's environment.  To compare two checkouts, copy this
script into the other checkout's `tools/`, so that both run one case list,
run it from each, and pass both output directories to
`tools/compare_reports.py`.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy is imported, as in perfbench/run.py
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from chanstruct.channel import channel_to_json, from_kraus  # noqa: E402
from chanstruct.cli import main as cli_main  # noqa: E402
from chanstruct.numerics import random_unitary  # noqa: E402
from chanstruct.oqrw import build, oqrw_to_json  # noqa: E402
from perfbench import inputs  # noqa: E402

CORPUS_SEEDS = (20240817, 27, 1)
COMMANDS = ("analyze", "verify")
EXAMPLES = {
    "pauli-d3": ["pauli", "--d", "3"],
    "pauli-d4": ["pauli", "--d", "4"],
    "pauli-d16": ["pauli", "--d", "16"],
    "cyclic-shift-d4": ["cyclic-shift", "--d", "4"],
    "cyclic-shift-d3-l3": ["cyclic-shift", "--d", "3", "--local-dim", "3"],
    "nn-cycle-n4-special": ["nn-cycle", "--n", "4",
                            "--preset", "special-basis"],
    "nn-cycle-n6-generic": ["nn-cycle", "--n", "6",
                            "--preset", "generic-unitary"],
    "nn-cycle-n32-special": ["nn-cycle", "--n", "32",
                             "--preset", "special-basis"],
}
EXTRA_RUNS = {"s1-c12.tol-1e-12": ("s1-c12", ["--tol", "1e-12"])}
"""Run name -> (input, extra arguments of both commands)."""
DEPHASING_EPS = (1e-3, 1e-5, 1e-7, 5e-8, 1e-9)
DAMPING_GAMMA = 0.3


def dephasing_mixture(eps):
    """Phi = (1 - p) id + p Ad_Z with p = eps / 2: the eigenvalue 1 - eps
    of T twice, so near the peripheral band for small eps."""
    p = eps / 2
    return from_kraus([np.sqrt(1 - p) * np.eye(2),
                       np.sqrt(p) * np.diag([1.0, -1.0])],
                      label=f"dephasing-{eps:g}")


def amplitude_damping(gamma=DAMPING_GAMMA):
    """Decay of |1> to |0>; its only invariant state is |0><0|, so it has
    no faithful one."""
    return from_kraus([np.diag([1.0, np.sqrt(1 - gamma)]),
                       np.array([[0, np.sqrt(gamma)], [0, 0]])],
                      label=f"amplitude-damping-{gamma:g}")


def dead_corners_walk():
    """Vertex 1 scatters rank-one pieces to vertices 0 and 2, which return
    to 1 by unitaries; 0 and 2 each keep a one-dimensional dead corner
    (the complement of their incoming ranges), so N has a two-dimensional
    off-diagonal part."""
    e0 = np.zeros((2, 2))
    e0[0, 0] = 1
    e1 = np.zeros((2, 2))
    e1[0, 1] = 1
    rng = np.random.default_rng(1)
    transitions = {(0, 1): e0, (2, 1): e1,
                   (1, 0): random_unitary(2, rng),
                   (1, 2): random_unitary(2, rng)}
    return build(range(3), [2, 2, 2], transitions, label="dead-corners-3")


def mixed_dims_walk():
    """Each vertex j sends its local space, by one seeded random isometry
    split into blocks, to the two other vertices: transitions of the sizes
    1x2, 3x2, 2x1, 3x1, 2x3 and 1x3."""
    dims, rng, transitions = (2, 1, 3), np.random.default_rng(3), {}
    for j, h in enumerate(dims):
        to = [i for i in range(3) if i != j]
        Q = np.linalg.qr(rng.standard_normal((sum(dims) - h, h))
                         + 1j * rng.standard_normal((sum(dims) - h, h)))[0]
        for i, L in zip(to, np.split(Q, np.cumsum([dims[i] for i in to]))):
            transitions[(i, j)] = L
    return build(range(3), dims, transitions, label="mixed-dims-3")


def haar_and_projections(p=0.3, dim=4):
    """sqrt(p) U, a seeded Haar unitary of full support, with sqrt(1 - p)
    times each of two complementary diagonal projections, one block each."""
    U = random_unitary(dim, np.random.default_rng(4))
    P = np.diag(np.arange(dim) < dim // 2).astype(float)
    return from_kraus([np.sqrt(p) * U, np.sqrt(1 - p) * P,
                       np.sqrt(1 - p) * (np.eye(dim) - P)],
                      label=f"haar-and-projections-{dim}")


def kraus_channels() -> dict:
    """The dephasing mixtures, the amplitude-damping channel and the Haar
    unitary with projections, as channel JSON keyed by input name (the
    label)."""
    return {c.label: channel_to_json(c) for c in (
        *map(dephasing_mixture, DEPHASING_EPS), amplitude_damping(),
        haar_and_projections())}


def write_inputs(directory: Path) -> dict:
    """Write every input as <name>.json under ``directory``; return
    name -> path."""
    payloads = {}
    for seed in CORPUS_SEEDS:
        payloads.update({f"s{seed}-{name}": data for name, data
                         in inputs.corpus_json(seed).items()})
    payloads.update(inputs.walks("full"))
    payloads.update(kraus_channels())
    payloads["dead-corners-3"] = oqrw_to_json(dead_corners_walk())
    payloads["mixed-dims-3"] = oqrw_to_json(mixed_dims_walk())
    paths = inputs.write_inputs(payloads, str(directory))
    for name, argv in EXAMPLES.items():
        path = directory / f"{name}.json"
        cli_main(["example", *argv, "--output", str(path)])
        paths[name] = str(path)
    return paths


def cases(paths: dict) -> list:
    """(stem, argv without --output) for each command on each input and on
    each run of ``EXTRA_RUNS``."""
    runs = [(name, path, []) for name, path in sorted(paths.items())]
    runs += [(name, paths[source], extra)
             for name, (source, extra) in EXTRA_RUNS.items()]
    return [(f"{name}.{command}", [command, path, *extra])
            for name, path, extra in runs for command in COMMANDS]


def run_case(stem: str, argv: list, out_dir: Path) -> int:
    """Run one case; write <stem>.exit and, if made, <stem>.json."""
    report = out_dir / f"{stem}.json"
    code = cli_main([*argv, "--output", str(report)])
    (out_dir / f"{stem}.exit").write_text(f"{code}\n")
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: report_set.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    codes = {}
    for stem, case in cases(write_inputs(out_dir / "in")):
        code = run_case(stem, case, out_dir)
        codes[code] = codes.get(code, 0) + 1
    print(json.dumps({"cases": sum(codes.values()),
                      "exit_codes": {str(k): v
                                     for k, v in sorted(codes.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
