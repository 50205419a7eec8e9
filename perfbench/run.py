"""Benchmark of `chanstruct analyze` and `verify`; see README.md.

    python3 perfbench/run.py --workload walks-analyze --seed 1 \\
        --seconds 12 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import os
import sys

# The BLAS thread count must be fixed before numpy is imported.  One thread
# (never more than nproc) keeps a pass on one core of a small machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import inputs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# workload -> (command, inputs)
WORKLOADS = {
    "walks-analyze": ("analyze", "walks"),
    "walks-verify": ("verify", "walks"),
    "corpus-analyze": ("analyze", "corpus"),
}
SETUP_REPEATS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="recorded only; the inputs are fixed (README.md)")
    p.add_argument("--corpus-seed", type=int,
                   default=inputs.DEFAULT_CORPUS_SEED,
                   help="seed of the 52-channel corpus (default: the "
                        "acceptance battery's)")
    p.add_argument("--seconds", type=float, default=12.0,
                   help="measured time; whole passes run until it is reached")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", default=None,
                   help="import chanstruct, write the inputs to DIR, exit")
    return p.parse_args(argv)


def require_source():
    """Make the checkout's `src/` importable, or stop."""
    if not os.path.isfile(os.path.join(ROOT, "src", "chanstruct", "cli.py")):
        sys.exit(f"error: no chanstruct sources under {ROOT}/src")
    sys.path.insert(0, os.path.join(ROOT, "src"))


def setup(kind: str, corpus_seed: int, directory: str) -> dict:
    """Everything that precedes the first call: import `chanstruct` and
    write the timed and the warm-up inputs as JSON."""
    import chanstruct.cli  # noqa: F401
    if kind == "walks":
        timed = inputs.write_inputs(inputs.walks("full"), directory)
        warm = inputs.write_inputs(inputs.walks("small"),
                                   os.path.join(directory, "warm"))
    else:
        timed = inputs.write_inputs(inputs.corpus_json(corpus_seed),
                                    directory)
        warm = timed
    return {"timed": timed, "warm": warm}


def measure_setup(args) -> float:
    """Median wall time of fresh processes that only do `setup`."""
    times = []
    directory = os.path.join(OUT, args.workload, "setup")
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--workload", args.workload,
                        "--corpus-seed", str(args.corpus_seed),
                        "--setup-only", directory], check=True)
        times.append(time.perf_counter() - start)
    shutil.rmtree(directory, ignore_errors=True)
    return statistics.median(times)


class Operation:
    """One `analyze` or `verify` call on one input."""

    def __init__(self, command: str, name: str, path: str, out_dir: str):
        self.command, self.name, self.path = command, name, path
        self.output = os.path.join(out_dir, f"{name}.{command}.json")
        self.exit_code = None

    def run(self, cli) -> None:
        if os.path.exists(self.output):
            os.unlink(self.output)
        try:
            # looked up on each call, so a traced pass reaches the wrapper
            self.exit_code = cli.main([self.command, self.path,
                                       "--output", self.output])
        except Exception:
            traceback.print_exc()
            self.exit_code = -1


def operations(command, paths, out_dir):
    # One fixed order: the order alone moved the corpus pass time by ~10 %
    # and the walks' peak RSS from 294 to 322 MiB.
    return [Operation(command, n, paths[n], out_dir) for n in sorted(paths)]


def run_pass(ops, cli, tracer=None) -> float:
    """Wall seconds of one pass over every operation."""
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        op.run(cli)
    return time.perf_counter() - start


class Checker:
    """Checks each output against the independent numpy reference."""

    def __init__(self, inputs_by_name: dict):
        import checker
        self.mod = checker
        self.refs = {}
        for name, path in inputs_by_name.items():
            with open(path) as fh:
                payload = json.load(fh)
            self.refs[name] = (checker.Reference(payload),
                               "transitions" in payload)
        self.schemas = {kind: checker.load_schema(ROOT, kind)
                        for kind in ("analysis", "verification")}

    def problems(self, op: Operation) -> list:
        if op.exit_code not in (0, 1) or not os.path.exists(op.output):
            return [f"exit code {op.exit_code}, no report"]
        with open(op.output) as fh:
            report = json.load(fh)
        ref, walk = self.refs[op.name]
        if op.command == "analyze":
            problems = self.mod.check_analysis(report, ref,
                                               self.schemas["analysis"])
            if op.exit_code != 0:
                problems.append(f"analyze exit code {op.exit_code}")
            return problems
        return self.mod.check_verification(report, op.exit_code, ref,
                                           self.schemas["verification"], walk)


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True

    def add(self, ops, check: Checker):
        for op in ops:
            self.attempted += 1
            problems = check.problems(op)
            if problems:
                self.failed += 1
                # an exit-0 operation with a wrong report is a wrong answer
                if op.exit_code == 0:
                    self.correct = False
                print(f"FAILED {op.command} {op.name}: "
                      + "; ".join(problems[:5]), file=sys.stderr)


def traced_metrics(ops, cli, passes, tally, check, seconds):
    """Traced passes after the untraced reference pass; per-layer medians
    over the traced passes, and the tracing overhead."""
    from tracer import Tracer
    tracers, traced = [], []
    while not traced or sum(passes + traced) < seconds:
        tracer = Tracer()
        with tracer.installed():
            traced.append(run_pass(ops, cli, tracer))
        tracers.append(tracer)
        tally.add(ops, check)
    per_pass = []
    for tracer, wall in zip(tracers, traced):
        m = tracer.layer_metrics()
        m["bench.between_s"] = wall - tracer.top_level_s()
        per_pass.append(m)
    layers = {n: statistics.median(m.get(n, 0) for m in per_pass)
              for n in sorted(set().union(*per_pass))}
    layers["trace.untraced_pass_s"] = statistics.median(passes)
    layers["trace.traced_pass_s"] = statistics.median(traced)
    layers["trace.overhead_s"] = (layers["trace.traced_pass_s"]
                                  - layers["trace.untraced_pass_s"])
    return layers, tracers


def machine() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "blas": f"{blas['name']} {blas['version']}",
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


def write_trace(path, args, layers, tracers):
    """Per-layer metrics and every span, as one JSON file."""
    spans = [[n, tracer.names[nid], op, start, end, parent]
             for n, tracer in enumerate(tracers)
             for nid, op, start, end, parent in tracer.spans]
    doc = {"workload": args.workload, "seed": args.seed,
           "corpus_seed": args.corpus_seed, "machine": machine(),
           "metrics": layers,
           "span_fields": ["pass", "name", "operation", "start_s", "end_s",
                           "parent"],
           "spans": spans}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    command, kind = WORKLOADS[args.workload]
    if args.setup_only:
        setup(kind, args.corpus_seed, args.setup_only)
        return 0

    setup_s = measure_setup(args)
    work = os.path.join(OUT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    paths = setup(kind, args.corpus_seed, os.path.join(work, "in"))
    import chanstruct.cli as cli

    run_pass(operations(command, paths["warm"], work), cli)
    ops = operations(command, paths["timed"], work)
    check = Checker(paths["timed"])
    tally = Tally()

    # a traced run makes one untraced reference pass
    passes = []
    while not passes or (not args.trace and
                         sum(passes) < args.seconds):
        passes.append(run_pass(ops, cli))
        tally.add(ops, check)

    if args.trace:
        layers, tracers = traced_metrics(ops, cli, passes, tally, check,
                                         args.seconds)
        write_trace(os.path.join(OUT, f"{args.workload}.trace.json"), args,
                    layers, tracers)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            wanted = json.load(fh)["per_layer"]
        metrics = {m["name"]: {"value": layers.get(m["name"], 0),
                               "unit": m["unit"]} for m in wanted}
    else:
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": statistics.median(passes), "unit": "s"},
            "peak_rss_mib": {"value": peak_mib, "unit": "MiB"},
        }
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    suffix = ".traced" if args.trace else ""
    with open(os.path.join(OUT, f"{args.workload}{suffix}.result.json"),
              "w") as fh:
        json.dump(dict(result, passes=passes, seed=args.seed,
                       corpus_seed=args.corpus_seed, machine=machine()),
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
