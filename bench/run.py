"""equifix benchmark: closed-loop workloads with golden-checked outputs.

    python3 bench/run.py --workload {solve,probe,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
src/ directory.  One process, one caller, no worker threads: each
instance starts when the previous one has finished.  The run sets up
SETUP_REPEATS times, then repeats whole passes over the instance list
while another pass still fits in S seconds (at least one).  Every output
is checked against the instance's own checks and against the golden
recorded for its inputs.  At a recorded seed the inputs digest and
every golden must be there; at another seed an instance without a
golden is compared with the first pass of the run.  The last stdout line is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDENS = BENCH / "goldens"

WORKLOADS = ("solve", "probe", "cli")
SETUP_REPEATS = 9
IMPORT_REPEATS = 5
TAIL_SAMPLES = 10  # the tail percentile leaves at least this many instances above it

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "instance_s.p50": "s",
    "instance_s.tail": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "linalg.self_s": "s",
    "linalg.rref.calls": "count",
    "linalg.rref.ops": "ops",
    "linalg.rref.s.p2": "s",
    "linalg.rref.s.podd": "s",
    "linalg.rref.max_side": "count",
    "linalg.kernel.calls": "count",
    "linalg.intersect.calls": "count",
    "taps.self_s": "s",
    "taps.induced_matrix.calls": "count",
    "action.self_s": "s",
    "action.build_action.calls": "count",
    "action.generator_matrices.calls": "count",
    "action.apply_phi.calls": "count",
    "fixpoint.self_s": "s",
    "fixpoint.m_ell_chain.s": "s",
    "fixpoint.max_invariant_subspace.calls": "count",
    "fixpoint.extract_witness.s": "s",
    "fixpoint.lemma_chain.s": "s",
    "fixpoint.retry_frac": "ratio",
    "fixpoint.window_dim.max": "count",
    "replab.self_s": "s",
    "replab.fixed_space.calls": "count",
    "replab.dichotomy_probe.s": "s",
    "oracle.self_s": "s",
    "oracle.subspaces_enumerated": "count",
    "oracle.useful_frac": "ratio",
    "oracle.vectors_enumerated": "count",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_frac": "ratio",
}


# ----------------------------------------------------------------- set-up


def use_checkout_src() -> bool:
    """Put the checkout's src/ first on the import path; False if it is missing."""
    if not (SRC / "equifix" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def import_equifix():
    """Fresh import of the checkout's equifix (earlier imports dropped)."""
    for name in [n for n in sys.modules if n == "equifix" or n.startswith("equifix.")]:
        del sys.modules[name]
    pkg = importlib.import_module("equifix")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: equifix imported from {pkg.__file__}, not from {SRC}")
    return pkg


def build(workload: str, E, seed: int) -> list:
    if workload == "solve":
        return workloads.build_solve(E, seed)
    if workload == "probe":
        return workloads.build_probe(E, seed)
    cli = importlib.import_module("equifix.cli")
    return workloads.build_cli(E, seed, OUT, SRC, cli)


def setup(workload: str, seed: int):
    """Import, input generation and certification; returns (seconds, E, instances)."""
    start = time.perf_counter()
    E = import_equifix()
    instances = build(workload, E, seed)
    return time.perf_counter() - start, E, instances


# ------------------------------------------------------------- checking


def load_goldens(workload: str) -> dict:
    """{"seeds": {seed: inputs digest}, "outputs": {instance key: golden}}."""
    path = GOLDENS / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {"seeds": {}, "outputs": {}}


class Checker:
    """Counts every instance run whose outcome differs from the expected one.

    At a recorded seed (`strict`) every instance must have a golden: the
    inputs are drawn through build_action, so a change in what it
    certifies changes the inputs, and that is a failure, not a new
    baseline.  Elsewhere an instance without a golden is compared with
    its first run in this process."""

    def __init__(self, outputs: dict, strict: bool):
        self.outputs = outputs
        self.strict = strict
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []

    def fail(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        self.failures.append((name, problems))

    def record(self, inst, output: dict, problems: list[str]) -> None:
        self.attempted += 1
        got = workloads.output_digest(output)
        golden = self.outputs.get(inst.key)
        if golden is not None:
            if got != golden["output"]:
                problems = problems + ["output differs from the golden"]
        elif self.strict:
            problems = problems + ["no golden for these inputs at a recorded seed"]
        elif got != self.first.setdefault(inst.key, got):
            problems = problems + ["output differs from the first pass"]
        if problems:
            self.failures.append((inst.name, problems))


def make_checker(goldens: dict, seed: int, instances) -> Checker:
    """A checker for one run; at a recorded seed whose inputs digest
    changed, the changed inputs are counted as one failed check."""
    recorded = goldens["seeds"].get(str(seed))
    checker = Checker(goldens["outputs"], strict=recorded is not None)
    digest = workloads.inputs_digest(instances)
    if recorded is not None and recorded != digest:
        checker.fail("inputs", [f"inputs digest {digest}, recorded {recorded} at seed {seed}"])
    return checker


def run_instance(inst) -> tuple[dict, list[str]]:
    try:
        return inst.run()
    except Exception as exc:  # a raising instance is a counted failure, not the end of the run
        return {"raised": type(exc).__name__}, [f"raised {type(exc).__name__}: {exc}"]


def run_pass(instances, checker: Checker, tracer: spans.Tracer | None = None):
    """One closed-loop pass; returns (wall seconds, per-instance seconds)."""
    results, times = [], []
    root = tracer.open("bench", "pass") if tracer else None
    start = time.perf_counter()
    for inst in instances:
        t0 = time.perf_counter()
        span = tracer.open("bench", "instance", {"name": inst.name}) if tracer else None
        results.append(run_instance(inst))
        if tracer:
            tracer.close(span)
        times.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    if tracer:
        tracer.close(root)
    for inst, (output, problems) in zip(instances, results):
        checker.record(inst, output, problems)
    return wall, times


def timed_passes(instances, checker: Checker, budget: float, tracer=None):
    """Whole passes while another one still fits in `budget` seconds."""
    walls, times = [], []
    start = time.perf_counter()
    while True:
        wall, ts = run_pass(instances, checker, tracer)
        walls.append(wall)
        times += ts
        if time.perf_counter() - start + max(walls) > budget:
            return walls, times


# ------------------------------------------------------------- metrics


def tail_level(n_instances: int) -> int:
    """Highest whole percentile with TAIL_SAMPLES of one pass's instances above it."""
    return max(1, (100 * (n_instances - TAIL_SAMPLES)) // n_instances)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def environment() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "threads": {k: os.environ.get(k) for k in thread_vars},
    }


def subprocess_seconds(argv: list[str], env: dict) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def traced_pass(instances, checker: Checker, budget: float, tracer: spans.Tracer):
    """Untraced passes for half the budget, then exactly one traced pass,
    so that counts do not depend on speed.  Returns the trace overhead
    and each instance's median untraced time."""
    walls, times = timed_passes(instances, checker, budget / 2)
    tracer.install()
    try:
        wall, _ = run_pass(instances, checker, tracer)
    finally:
        tracer.restore()
    n = len(instances)
    return wall / statistics.median(walls) - 1.0, [statistics.median(times[i::n]) for i in range(n)]


def cli_layer_metrics(seed: int, checker: Checker, budget: float, tracer: spans.Tracer):
    """Traced cli run: the calls in process through `traced_pass`, one
    subprocess pass, and the import cost.  Returns (overhead, metrics)."""
    cli = sys.modules["equifix.cli"]
    calls = workloads.cli_calls(seed, OUT)
    inproc = [workloads.Instance(n, k, lambda c=c: c.run_in_process(cli.console_main))
              for n, k, c in calls]
    overhead, per_call = traced_pass(inproc, checker, budget, tracer)
    env = workloads.cli_env(SRC)
    sub = [workloads.Instance(n, k, lambda c=c: c.run_subprocess(env)) for n, k, c in calls]
    _, times_s = run_pass(sub, checker)
    imports, bare = [], []
    for _ in range(IMPORT_REPEATS):
        imports.append(subprocess_seconds([sys.executable, "-c", "import equifix.cli"], env))
        bare.append(subprocess_seconds([sys.executable, "-c", "pass"], env))
    return overhead, {
        "cli.import_s": statistics.median(imports) - statistics.median(bare),
        "cli.startup_s": statistics.median(s - i for s, i in zip(times_s, per_call)),
    }


def traced_run(workload: str, E, seed: int, instances, checker: Checker, budget: float):
    """Per-layer metrics of one traced set-up (without the import) and
    one traced pass."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        root = tracer.open("bench", "setup")
        build(workload, E, seed)
        tracer.close(root)
    finally:
        tracer.restore()
    if workload == "cli":
        overhead, extra = cli_layer_metrics(seed, checker, budget, tracer)
    else:
        overhead, _ = traced_pass(instances, checker, budget, tracer)
        extra = {"cli.import_s": 0.0, "cli.startup_s": 0.0}
    metrics = spans.layer_metrics(tracer)
    metrics.update(extra)
    metrics["trace.overhead_frac"] = overhead
    tracer.dump(OUT / f"spans-{workload}-seed{seed}.jsonl")
    return metrics


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not use_checkout_src():
        print(f"bench: no equifix package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, E, instances = setup(args.workload, args.seed)
        setups.append(seconds)
    goldens = load_goldens(args.workload)
    checker = make_checker(goldens, args.seed, instances)
    covered = sum(1 for i in instances if i.key in goldens["outputs"])
    env = environment()
    print(f"bench {args.workload} seed={args.seed} inputs={workloads.inputs_digest(instances)} "
          f"instances={len(instances)} goldens={covered}/{len(instances)} "
          f"recorded_seed={checker.strict}")
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        values = traced_run(args.workload, E, args.seed, instances, checker, args.seconds)
        units = PER_LAYER
        detail = {}
    else:
        walls, times = timed_passes(instances, checker, args.seconds)
        q = tail_level(len(instances))
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "instance_s.p50": statistics.median(times),
            "instance_s.tail": percentile(times, q),
            "peak_rss_mb": peak_rss_mb(children=args.workload == "cli"),
        }
        units = END_TO_END
        n = len(instances)
        detail = {"passes": len(walls), "tail_percentile": q, "tail_samples": len(times),
                  "instance_s": {inst.name: statistics.median(times[i::n])
                                 for i, inst in enumerate(instances)}}
        print(f"instance_s.tail is p{q} of {len(times)} samples over {len(walls)} pass(es)")
    failed = len(checker.failures)
    print(f"failed_frac {failed / checker.attempted:.4f} ({failed}/{checker.attempted})")
    for name, problems in checker.failures:
        print(f"FAILED {name}: {'; '.join(problems)}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    result = {"correct": failed == 0, "attempted": checker.attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, env=env,
                  setup_samples=setups, goldens_covered=covered, recorded_seed=checker.strict,
                  instances=len(instances),
                  inputs=workloads.inputs_digest(instances), failures=checker.failures,
                  failed_frac=failed / checker.attempted, **detail)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
