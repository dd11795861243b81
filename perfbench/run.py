"""Benchmark of the consensus-adversary package: four scenario workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its `src/`.
One run generates the workload's scenario files from the seed, sets up (the
imports, the input files and a warm-up pass over a tiny version of the
workload), then repeats passes over the workload's fixed operation list for
`--seconds`, checking every operation's outputs. All operations run in this
process, one after another.

On a shared 2-core Xeon VM the CPU ran at two speeds, about 1.5 times
apart, in phases of tens of seconds, so a run's pass times depended on the
phase it landed in. Each operation is therefore also expressed in units of a
fixed reference computation (`reference.py`) that slows down with the
machine, timed before and after each half second or so of operations.

With `--trace 0` the last stdout line reports the median over passes of the
pass time in those units (`wall_ref`) and of the pass's slowest operation
(`largest_op_ref`), the largest `tracemalloc` peak of any one operation
(taken in a pass of its own) and the median set-up time of this process and
two fresh ones. The lines before it give the raw seconds, each operation's
median time and peak, the environment and any failed operations. With
`--trace 1` it reports per-layer counts and self times from passes traced by
`tracing.py`, alternating with untraced passes to give the tracing overhead;
the spans are written to `perfbench/_out/traces/`.
"""

from __future__ import annotations

from time import perf_counter

START = perf_counter()

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "_out"
SETUP_REPEATS = 3        # this process plus two fresh ones
REFERENCE_CHUNK_S = 0.5  # operation seconds between two reference timings
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable cores; must run before numpy loads."""
    cap = NPROC
    for var in THREAD_VARS:
        if os.environ.get(var, "").isdigit() and int(os.environ[var]) > 0:
            cap = min(cap, int(os.environ[var]))
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input sizes; 'smoke' is the tiny version used by the smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit (used to repeat set-up)")
    return parser.parse_args(argv)


def environment(seed: int, threads: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": NPROC,
        "machine": platform.machine(),
        "seed": seed,
    }


def run_pass(ops, tracer=None, memory=False, timed=False):
    """Run every operation once. Returns per-operation (seconds, peak bytes,
    failure reason, reference seconds); the peak is None unless `memory`.

    With `timed`, the reference computation runs before the first operation
    and again after every REFERENCE_CHUNK_S of operations, and each operation
    gets the mean of the two reference times around its chunk; otherwise the
    reference seconds are None."""
    import reference
    records = []
    before = reference.seconds() if timed else None
    chunk, chunk_s = [], 0.0
    for index, op in enumerate(ops):
        if memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        if tracer is not None:
            tracer.op = index
        start = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, f"raised {exc!r}"
        else:
            error = None
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.op = None
        peak = tracemalloc.get_traced_memory()[1] - base if memory else None
        records.append([elapsed, peak, error or op.check(result), None])
        if timed:
            chunk.append(records[-1])
            chunk_s += elapsed
            if chunk_s >= REFERENCE_CHUNK_S or index == len(ops) - 1:
                after = reference.seconds()
                for record in chunk:
                    record[3] = 0.5 * (before + after)
                before, chunk, chunk_s = after, [], 0.0
    return records


def setup(args):
    """Generate the inputs and warm up; returns (ops, work directory)."""
    import reference
    import workloads
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    ops = workloads.generate(args.workload, args.seed, workdir / "run", args.scale)
    warm = workloads.generate(args.workload, args.seed, workdir / "warmup", "smoke")
    for op, (_, _, reason, _) in zip(warm, run_pass(warm)):
        if reason and not op.known_defect:
            raise RuntimeError(f"warm-up operation {op.name} failed: {reason}")
    reference.seconds()     # its first run allocates and is slow
    return ops, workdir


def repeat_setup(args) -> list[float]:
    """Set-up seconds of fresh processes, each running the same set-up."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--scale", args.scale,
               "--setup-only"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def timed_passes(ops, seconds, tracer=None):
    """Untraced passes (alternating with traced ones, given a tracer) until
    `seconds` have passed, at least one of each."""
    untraced, traced = [], []
    begin = perf_counter()
    while not (untraced and (tracer is None or traced)) or perf_counter() - begin < seconds:
        untraced.append(run_pass(ops, timed=True))
        if tracer is not None:
            with tracer.installed():
                traced.append(run_pass(ops, tracer, timed=True))
    return untraced, traced


def pass_seconds(passes):
    return [sum(r[0] for r in p) for p in passes]


def pass_refs(passes):
    """Pass times in reference units."""
    return [sum(r[0] / r[3] for r in p) for p in passes]


def raw_seconds(untraced) -> dict:
    """Medians over the timed passes of the raw seconds."""
    return {
        "wall_s": statistics.median(pass_seconds(untraced)),
        "largest_op_s": statistics.median(max(r[0] for r in p) for p in untraced),
        "reference_s": statistics.median(r[3] for p in untraced for r in p),
    }


def per_layer_metrics(spec, tracer, untraced, traced) -> dict:
    per_pass = [tracer.pass_metrics(i) for i in range(len(traced))]
    bench = {f"bench.{name}": v for name, v in raw_seconds(untraced).items()}
    # in reference units, converted back at the run's median reference time
    bench["trace.overhead_s"] = bench["bench.reference_s"] * (
        statistics.median(pass_refs(traced)) - statistics.median(pass_refs(untraced)))
    metrics = {}
    for m in spec["per_layer"]:
        name, unit = m["name"], m["unit"]
        if name in bench:
            value = bench[name]
        elif unit in ("s", "1/s"):
            value = statistics.median(p[name] for p in per_pass)
        else:
            values = [p[name] for p in per_pass]
            value = values[0]
            if any(v != value for v in values):
                print(f"warning: {name} differs between traced passes: {values}",
                      file=sys.stderr)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = cap_blas_threads()
    src = ROOT / "src"
    if not (src / "consensus_adversary" / "__init__.py").is_file():
        print(f"error: package source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import consensus_adversary
    if Path(consensus_adversary.__file__).resolve().parent != (src / "consensus_adversary").resolve():
        print(f"error: imported {consensus_adversary.__file__}, not the checkout's source",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    ops, workdir = setup(args)
    setup_s = perf_counter() - START
    try:
        if args.setup_only:
            print(repr(setup_s))
            return 0
        env = environment(args.seed, threads)
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            warm = run_pass(ops)    # a full warm-up pass, as the memory pass is untraced
            untraced, traced = timed_passes(ops, args.seconds, tracer)
            metrics = per_layer_metrics(spec, tracer, untraced, traced)
            tracer.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.json.gz", env)
            passes = [warm] + untraced + traced
        else:
            tracemalloc.start()
            try:
                memory = run_pass(ops, memory=True)
            finally:
                tracemalloc.stop()
            untraced, _ = timed_passes(ops, args.seconds)
            setup_runs = [setup_s] + repeat_setup(args)
            metrics = {
                "wall_ref": statistics.median(pass_refs(untraced)),
                "largest_op_ref": statistics.median(max(r[0] / r[3] for r in p)
                                                    for p in untraced),
                "peak_mem_mb": max(r[1] for r in memory) / 1e6,
                "setup_s": statistics.median(setup_runs),
            }
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            metrics = {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}
            print("seconds " + json.dumps(raw_seconds(untraced)))
            for i, op in enumerate(ops):
                print(f"operation {op.name}: median {statistics.median(p[i][0] for p in untraced):.4f} s, "
                      f"peak {memory[i][1] / 1e6:.1f} MB")
            passes = [memory] + untraced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = failed = 0
    unexpected = False
    reasons = {}
    for records in passes:
        for op, (_, _, reason, _) in zip(ops, records):
            attempted += 1
            if reason:
                failed += 1
                unexpected |= not op.known_defect
                reasons[op.name] = (reason, op.known_defect)
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"passes {len(passes)}, operations per pass {len(ops)}, "
          f"failed share {failed / attempted:.4f} ({failed}/{attempted})")
    for name, (reason, defect) in sorted(reasons.items()):
        print(f"failed {name}: {reason}" + (f" [known defect: {defect}]" if defect else ""))
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
