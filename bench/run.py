"""modefisher benchmark: seeded analysis requests over an N ladder, timed from outside.

    python3 bench/run.py --workload qfi-scaling --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from the checkout's
``src/``; the run stops with an error, and prints no result, when it is
missing or when ``modefisher`` resolves anywhere else.

A run is a closed loop: one process, one op at a time.  It times set-up in
fresh processes, runs whole passes over the workload's core op list until
``--seconds`` is used up (at least two passes), and checks every answer.
Untraced, it also times a reference task between ops and scales every timed
sample to the reference host speed (see ``Reference``).  With ``--trace 0``
it then climbs the reach stage and prints the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced passes and
prints the per-layer metrics.  The last line of stdout is the result; the
line before it holds provenance and per-op details.  See bench/README.md.
"""
import os
import sys

# Fixed before numpy loads, inherited by every child, recorded with the result.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_REPEATS = 5
# Every run makes at least this many untraced passes; the tail percentile is
# the one with ten samples beyond it in a run of this many passes.
MIN_PASSES = 2
SETUP_TIMEOUT_S = 120.0
# A reach rung is one child, capped in wall time (per workload, in its Plan)
# and address space.  A dense complex matrix at N = 10^4 is 1.6 GB; the cap
# turns that into "not reached".
REACH_ADDRESS_SPACE = int(2.5 * 2 ** 30)
# A reference task does the kinds of work a modefisher op does, with no
# modefisher code.  An untraced run times one after each set-up probe, before
# the first op, and between ops at least every `every_s`.  The host's speed
# swings by up to 2x within a minute, and the reference swings with it, so
# every timed sample is scaled by a nominal time over the median of the
# `nearest` reference times nearest to it in time: timing metrics are in
# seconds on a host where the reference takes its nominal time.  Set-up
# probes and CLI ops are paced by REFERENCE_CODE, run in a fresh interpreter
# (imports, Python integer arithmetic, matrix products).  Ops that run in this
# process are paced by INLINE_REFERENCE_CODE, run in this process (sampling,
# small-array calls, small eigensolves).  The nominal times are about the
# tasks' medians on the 2-vCPU VM the benchmark was written on.
REFERENCE_CODE = """import argparse, csv, dataclasses, decimal, fractions, json, statistics, typing
import numpy as np
import numpy.linalg
x = 0
for i in range(1, 150_000):
    x = (x * 31 + i * i) % 1_000_000_007
a = np.random.default_rng(0).standard_normal((200, 200))
for _ in range(8):
    a = np.tanh(a @ a.T / 200)
"""
INLINE_REFERENCE_CODE = """import numpy as np
import numpy.linalg
rng = np.random.default_rng(1)
cdf = np.cumsum(np.full(8, 0.125))
for _ in range(60):
    np.bincount(np.searchsorted(cdf, rng.random(10_000)), minlength=9)
v = np.linspace(0.0, 1.0, 21)
for _ in range(1000):
    v = np.cos(v) * 0.5 + np.sqrt(np.abs(v)) * 0.5
h = rng.standard_normal((21, 21)) + 1j * rng.standard_normal((21, 21))
h = h + h.conj().T
for _ in range(200):
    w, _ = np.linalg.eigh(h)
    h = h + 1e-9 * np.diag(w)
"""
# (nominal s, every_s, nearest): either way the nearest runs span about 10 s
REFERENCE_PACING = (0.3, 1.5, 7)
INLINE_REFERENCE_PACING = (0.07, 0.5, 21)
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "top_rung_op_s": "s", "ok_frac": "1", "max_n_ok": "N",
                    "peak_rss_mb": "MB"}


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def import_program():
    if not (SRC / "modefisher" / "__init__.py").is_file():
        sys.exit(f"run.py: no modefisher source under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import modefisher
    where = Path(modefisher.__file__).resolve()
    if not where.is_relative_to(SRC):
        sys.exit(f"run.py: modefisher imported from {where}, outside {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("qfi-scaling", "frames-separability", "estimate-mc", "cli-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny ladders, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reach-rung", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--parent-workdir", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(args, workdir):
    """Imports, input generation and one untimed warm-up op of each kind."""
    from harness import run_op
    from workloads import WORKLOADS

    plan = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
    ops = plan.core_ops()
    # One fixed interleaving for every seed: each rung's ops are spread over
    # the pass, so a slow stretch of the host does not fall on one rung alone.
    random.Random(0).shuffle(ops)
    for op in plan.warmup():
        run_op(op)
    return plan, ops


def _self_argv(args, workdir, *extra):
    """A child run of this script, whose workdir nests in ``workdir``, so that
    removing ``workdir`` also removes what a killed child left."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--parent-workdir", str(workdir), *extra]
    return argv + ["--smoke"] if args.smoke else argv


class Reference:
    """One series of reference-task timings, and the scale they give a sample.

    ``inline`` runs the task in this process; otherwise each run is a fresh
    interpreter.
    """

    def __init__(self, workdir, inline=False):
        self.workdir = workdir
        self.inline = inline
        self.nominal_s, self.every_s, self.nearest = (
            INLINE_REFERENCE_PACING if inline else REFERENCE_PACING)
        self.samples = []  # (perf_counter() at start, seconds)
        if inline:
            exec(INLINE_REFERENCE_CODE, {})  # untimed: loads the imports

    def run(self):
        from harness import run_child

        started = perf_counter()
        if self.inline:
            exec(INLINE_REFERENCE_CODE, {})
            self.samples.append((started, perf_counter() - started))
            return
        res = run_child([sys.executable, "-c", REFERENCE_CODE], self.workdir, SETUP_TIMEOUT_S)
        if res.returncode != 0:
            raise BenchmarkError(f"reference task failed: {res.stderr.strip()[-500:]}")
        self.samples.append((started, res.seconds))

    def scale(self, started: float) -> float:
        """nominal_s over the median of the reference times nearest to `started`."""
        from harness import median

        nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - started))
        return self.nominal_s / median([s for _, s in nearest[:self.nearest]])

    def summary(self) -> dict:
        from harness import median

        times = [s for _, s in self.samples]
        return {"inline": self.inline, "samples": len(times), "median": median(times),
                "min": min(times), "max": max(times)}


def time_setup(args, workdir, reference) -> list[tuple[float, float]]:
    """(start, wall time) of set-up in fresh processes, interpreter start included.

    Each probe is followed by one reference task.
    """
    from harness import run_child

    times = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        started = perf_counter()
        res = run_child(_self_argv(args, workdir, "--setup-probe"), workdir, SETUP_TIMEOUT_S)
        if res.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {res.stderr.strip()[-500:]}")
        times.append((started, res.seconds))
        reference.run()
    return times


def reach_rung_child(args, workdir) -> dict:
    """Runs one reach rung's ops once (inside the capped child)."""
    from harness import run_pass
    from workloads import WORKLOADS

    try:
        plan = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
        results = run_pass(plan.rung_ops(args.reach_rung))
    except MemoryError:
        return {"status": "oom"}
    failed = [f"{r.name}: {r.message}" for r in results if not r.ok]
    if any("MemoryError" in r.message for r in results if not r.ok):
        return {"status": "oom", "failed": failed}
    return {"status": "failed" if failed else "ok", "failed": failed}


def climb(args, plan, workdir) -> list[dict]:
    """Reach stage: one capped child per rung, stopping at the first that is not ok."""
    from harness import run_child

    log = []
    for n in plan.reach:
        res = run_child(_self_argv(args, workdir, "--reach-rung", str(n)), workdir, plan.reach_wall_s,
                        address_space=REACH_ADDRESS_SPACE)
        if res.timed_out:
            entry = {"status": "timeout"}
        elif res.returncode != 0:
            entry = {"status": "oom" if "MemoryError" in res.stderr else "crash",
                     "stderr": res.stderr.strip()[-300:]}
        else:
            entry = json.loads(res.stdout.strip().splitlines()[-1])
        log.append({"N": n, "seconds": round(res.seconds, 3), **entry})
        if entry["status"] != "ok":
            break
    return log


def max_n_ok(plan, passes, reach_log) -> int:
    best = 0
    for n in plan.ladder:
        if not all(r.ok for results in passes for r in results if r.rung == n):
            return best
        best = n
    for entry in reach_log:
        if entry["status"] != "ok":
            break
        best = entry["N"]
    return best


def run_passes(ops, seconds, tracer=None, reference=None):
    """Whole passes while the next one fits in `seconds`, at least MIN_PASSES
    untraced; traced runs alternate untraced and traced passes.

    ``reference``, a Reference, is run before the first op and then between
    ops at least every ``reference.every_s``; traced runs pass none.
    """
    import spans
    from harness import median, run_op

    untraced, traced, summaries, all_spans = [], [], [], []
    pass_s = []
    start = perf_counter()
    last_reference = float("-inf")  # one before the first op
    while True:
        tracing = tracer is not None and len(traced) < len(untraced)
        gc.collect()
        patched = spans.install(tracer) if tracing else None
        t0 = perf_counter()
        results = []
        for op in ops:
            if reference is not None and perf_counter() - last_reference >= reference.every_s:
                reference.run()
                last_reference = perf_counter()
            results.append(run_op(op, tracer if tracing else None))
        pass_s.append(perf_counter() - t0)
        if tracing:
            spans.uninstall(patched)
            traced.append(results)
            summaries.append(tracer.summary())
            all_spans.extend(tracer.spans)
            tracer.reset()
        else:
            untraced.append(results)
        done = len(untraced) >= MIN_PASSES and (tracer is None or traced)
        if done and perf_counter() - start + median(pass_s) > seconds:
            return untraced, traced, summaries, all_spans


def end_to_end(plan, untraced, setup_times, setup_reference, op_reference, reach_log,
               peak_rss_mb):
    """Timing metrics from every op latency of every untraced pass.

    Each latency is first scaled to the reference host speed (see
    Reference).  A process on a shared host runs at one of two speeds,
    drawn afresh for each process, so the fastest of a few passes jumps
    between them from run to run; medians over all passes do not.  The tail
    is a fixed percentile: the one with ten samples beyond it in a run of
    MIN_PASSES passes, so it does not depend on how many passes fit.
    """
    from harness import median, tail

    top = plan.ladder[-1]
    first = untraced[0]
    per_op = [[results[i].seconds * op_reference.scale(results[i].started)
               for results in untraced] for i in range(len(first))]
    pooled = [s for latencies in per_op for s in latencies]
    top_pooled = [s for latencies, r in zip(per_op, first) if r.rung == top for s in latencies]
    ok = sum(r.ok for results in untraced for r in results)
    tail_s, tail_pct = tail(pooled, len(first) * MIN_PASSES)
    metrics = {
        "setup_s": median([s * setup_reference.scale(t) for t, s in setup_times]),
        "wall_s": sum(median(latencies) for latencies in per_op),
        "op_p50_s": median(pooled),
        "op_tail_s": tail_s,
        "top_rung_op_s": median(top_pooled),
        "ok_frac": ok / (len(first) * len(untraced)),
        "max_n_ok": max_n_ok(plan, untraced, reach_log),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {
        "reference_s": [setup_reference.summary()] + (
            [op_reference.summary()] if op_reference is not setup_reference else []),
        "measured_setup_s": median([s for _, s in setup_times]),
        "measured_wall_s": [round(sum(r.seconds for r in results), 4) for results in untraced],
        "passes": len(untraced),
        "ops_per_pass": len(first),
        "op_samples": len(pooled),
        "op_tail_percentile": round(tail_pct, 2),
        "top_rung_samples": len(top_pooled),
        "setup_samples": len(setup_times),
        "op_median_s": {r.name: round(median(latencies), 6)
                        for r, latencies in zip(first, per_op)},
    }
    return metrics, samples


def per_layer(untraced, traced, summaries):
    """Per-layer metrics: span counts and self time per traced pass, medians over passes."""
    import spans
    from harness import median
    from workloads import VERDICT_KINDS

    def med(get):
        return median([get(s) for s in summaries])

    metrics = {}
    for layer, names in spans.LAYER_FUNCTIONS.items():
        for name in names:
            metrics[f"{layer}.{name}.calls"] = med(lambda s: s["calls"][f"{layer}.{name}"])
            metrics[f"{layer}.{name}.self_s"] = med(lambda s: s["self_s"][f"{layer}.{name}"])
        metrics[f"{layer}.errors"] = med(lambda s: s["errors"][layer])
    everything = untraced + traced
    for key in spans.extra_metric_units():
        values = [r.health[key] for results in everything for r in results if key in r.health]
        metrics[key] = max(values) if values else 0.0
    builds = med(lambda s: s["counters"]["frames.builds"])
    metrics["frames.identity_builds"] = med(lambda s: s["counters"]["frames.identity_builds"])
    metrics["frames.useful_frac"] = ((builds - metrics["frames.identity_builds"]) / builds
                                     if builds else 0.0)
    for key in ("metrology.trials", "metrology.shots", "serialize.bytes_read"):
        metrics[key] = med(lambda s: s["counters"][key])
    metrics["separability.wrong_verdicts"] = median(
        [sum(r.kind in VERDICT_KINDS and not r.ok and not r.crashed for r in results)
         for results in everything])
    imports = [t for s in summaries for t in s["import_s"]]
    metrics["cli.import_s"] = median(imports) if imports else 0.0
    for sub in spans.CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}.wall_s"] = median(
            [sum(r.seconds for r in results if r.kind == f"cli.{sub}") for results in untraced])
    metrics["cli.tracebacks"] = median(
        [sum(r.message.startswith("traceback") for r in results) for results in untraced])
    metrics["tracing_overhead_s"] = (
        median([sum(r.seconds for r in results) for results in traced])
        - median([sum(r.seconds for r in results) for results in untraced]))
    units = spans.per_layer_metric_units()
    return {name: {"value": float(metrics[name]), "unit": units[name][0]} for name in units}


def write_spans(args, all_spans):
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        for name, start, end, parent, op in all_spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")
    return str(path.relative_to(BENCH.parent))


def measure(args, workdir):
    import spans
    from harness import provenance

    details = {"provenance": provenance(args.workload, args.seed)}
    setup_reference = None if args.trace else Reference(workdir)
    setup_times = [] if args.trace else time_setup(args, workdir, setup_reference)
    plan, ops = setup(args, workdir)
    cli = any(op.kind.startswith("cli.") for op in ops)
    op_reference = None
    if not args.trace:
        op_reference = setup_reference if cli else Reference(workdir, inline=True)
    tracer = spans.Recorder() if args.trace else None
    untraced, traced, summaries, all_spans = run_passes(
        ops, args.seconds, tracer, op_reference)
    everything = untraced + traced
    failures = {}
    for results in everything:
        for r in results:
            if not r.ok:
                failures[r.name] = {"defect": r.defect, "message": r.message}
    unexpected = sum(not r.ok and r.defect is None for results in everything for r in results)
    details["failures"] = failures
    if args.trace:
        metrics = per_layer(untraced, traced, summaries)
        details["spans_file"] = write_spans(args, all_spans)
        details["passes"] = {"untraced": len(untraced), "traced": len(traced)}
    else:
        if cli:
            peak = max(r.health.get("_peak_rss_mb", 0.0) for results in untraced for r in results)
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        core_ok = max_n_ok(plan, untraced, []) == plan.ladder[-1]
        details["reach"] = climb(args, plan, workdir) if core_ok else "skipped: core ladder failed"
        values, samples = end_to_end(plan, untraced, setup_times, setup_reference, op_reference,
                                     details["reach"] if core_ok else [], peak)
        details.update(samples)
        metrics = {name: {"value": float(v), "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}
    result = {"correct": unexpected == 0, "attempted": sum(len(r) for r in everything),
              "failed": unexpected, "metrics": metrics}
    return details, result


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    base = Path(args.parent_workdir) if args.parent_workdir else BENCH / ".work"
    workdir = base / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            setup(args, workdir)
            return 0
        if args.reach_rung is not None:
            print(json.dumps(reach_rung_child(args, workdir)))
            return 0
        details, result = measure(args, workdir)
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
