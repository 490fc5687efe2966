"""multibattle benchmark: one closed-loop client, one job at a time.

    python3 perfbench/run.py --workload {solve,search,play} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from ``src/``.
Each workload is a fixed list of at least 100 jobs built from the seed
(see jobs.py). A pass runs every job once, timing each call and then
checking its output; passes repeat until ``--seconds`` have elapsed.

Timings are corrected for the host's current speed. Right before each
job the benchmark times a fixed standard-library loop (``reference_loop``);
a job's latency is its median over the passes of
``job time / loop time * REF_SECONDS``, that is, seconds on a machine
where the loop takes REF_SECONDS. On the shared 2-vCPU host the baseline
was recorded on, the same pass took anywhere from 1.7 to 3.4 s and the
loop alone from 0.55 to 1.35 ms. Over ten seeds per workload, the
quartile distance over the median of the raw pass time was 0.14 (solve),
0.22 (search) and 0.32 (play); of the corrected ``wall_s`` it was 0.05,
0.013 and 0.021. The raw figures are printed on the summary line.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, the sum of the
job latencies (one pass); ``job_p50_ms`` and ``job_p90_ms`` over them
(one sample per job); ``setup_s``, the median over fresh interpreter
launches, two after each pass, of the time until the package is
imported and the job list built (not corrected: one loop timed in
the launched interpreter proved noisier than the launch itself); and
``peak_rss_mb``, this process's peak resident memory.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (see tracing.py); the last traced pass's spans are
written to ``.perfbench_out/spans-<workload>.csv.gz``.

Failed jobs are counted, never raised. Every job's summary, and in a
traced run every count, must repeat exactly from pass to pass; if not,
the run is marked incorrect. The last stdout line is the JSON result;
the exit code is 0 only when every check held.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle
from pathlib import Path
from types import SimpleNamespace

from jobs import WORKLOADS, make_jobs
from tracing import Tracer, per_layer_metrics, summarize

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
REF_ITERATIONS = 300
REF_SECONDS = 0.6e-3  # about the loop's fastest time on the baseline host
SETUP_LAUNCHES_PER_PASS = 2
MIN_PLAIN_PASSES = 3
MIN_TRACED_PASSES = 2


def load_package():
    src = ROOT / "src"
    if not (src / "multibattle" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {src / 'multibattle'}; run from a multibattle checkout")
    sys.path.insert(0, str(src))
    from multibattle import cli, core, matrices, oracle, simulate, strategy

    return SimpleNamespace(cli=cli, core=core, matrices=matrices, oracle=oracle,
                           simulate=simulate, strategy=strategy)


def reference_loop() -> float:
    """Seconds for a fixed loop of dict inserts with tuple keys and Fraction values.

    It uses only the standard library, so no change to the package moves it.
    The collector is off so that what the program left on the heap does not
    change its cost.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(REF_ITERATIONS):
            table[(i, i & 7)] = Fraction(i, 7) + 1
        return time.perf_counter() - t0
    finally:
        gc.enable()


@dataclass
class Pass:
    raw: list          # seconds per job
    corrected: list    # seconds per job at reference speed
    summaries: list
    failures: list
    layers: tuple | None = None  # (times, counts) of a traced pass


def run_pass(jobs, tracer=None) -> Pass:
    gc.collect()
    done = Pass([], [], [], [])
    for k, job in enumerate(jobs):
        ref = reference_loop()
        raised = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = job.call()
            else:
                tracer.job_id = k
                out = tracer.span("bench.job", job.call)
        except Exception as exc:  # a failing job is counted, not fatal
            raised = exc
        dt = time.perf_counter() - t0
        done.raw.append(dt)
        done.corrected.append(dt / ref * REF_SECONDS)
        if raised is not None:
            done.failures.append(f"{job.name}: raised {raised!r}")
            done.summaries.append(("raised", type(raised).__name__))
            continue
        if tracer is not None:
            tracer.recording = False
        try:
            done.summaries.append(job.check(out))
        except Exception as exc:
            done.failures.append(f"{job.name}: {exc!r}")
            done.summaries.append(("wrong", type(exc).__name__))
        finally:
            if tracer is not None:
                tracer.recording = True
        out = None  # so that peak memory does not depend on which job ran before
    return done


def per_job_median(passes, field) -> list:
    return [statistics.median(getattr(p, field)[k] for p in passes) for k in range(len(passes[0].raw))]


def setup_launch(args) -> float:
    """Seconds from launching a fresh interpreter until it has imported the package and built the jobs.

    The child reports the moment it is done on the system-wide monotonic
    clock, so interpreter shutdown and the wait for its exit are not counted.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(cmd, cwd=ROOT, check=True, timeout=60, capture_output=True, text=True).stdout
    return float(done) - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    mb = load_package()
    jobs = make_jobs(mb, args.workload, args.seed, OUT)
    if args.setup_only:
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0
    OUT.mkdir(exist_ok=True)

    setup = []
    if not args.trace:
        setup_launch(args)  # untimed: the first launch may still be writing bytecode caches
    tracer = Tracer(mb) if args.trace else None
    kinds = cycle(["plain", "traced"] if args.trace else ["plain"])
    want = {"plain": 1 if args.trace else MIN_PLAIN_PASSES, "traced": MIN_TRACED_PASSES if args.trace else 0}
    passes = {"plain": [], "traced": []}
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or any(len(passes[k]) < n for k, n in want.items()):
        kind = next(kinds)
        if kind == "plain":
            passes["plain"].append(run_pass(jobs))
            if not args.trace:  # spread the launches over the run, like the passes
                setup += [setup_launch(args) for _ in range(SETUP_LAUNCHES_PER_PASS)]
        else:
            tracer.reset()
            with tracer:
                done = run_pass(jobs, tracer)
            done.layers = summarize(tracer.spans, tracer.counts, [c / r for c, r in zip(done.corrected, done.raw)])
            passes["traced"].append(done)

    ran = passes["plain"] + passes["traced"]
    attempted = sum(len(p.raw) for p in ran)
    failures = [f for p in ran for f in p.failures]
    problems = []
    if any(p.summaries != ran[0].summaries for p in ran[1:]):
        problems.append("job summaries differ between passes at one seed")
    lat = per_job_median(passes["plain"], "corrected")
    raw_wall = sum(per_job_median(passes["plain"], "raw"))

    if args.trace:
        counts = [p.layers[1] for p in passes["traced"]]
        diff = sorted({k for c in counts[1:] for k in c.keys() | counts[0].keys() if c.get(k) != counts[0].get(k)})
        if diff:
            problems.append(f"per-layer counts differ between passes at one seed: {diff}")
        overhead = sum(per_job_median(passes["traced"], "corrected")) / sum(lat) - 1
        metrics = per_layer_metrics([p.layers for p in passes["traced"]], overhead)
        spans_path = OUT / f"spans-{args.workload}.csv.gz"
        tracer.write(spans_path)
        note = f"spans={len(tracer.spans)} written to {spans_path.relative_to(ROOT)}"
    else:
        metrics = {
            "wall_s": (sum(lat), "s"),
            "job_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "job_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        note = f"latency samples={len(lat)} (one per job)"

    for line in failures[:20] + problems:
        print(f"perfbench: {line}", file=sys.stderr)
    correct = not failures and not problems
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} jobs/pass={len(jobs)} "
          f"passes={len(passes['plain'])}+{len(passes['traced'])}traced attempted={attempted} "
          f"failed={len(failures)} fail_frac={len(failures) / attempted:.4f} {note} "
          f"raw_wall_s={raw_wall:.4f} raw_pass_s={[round(sum(p.raw), 3) for p in ran]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
