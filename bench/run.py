"""Benchmark for the adual command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

One closed-loop client in one process: each job calls `adual.cli.main(argv)`
in-process on files generated from the seed, and the next job starts when
the previous one returns.  A pass runs every job of the workload once; the
run repeats passes while another one fits in S seconds (at least one).
Every job's output is checked against an independent oracle.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones (medians over passes); their times are seconds at the
reference speed of `clock.py`, which takes out how fast the shared machine
happened to run.  With `--trace 1` half the time runs untraced and half
traced, and the metrics are per-layer medians over the traced passes plus
the tracing overhead, also at the reference speed.  The line before it holds
informational fields that no gate reads: the adual source line count and
whether each job's output digest matches the one recorded in
`bench/digests.json` for this seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"
SETUP_PROBES = 7

sys.path.insert(0, str(BENCH))
import clock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def load_adual():
    """Import adual from this checkout's sources, or exit 2."""
    if not (SRC / "adual" / "cli.py").is_file():
        sys.exit(f"bench: no adual sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import adual.cli

    if not Path(adual.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported adual from {adual.__file__}, not from {SRC}")
    return adual.cli


def source_lines():
    """Non-blank, non-comment lines of src/adual."""
    return sum(
        1
        for path in sorted((SRC / "adual").rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.strip().startswith("#")
    )


def make_jobs(name, seed, workdir, smoke=False):
    workdir.mkdir(parents=True)
    rng = random.Random(f"{name}:{seed}")
    return workloads.WORKLOADS[name](workdir, rng, smoke=smoke)


def clear_caches():
    """Empty adual's functools caches: each job stands for a fresh `adual` process."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "adual" or module_name.startswith("adual."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def digest(out):
    return hashlib.sha256(re.sub(r"time=\S+", "time=", out).encode()).hexdigest()[:10]


class Pass:
    """Outcomes and the summed in-CLI wall and CPU time of one pass.

    `wall` and `cpu` are raw seconds; `wall_ref` and `cpu_ref` are the same
    times at the reference speed of `clock`, when the pass ran with a sampler.
    """

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.wall_ref = self.cpu_ref = None
        self.outcomes = []  # (job name, problem or None, digest)


def run_job(cli, job, record, sampler=None):
    clear_caches()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        watch = clock.Stopwatch(sampler)
        try:
            code = cli.main(job.argv)
        except SystemExit as e:
            code = e.code
        except Exception:  # a crash fails this job; the run goes on
            code = "crash: " + traceback.format_exc().strip().splitlines()[-1]
        wall, cpu = watch.read()
        record.wall += wall
        record.cpu += cpu
    return code, out.getvalue()


def run_pass(cli, jobs, tracer=None, sampler=None):
    record = Pass()
    first_sample = len(sampler.samples) if sampler else 0
    if tracer:
        tracer.begin_pass()
    pending = list(reversed(jobs))
    while pending:
        job = pending.pop()
        if tracer:
            tracer.begin_job()
        code, text = run_job(cli, job, record, sampler)
        problem = job.check(code, text)
        record.outcomes.append((job.name, problem, digest(text)))
        if problem is None and job.then:
            pending.append(job.then(text))
    if sampler:
        wall_speed, cpu_speed = sampler.speed(first_sample)
        record.wall_ref = record.wall * wall_speed
        record.cpu_ref = record.cpu * cpu_speed
    return record


def run_passes(cli, jobs, seconds, tracer=None, sampler=None):
    """Passes until the next one would end after `seconds`; at least one."""
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass(cli, jobs, tracer, sampler))
        typical = statistics.median(p.wall for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def measure_setup(workload, seed):
    """Median time from interpreter start until a fresh process is ready to run jobs.

    Each probe (`probe.py`) samples its own speed, so its time is given at
    the reference speed of `clock`, without the time the samples took.
    """
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = WORK / f"probe-{workload}-{seed}-{i}-{time.time_ns()}"
        argv = [sys.executable, str(BENCH / "probe.py"), str(probe_dir), workload, str(seed)]
        try:
            t0 = time.perf_counter()
            with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
                if not select.select([proc.stdout], [], [], 60)[0]:
                    proc.kill()
                    sys.exit("bench: set-up probe not ready after 60 s")
                ready = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                fields = ready.split()
                if proc.wait(timeout=60) != 0 or len(fields) != 3 or fields[0] != "ready":
                    sys.exit(f"bench: set-up probe failed ({ready.strip()!r})")
            spent, speed = float(fields[1]), float(fields[2])
            times.append((elapsed - spent) * speed)
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
    return statistics.median(times)


def summarize(passes):
    outcomes = [o for p in passes for o in p.outcomes]
    failed = [(name, problem) for name, problem, _ in outcomes if problem is not None]
    for name, problem in failed[:20]:
        print(f"bench: FAILED {name}: {problem}", file=sys.stderr)
    return len(outcomes), len(failed)


def digest_report(workload, seed, passes, record=False):
    current = {name: d for name, _, d in passes[0].outcomes}
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    if record:
        table.setdefault(workload, {})[str(seed)] = current
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    recorded = table.get(workload, {}).get(str(seed))
    if recorded is None:
        return {"recorded": False}
    return {
        "recorded": True,
        "match": sum(recorded.get(name) == d for name, d in current.items()),
        "differ": sum(recorded.get(name) != d for name, d in current.items()),
    }


def smoke(cli):
    """One short job per workload, checked; no timing."""
    attempted = failed = 0
    for name in workloads.WORKLOADS:
        workdir = WORK / f"smoke-{name}-{time.time_ns()}"
        try:
            p = run_pass(cli, make_jobs(name, 0, workdir, smoke=True))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        a, f = summarize([p])
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one short job per workload")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's output digests as the reference for its seed")
    args = parser.parse_args()

    cli = load_adual()
    if args.smoke:
        return smoke(cli)
    if args.workload is None:
        parser.error("--workload is required")

    workdir = WORK / f"{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        jobs = make_jobs(args.workload, args.seed, workdir)
        measure = per_layer if args.trace else end_to_end
        passes, metrics = measure(cli, jobs, args)
        attempted, failed = summarize(passes)
        if not args.trace:
            metrics["pass_ratio"] = {"value": (attempted - failed) / attempted, "unit": "ratio"}
        info = {
            "src_lines": source_lines(),
            "pass_wall_s": [round(p.wall, 3) for p in passes],
            "pass_wall_ref_s": [round(p.wall_ref, 3) for p in passes],
            "jobs_per_pass": len(passes[0].outcomes),
            "digests": digest_report(args.workload, args.seed, passes, args.record_digests),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return None


def end_to_end(cli, jobs, args):
    setup_s = measure_setup(args.workload, args.seed)
    sampler = clock.Sampler()
    sampler.start()
    try:
        passes = run_passes(cli, jobs, args.seconds, sampler=sampler)
    finally:
        sampler.stop()
    metrics = {
        "setup_s": setup_s,
        "wall_ref_s": statistics.median(p.wall_ref for p in passes),
        "cpu_ref_s": statistics.median(p.cpu_ref for p in passes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = {"setup_s": "s", "wall_ref_s": "s", "cpu_ref_s": "s", "peak_rss_mib": "MiB"}
    return passes, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def per_layer(cli, jobs, args):
    """Untraced passes, then traced ones, each for half the time.

    Spans leave out the time speed samples took, and each traced pass's
    self times are scaled to the reference speed like its wall time.
    """
    sampler = clock.Sampler()
    tracer = tracing.Tracer(sampler.now_ns)
    sampler.start()
    try:
        plain = run_passes(cli, jobs, args.seconds / 2, sampler=sampler)
        tracer.install()
        try:
            traced = run_passes(cli, jobs, args.seconds / 2, tracer, sampler)
        finally:
            tracer.uninstall()
    finally:
        sampler.stop()
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.csv")
    per_pass = tracer.per_pass()
    for m, p in zip(per_pass, traced):
        for key in m:
            if key.endswith(".self_s"):
                m[key] *= p.wall_ref / p.wall
    metrics = tracing.median_metrics(per_pass)
    metrics["trace.overhead_s"] = statistics.median(p.wall_ref for p in traced) - statistics.median(
        p.wall_ref for p in plain
    )
    return plain + traced, {k: {"value": metrics[k], "unit": u} for k, u in tracing.metric_units().items()}


if __name__ == "__main__":
    main()
