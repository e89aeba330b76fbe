#!/usr/bin/env python3
"""Benchmark of the `lrec` command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-counts

Run from the root of a checkout. The program is imported from `src/`
of that checkout, never from an installed copy; without it the run
fails with exit code 2 and prints no result.

One client in one process and thread calls `lrec.cli.main(argv)` with
stdout and stderr captured, job after job with no pause (a closed loop).
The workload's job list comes from the seed (see jobs.py) and is run in
passes until the next pass would end after `--seconds`. Every job's
output is checked against an answer computed without the engines.

`--trace 0` reports the end-to-end metrics with tracing off. Times are
scaled to a reference host speed measured between jobs (see calib.py);
the figures as measured are printed too.

    setup_s          median time, over fresh interpreters, to import
                     lrec.cli, the cost every command line pays first
    jobs_per_s       median over passes of the jobs completed per second
                     of time spent in main()
    latency_ms.p50   median over jobs of each job's median wall time
    latency_ms.tail  highest percentile of those per-job times that has
                     at least ten jobs beyond it (p90 with 110 jobs)
    peak_rss_mb      peak resident memory of this process

Jobs that fail are counted in `failed` and printed with `fail_ratio`.

`--trace 1` runs each job untraced and then traced, and reports the
per-layer metrics of the traced runs (see tracer.py): self time per
pass of each layer, counts at its boundary, and `trace.overhead_ratio`,
the traced time over the untraced one. It also compares every job's
counts with those recorded in counts.json at the seed commit and prints
each difference as a change to the paper's cost model.

`--record-counts` runs every input any seed can draw, traced, and
rewrites counts.json.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(ROOT, "corpus")
OUT = os.path.join(HERE, "out")
COUNTS = os.path.join(HERE, "counts.json")

sys.path.insert(0, HERE)
import calib  # noqa: E402
import jobs  # noqa: E402

SETUP_REPEATS = 9
CALIB_EVERY = 5    # jobs between two samples of the host's speed
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
REPORTING = ("check", "eval", "machine", "normalize")

# Record command -> count. Rule and step counts come from the CLI's own
# --report records and from the records difftest prints.
RECORD_COUNTS = {
    "normalize": "reduction.steps",
    "eval": "evaluation.rules",
    "machine": "machine.transitions",
    "difftest/normalize": "reduction.steps",
    "difftest/eval": "evaluation.rules",
    "difftest/machine": "machine.transitions",
}
# Boundary counts the tracer takes, checked against counts.json too.
TRACER_COUNTS = ("terms.subst_calls", "stdlib.catalog_lookup_calls",
                 "pcf.close_var_calls", "pcf.compiled_nodes")
RECORDED = ("reduction.steps", "minext.steps", "evaluation.rules",
            "machine.transitions")
EXACT = RECORDED + TRACER_COUNTS

# per-layer self time -> the span it sums
LAYER_TIMES = {
    "parser.lex_ms": "parser.lex",
    "parser.parse_ms": "parser.parse",
    "terms.freshen_ms": "terms.freshen",
    "terms.check_linear_ms": "terms.check_linear",
    "terms.subst_ms": "terms.subst",
    "terms.pretty_ms": "terms.pretty",
    "terms.alpha_eq_ms": "terms.alpha_eq",
    "types.infer_ms": "types.infer",
    "reduction.normalize_ms": "reduction.normalize",
    "minext.normalize_m_ms": "minext.normalize_m",
    "evaluation.force_numeral_ms": "evaluation.force_numeral",
    "evaluation.eval_report_ms": "evaluation.eval_report",
    "machine.force_numeral_ms": "machine.force_numeral",
    "machine.run_ms": "machine.run",
    "pcf.parse_ms": "pcf.parse",
    "pcf.check_ms": "pcf.check",
    "pcf.eval_ms": "pcf.eval",
    "pcf.compile_ms": "pcf.compile",
    "stdlib.catalog_lookup_ms": "stdlib.catalog_lookup",
    "gen.random_closed_ms": "gen.random_closed",
    "cli.self_ms": "cli",
}
# rate -> (work count, span whose inclusive time it is divided by)
LAYER_RATES = {
    "parser.tokens_per_s": ("parser.tokens", "parser.lex"),
    "types.nodes_per_s": ("types.nodes", "types.infer"),
    "reduction.steps_per_s": ("reduction.steps", "reduction.normalize"),
    "minext.steps_per_s": ("minext.steps", "minext.normalize_m"),
}
LAYER_COUNTS = ("terms.subst_calls", "reduction.steps", "minext.steps",
                "evaluation.rules", "machine.transitions",
                "pcf.close_var_calls", "pcf.compiled_nodes",
                "stdlib.catalog_lookup_calls")


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


# ------------------------------------------------------------ program

def load_cli():
    """Import lrec.cli from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "lrec", "cli.py")):
        raise BenchError(f"no lrec sources under {SRC}")
    sys.path.insert(0, SRC)
    import lrec.cli
    if not os.path.abspath(lrec.cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"lrec was imported from {lrec.cli.__file__}")
    return lrec.cli


_SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import lrec.cli\n"
    "took = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import calib\n"
    "speed = sorted(calib.sample() for _ in range(5))[2]\n"
    "print(took, speed)\n"
)


def measure_setup() -> tuple[float, float]:
    """Median seconds a fresh interpreter takes to import lrec.cli, as
    measured and scaled to the reference host speed.

    One unrecorded import first writes the bytecode cache, which an
    installed command line also has."""
    raw, scaled = [], []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-E", "-s", "-c", _SETUP_CODE, SRC, HERE],
            capture_output=True, text=True, timeout=120, check=True)
        if i:
            took, speed = map(float, out.stdout.split()[-2:])
            raw.append(took)
            scaled.append(took * calib.REFERENCE_S / speed)
    return statistics.median(raw), statistics.median(scaled)


def build_jobs(cli, workload: str, draw, work: str) -> list[list[jobs.Job]]:
    if workload == "frontend":
        return jobs.frontend(draw, work, CORPUS)
    if workload == "normalize":
        from lrec.minext import lin_pred
        from lrec.terms import App, numeral, pretty

        def lin_pred_text(n: int) -> str:
            path = os.path.join(work, "lin_pred_check.lrec")
            text = pretty(App(lin_pred(), numeral(n)))
            with open(path, "w") as fh:
                fh.write(text)
            rc, out, err = capture(cli.main, ["check", "--calculus", "llcim",
                                              path])
            if rc != 0 or out.strip() != "Nat":
                raise jobs.PrepError(f"lin_pred {n} does not check as Nat "
                                     f"under llcim: {out}{err}")
            return text
        return jobs.normalize(draw, work, CORPUS, lin_pred_text)
    if workload == "readback":
        def compile_pcf(src: str) -> str:
            rc, out, err = capture(cli.main, ["pcf", "compile", src])
            if rc != 0:
                raise jobs.PrepError(f"pcf compile {src} failed: {err}")
            return out
        return jobs.readback(draw, work, CORPUS, compile_pcf)
    return jobs.difftest(draw, work, CORPUS, batch_work())


def batch_work() -> dict[int, int]:
    """Rules fired and substitutions made per difftest batch seed at the
    seed commit; empty when counts.json is absent."""
    try:
        table = load_counts()
    except FileNotFoundError:
        return {}
    prefix = "difftest/batch/"
    return {int(key[len(prefix):]): sum(v or 0 for v in counts.values())
            for key, counts in table.items() if key.startswith(prefix)}


def capture(fn, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = fn(argv)
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- jobs

class Runner:
    """Runs jobs through lrec.cli.main and checks their answers."""

    def __init__(self, cli, work: str):
        self.cli = cli
        self.report = os.path.join(work, "report.jsonl")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, job: jobs.Job, tracer=None,
            report: bool = False) -> tuple[float, dict | None]:
        """Run one job; return its wall seconds and, traced, its counts.
        With `report`, commands that can write a --report record do."""
        argv = job.argv
        if report and argv[0] in REPORTING:
            argv = argv + ["--report", self.report]
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.report)
        out, err = io.StringIO(), io.StringIO()
        rc, problem = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    tracer.begin_job()
                    rc = tracer.call_root(self.cli.main, argv)
            except SystemExit as e:
                rc = e.code
            except Exception as e:  # a crash is a failed job, not a stop
                problem = f"{type(e).__name__}: {e}"
            wall = time.perf_counter() - t0
        stdout, stderr = out.getvalue(), err.getvalue()
        self.attempted += 1
        if problem is None:
            problem = self.verify(job, rc, stdout, stderr)
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{job.key}: {problem}")
        elif job.save_stdout:
            with open(job.save_stdout, "w") as fh:
                fh.write(stdout)
        counts = None
        if tracer is not None:
            counts = self.counts(job, tracer.job, stdout)
        return wall, counts

    @staticmethod
    def verify(job: jobs.Job, rc, stdout: str, stderr: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}: {stderr.strip()[-300:]}"
        if job.stdout is not None and stdout.strip() != job.stdout:
            return f"stdout {stdout.strip()[:80]!r}, expected {job.stdout!r}"
        if job.stderr_has is not None and job.stderr_has not in stderr:
            return f"stderr lacks {job.stderr_has!r}: {stderr[-300:]}"
        if job.save_stdout and not stdout.strip():
            return "empty stdout"
        return None

    def counts(self, job: jobs.Job, traced, stdout: str) -> dict:
        """The job's exact counts; None where the record says null."""
        out: dict = {k: traced[k] for k in TRACER_COUNTS if traced[k]}
        lines: list[str] = []
        if job.argv[0] in REPORTING and os.path.exists(self.report):
            with open(self.report) as fh:
                lines = fh.read().splitlines()
        elif job.argv[0] == "difftest":
            lines = [line for line in stdout.splitlines()
                     if line.startswith("{")]
        for line in lines:
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            key = RECORD_COUNTS.get(rec.get("command"))
            if key is None:
                continue
            if key == "reduction.steps" and "llcim" in job.argv:
                key = "minext.steps"
            used = rec.get("fuel_used")
            if used is None:
                out.setdefault(key, None)
            else:
                out[key] = (out.get(key) or 0) + used
        for k in ("parser.tokens", "types.nodes"):
            if traced[k]:
                out[k] = traced[k]
        return out


# ------------------------------------------------------------- metrics

def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest ladder percentile with at least ten samples beyond it
    (nearest rank): (percentile, value, samples beyond)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return 50.0, ordered[math.ceil(n / 2) - 1], n - math.ceil(n / 2)


def run_passes(runner: Runner, job_list, seconds: float):
    """Untraced passes until the next one would end after `seconds`.

    The host's speed is sampled before the first job and after every
    CALIB_EVERY jobs. Returns per pass the job times as measured and
    scaled to the reference speed by the samples around each job."""
    start = time.perf_counter()
    raw, scaled = [], []
    while True:
        t0 = time.perf_counter()
        times, samples = [], [calib.sample()]
        for i, job in enumerate(job_list):
            times.append(runner.run(job)[0])
            if (i + 1) % CALIB_EVERY == 0 or i + 1 == len(job_list):
                samples.append(calib.sample())
        raw.append(times)
        scaled.append([t * calib.REFERENCE_S / local_speed(samples, i)
                       for i, t in enumerate(times)])
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            return raw, scaled


def local_speed(samples: list[float], i: int) -> float:
    """Median of the four speed samples nearest to job i."""
    b = i // CALIB_EVERY   # job i runs between samples b and b + 1
    return statistics.median(samples[max(0, b - 1):b + 3])


def end_to_end(args, runner, job_list) -> dict:
    raw_setup, setup = measure_setup()
    failed = runner.failed
    raw, scaled = run_passes(runner, job_list, args.seconds)
    done = len(job_list) - (runner.failed - failed) / len(raw)
    per_job = [statistics.median(p[i] for p in scaled)
               for i in range(len(job_list))]
    raw_per_job = [statistics.median(p[i] for p in raw)
                   for i in range(len(job_list))]
    rates = [done / sum(p) for p in scaled]
    p, tail_s, beyond = tail(per_job)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"latency_ms.tail is p{p:g} over {len(job_list)} jobs "
          f"({beyond} beyond it); each job's time is its median over "
          f"{len(raw)} passes")
    print(f"setup_s is the median of {SETUP_REPEATS} fresh interpreters")
    print(f"as measured, before scaling to the reference host speed: "
          f"setup_s {raw_setup:.4f} s, latency_ms.p50 "
          f"{statistics.median(raw_per_job) * 1000:.3f} ms, "
          f"latency_ms.tail {tail(raw_per_job)[1] * 1000:.3f} ms")
    return {
        "setup_s": (setup, "s"),
        "jobs_per_s": (statistics.median(rates), "1/s"),
        "latency_ms.p50": (statistics.median(per_job) * 1000, "ms"),
        "latency_ms.tail": (tail_s * 1000, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(args, runner, job_list) -> dict:
    from tracer import Tracer
    tracer = Tracer()
    for name in tracer.missing:
        print(f"warning: no caller binds {name}; its layer reads 0")
    table = load_counts()
    plain, traced, layer_passes = [], [], []
    changed, unknown, unstable = set(), set(), set()
    seen: dict[str, dict] = {}
    start = time.perf_counter()
    while True:
        # each job runs untraced, then traced, so drift over the run
        # touches both sides of trace.overhead_ratio alike
        totals: dict = {}
        plain.append(0.0)
        traced.append(0.0)
        for job in job_list:
            plain[-1] += runner.run(job, report=True)[0]
            tracer.install()
            try:
                wall, counts = runner.run(job, tracer, report=True)
            finally:
                tracer.uninstall()
            traced[-1] += wall
            for k, v in tracer.job.items():
                totals[k] = totals.get(k, 0) + v
            for k in RECORDED:
                if counts.get(k) is not None:
                    totals[k] = totals.get(k, 0) + counts[k]
            changed.update(compare(job.key, counts, table, unknown))
            if seen.setdefault(job.key, counts) != counts:
                unstable.add(job.key)
        layer_passes.append(totals)
        if time.perf_counter() - start + plain[-1] + traced[-1] \
                > args.seconds:
            break
    for line in sorted(changed):
        print(f"cost-model change: {line}")
    for key in sorted(unstable):
        print(f"counts differ between passes: {key}")
    if unknown:
        print(f"{len(unknown)} jobs have no recorded counts, e.g. "
              f"{sorted(unknown)[0]}")
    write_trace(args, job_list, seen, layer_passes)

    def med(fn):
        return statistics.median(fn(t) for t in layer_passes)
    metrics = {}
    for name, span in LAYER_TIMES.items():
        metrics[name] = (med(lambda t: t.get(span + "_s", 0.0) * 1000), "ms")
    for name, (count, span) in LAYER_RATES.items():
        metrics[name] = (med(lambda t: rate(t, count, span)), "1/s")
    for name in LAYER_COUNTS:
        metrics[name] = (med(lambda t: t.get(name, 0)), "count")
    metrics["counts.changed"] = (len(changed) + len(unstable), "count")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain), "ratio")
    return metrics


def rate(totals: dict, count: str, span: str) -> float:
    seconds = totals.get(span + "_incl_s", 0.0)
    return totals.get(count, 0) / seconds if seconds else 0.0


def load_counts() -> dict:
    with open(COUNTS) as fh:
        return json.load(fh)["counts"]


def compare(key: str, counts: dict, table: dict, unknown: set) -> list[str]:
    """Differences from the seed commit's counts. null -> number is not
    a change; a count missing from either side reads 0."""
    if key not in table:
        unknown.add(key)
        return []
    old = table[key]
    out = []
    for name in EXACT:
        was, now = old.get(name, 0), counts.get(name, 0)
        if was != now and was is not None:
            out.append(f"{key} {name} {was} -> {now}")
    return out


def write_trace(args, job_list, seen, layer_passes):
    """Per-job counts and per-pass layer totals, kept for later reading."""
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"jobs": [job.key for job in job_list], "counts": seen,
                   "passes": layer_passes}, fh, indent=1, sort_keys=True)
    print(f"trace written to {os.path.relpath(path, ROOT)}")


# ---------------------------------------------------------------- main

def record_counts(cli, work: str) -> int:
    from tracer import Tracer
    tracer = Tracer()
    runner = Runner(cli, work)
    table: dict = {}
    tracer.install()
    try:
        for workload in jobs.WORKLOADS:
            sub = os.path.join(work, workload)
            os.makedirs(sub)
            for unit in build_jobs(cli, workload, jobs.every, sub):
                for job in unit:
                    table[job.key] = runner.run(job, tracer, True)[1]
            print(f"{workload}: {len(table)} jobs so far, "
                  f"{runner.failed} failed", file=sys.stderr)
    finally:
        tracer.uninstall()
    if runner.failed:
        print("\n".join(runner.failures), file=sys.stderr)
        return 1
    exact = {k: {n: v for n, v in c.items() if n in EXACT}
             for k, c in sorted(table.items())}
    lines = [f"{json.dumps(k)}: {json.dumps(c, sort_keys=True)}"
             for k, c in exact.items()]
    with open(COUNTS, "w") as fh:
        fh.write(f'{{"python": "{sys.version.split()[0]}", "counts": {{\n'
                 + ",\n".join(lines) + "\n}}\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-counts", action="store_true",
                    help="rewrite counts.json from every drawable input")
    args = ap.parse_args(argv)
    if not args.record_counts and args.workload is None:
        ap.error("--workload is required")

    try:
        cli = load_cli()
        os.makedirs(OUT, exist_ok=True)
        work = os.path.join(OUT, f"work-{os.getpid()}")
        os.makedirs(work)
    except (BenchError, ImportError, OSError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    try:
        if args.record_counts:
            return record_counts(cli, work)
        rng = random.Random(args.seed)
        units = build_jobs(cli, args.workload, jobs.strata(rng), work)
        rng.shuffle(units)
        job_list = [job for unit in units for job in unit]
        runner = Runner(cli, work)
        print(f"workload {args.workload}, seed {args.seed}: "
              f"{len(job_list)} jobs per pass")
        if args.trace:
            metrics = per_layer(args, runner, job_list)
        else:
            metrics = end_to_end(args, runner, job_list)
    except (BenchError, jobs.PrepError, OSError,
            subprocess.SubprocessError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in runner.failures:
        print(f"failed: {line}")
    fail_ratio = runner.failed / runner.attempted
    print(f"fail_ratio {fail_ratio:g} ratio ({runner.failed} of "
          f"{runner.attempted} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
