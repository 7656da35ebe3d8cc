"""poisset benchmark: four workloads, each a closed loop with one client.

One job runs at a time and the next starts only when it returns.  In
``solve``, ``verify`` and ``structure`` a job is one call into poisset's
public API; in ``cli`` it is one ``python -m poisset.cli`` process.  Inputs
are built from the seed during set-up.  A run cycles through the corpus,
in a seeded order, until ``--seconds`` have gone by; each job's latency
is its median over the run, scaled to a reference machine speed (see
speed.py).  Garbage is collected between jobs, outside the timed window.
Every job's outcome is checked against an answer the benchmark derives
itself.

Run from the repository root:

    python3 bench/run.py --workload solve --seed 1 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload, one table
    python3 bench/run.py --repeat 10 --seed 1 --out a.json  # median and IQR over seeds
    python3 bench/run.py --compare parent.json change.json  # verdict per metric

The last line of a single run is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  Run metadata goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve", "verify", "structure", "cli")
SETUP_REPEATS = 7
STARTUP_REPEATS = 5
JOB_TIMEOUT_S = 45  # in-process jobs; cli children have their own limit
# spans divided by a job tag: classify's ring, a verified table's sigma
SPLITS = {"solver.build_system": "ring", "bracket.check_biderivation": "sigma"}


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_TIMEOUT_S} s")


@dataclass
class Window:
    """What one timed stretch of passes over the corpus measured."""

    samples: list = field(default_factory=list)  # per job of the pass: scaled latencies
    raw: list = field(default_factory=list)  # the same, unscaled wall times
    errors: list = field(default_factory=list)
    walls: dict = field(default_factory=dict)  # job id -> (seconds, tags)
    passes: int = 0
    mismatched_exits: int = 0

    @property
    def attempted(self) -> int:
        return sum(len(s) for s in self.samples)

    def job_medians(self, raw: bool = False) -> list[float]:
        """Each job's median latency over the passes, which drops the
        calls a short burst of load on the machine slowed."""
        return [statistics.median(s) for s in (self.raw if raw else self.samples) if s]

    def jobs_per_s(self, raw: bool = False) -> float:
        medians = self.job_medians(raw)
        return len(medians) / sum(medians)


def run_passes(jobs, seconds: float, tracer=None, whole: bool = False) -> Window:
    """Cycle through jobs until ``seconds`` of wall time have passed and
    every job has run at least once.  Each job's latency is its median
    over its runs, so a last, partial pass biases nothing; a traced run
    stops on a pass boundary (``whole``) so that its totals are per pass.
    A hard limit stops a badly slowed program within the run's budget."""
    window = Window(samples=[[] for _ in jobs], raw=[[] for _ in jobs])
    before = speed.measure()
    start = perf_counter()
    hard_limit = seconds + 40
    job_id = 0
    while True:
        for position, job in enumerate(jobs):
            elapsed = perf_counter() - start
            done = window.passes and elapsed >= seconds and (position == 0 or not whole)
            if done or elapsed > hard_limit:
                if elapsed > hard_limit:
                    window.errors.append("hard time limit reached mid-pass")
                return window
            gc.collect()
            if tracer is not None:
                tracer.job = job_id
            signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
            t0 = perf_counter()
            try:
                outcome = job.call()
            except Exception as exc:  # the check decides whether it was expected
                outcome = exc
            finally:
                elapsed = perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
                if tracer is not None:
                    tracer.job = None
            after = speed.measure()
            window.samples[position].append(speed.scaled(elapsed, before, after))
            window.raw[position].append(elapsed)
            before = after
            window.walls[job_id] = (elapsed, job.tags)
            job_id += 1
            try:
                error = job.check(outcome)
            except Exception as exc:  # a broken reference is a failure too
                error = f"check raised {type(exc).__name__}: {exc}"
            if error:
                window.errors.append(f"{job.name}: {error}")
            if "code" in job.tags and not isinstance(outcome, Exception) and outcome[0] != job.tags["code"]:
                window.mismatched_exits += 1
        window.passes += 1


def _median_ms(argv: list[str], repeats: int) -> float:
    from workloads import cli_env

    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(argv, env=cli_env(), check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1000


def set_up(builder, seed: int, workdir: str):
    """Interpreter start plus ``import poisset`` in a fresh process, then
    building the inputs; done several times and the median reported, at
    reference speed like the job times."""
    from workloads import cli_env

    times = []
    for _ in range(SETUP_REPEATS):
        before = speed.measure()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import poisset"], env=cli_env(), check=True, timeout=60)
        jobs = builder(seed, workdir)
        times.append(speed.scaled(perf_counter() - t0, before, speed.measure()))
    return statistics.median(times), jobs


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(window: Window, setup_s: float, workload: str) -> dict:
    medians = window.job_medians()
    return {
        "jobs_per_s": window.jobs_per_s(),
        "job_p50_ms": statistics.median(medians) * 1000,
        "job_p90_ms": statistics.quantiles(medians, n=10)[8] * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(workload),
    }


def traced_layers(jobs, seconds: float) -> tuple[dict, list[Window]]:
    """Half the run untraced, half traced; per-layer numbers per pass."""
    from spans import Tracer, summarize

    base = run_passes(jobs, seconds / 2)
    tracer = Tracer()
    with tracer.installed():
        traced = run_passes(jobs, seconds / 2, tracer, whole=True)
    layers, ratio = summarize(tracer, traced.walls, traced.passes, SPLITS)
    layers["trace.overhead_frac"] = 1 - traced.jobs_per_s() / base.jobs_per_s()
    layers["trace.self_over_wall_max"] = ratio
    if ratio > 1 + 1e-9:
        traced.errors.append(f"self time exceeds job wall time ({ratio:.6f})")
    return layers, [base, traced]


def traced_cli(jobs, seconds: float, workdir: str) -> tuple[dict, list[Window]]:
    """Processes cannot be traced from here, so the cli trace has three
    parts: bare interpreter and import times, one untraced pass of child
    processes, and cli.main run in this process, untraced then traced."""
    from workloads import Job, run_cli_in_process

    interpreter = _median_ms([sys.executable, "-c", "pass"], STARTUP_REPEATS)
    imported = _median_ms([sys.executable, "-c", "import poisset.cli"], STARTUP_REPEATS)
    children = run_passes(jobs, 0)
    in_process = [
        Job(job.name, lambda argv=job.tags["argv"]: run_cli_in_process(argv, workdir), job.check, job.tags)
        for job in jobs
    ]
    run_passes(in_process, 0)  # warm-up, so the untraced half is not the colder one
    layers, windows = traced_layers(in_process, seconds / 2)
    mean_ms = statistics.mean(children.job_medians(raw=True)) * 1000
    layers["cli.interpreter_ms"] = interpreter
    layers["cli.import_ms"] = imported - interpreter
    layers["cli.startup_share"] = imported / mean_ms
    layers["cli.exit_mismatch"] = children.mismatched_exits
    return layers, [children, *windows]


def run_probes(probes) -> tuple[int, list[str]]:
    """Known defects: run once, outside the timed window, reported apart."""
    notes = []
    mismatched = 0
    for job in probes:
        try:
            code, _ = job.call()
        except subprocess.TimeoutExpired:
            code = "timeout"
        if code != job.tags["code"]:
            mismatched += 1
            notes.append(f"{job.tags['probe']}: exit {code}, expected {job.tags['code']}")
    return mismatched, notes


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def single(args) -> int:
    if not (ROOT / "src" / "poisset" / "__init__.py").is_file():
        print(f"bench: no poisset sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    spec = load_spec()
    meta = metadata(args)
    signal.signal(signal.SIGALRM, _alarm)
    workdir = str(ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}")
    try:
        setup_s, jobs = set_up(workloads.BUILDERS[args.workload], args.seed, workdir)
        probes = [job for job in jobs if "probe" in job.tags]
        jobs = [job for job in jobs if "probe" not in job.tags]
        random.Random(args.seed).shuffle(jobs)
        if not args.trace:
            windows = [run_passes(jobs, args.seconds)]
            values = end_to_end(windows[0], setup_s, args.workload)
        elif args.workload == "cli":
            values, windows = traced_cli(jobs, args.seconds, workdir)
        else:
            values, windows = traced_layers(jobs, args.seconds)
        mismatched, notes = run_probes(probes)
        if args.trace:
            values["cli.exit_mismatch"] = values.get("cli.exit_mismatch", 0) + mismatched
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in spec[kind]
    }
    errors = [e for w in windows for e in w.errors]
    attempted = sum(w.attempted for w in windows)
    medians = windows[0].job_medians()
    p90 = statistics.quantiles(medians, n=10)[8]
    meta.update(
        loadavg_end=list(os.getloadavg()),
        passes=[w.passes for w in windows],
        jobs_per_pass=len(medians),
        samples=windows[0].attempted,
        jobs_beyond_p90=sum(1 for x in medians if x > p90),
        raw_jobs_per_s=windows[0].jobs_per_s(raw=True),
        failed_frac=f"{len(errors)}/{attempted}",
        known_defects=notes,
        errors=errors[:20],
    )
    print("meta " + json.dumps(meta), file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": len(errors), "metrics": metrics}
    print(json.dumps(result))
    return 0


# -- several runs -----------------------------------------------------------------


def child_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    load = os.getloadavg()[0]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"bench: {workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["loadavg"] = [load, os.getloadavg()[0]]
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(args) -> int:
    spec = load_spec()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = args.repeat or 1
    record = {"meta": metadata(args), "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in names:
        results = [child_run(workload, args.seed + k, args.seconds, args.trace) for k in range(runs)]
        record["workloads"][workload] = results
        print(f"\n{workload}: {runs} run(s), seeds {args.seed}..{args.seed + runs - 1}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}  unit")
        kind = "per_layer" if args.trace else "end_to_end"
        for m in spec[kind]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {m['name']:34} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f}  {m['unit']}")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"  {'failed_frac':34} {failed / attempted:12.4f}  ratio  ({failed} of {attempted} jobs)")
    record["meta"]["loadavg_end"] = list(os.getloadavg())
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    return 0


def compare(path_a: str, path_b: str) -> int:
    """Verdict per workload and end-to-end metric, parent a against change b:
    win when b wins at least 9 in 10 pairs and the medians differ by more
    than a's interquartile range; unresolved when the spread exceeds the
    bound, unless every run of b beats every run of a; regression when b's
    median is worse by more than the bound; otherwise no change."""
    spec = load_spec()
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    print(f"{'workload':10} {'metric':14} {'a median':>11} {'a q1..q3':>23} {'b median':>11} {'b q1..q3':>23} {'b/a':>7}  verdict")
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a["workloads"][workload]]
            vb = [r["metrics"][m["name"]]["value"] for r in b["workloads"][workload]]
            a1, am, a3 = quartiles(va)
            b1, bm, b3 = quartiles(vb)
            sign = 1 if m["better"] == "higher" else -1
            pairs = list(zip(va, vb))
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            spread = max((a3 - a1) / am if am else 0, (b3 - b1) / bm if bm else 0)
            worse = -sign * (bm - am) / am if am else 0.0
            if wins >= 0.9 * len(pairs) and sign * (bm - am) > a3 - a1:
                verdict = "win"
            elif spread > m["bound"] and not min(sign * y for y in vb) > max(sign * x for x in va):
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "regression"
            else:
                verdict = "no-change"
            ratio = bm / am if am else float("nan")
            print(
                f"{workload:10} {m['name']:14} {am:11.4f} {a1:11.4f}..{a3:<11.4f} "
                f"{bm:11.4f} {b1:11.4f}..{b3:<11.4f} {ratio:7.3f}  {verdict} ({wins}/{len(pairs)} pairs won)"
            )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, help="runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("--out", help="write the runs of --repeat or --workload all here")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"), help="two --out files")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.compare:
        return compare(*args.compare)
    if args.repeat or args.workload == "all":
        return repeat(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
