"""redkit benchmark: three CLI workloads, plain or traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up runs three times in child processes (``prepare.py``); the timed part
then drives ``redkit.cli.main`` in this process as one closed-loop client,
one job after another, for ``--seconds`` seconds. Every output is checked
against brute-force references and against the first repeat's bytes.

``--trace 0`` reports the end-to-end metrics; their times are CPU seconds
scaled to the reference host speed of ``speed.py``. ``--trace 1``
alternates plain and traced jobs and reports the per-layer metrics in wall
seconds. The last line of stdout is the JSON result; the lines before it
print every metric with its unit.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import checkout

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
MIN_JOBS = 3
MIN_TRACED_JOBS = 2
# measuring may run past --seconds to reach MIN_JOBS, never past this
MAX_MEASURE_S = 90.0
SETUP_TIMEOUT_S = 60.0
# the traced run prints who calls each function called at least this often
HOT_CALLS = 1000
TUNING_SEED = 1
HELD_OUT_SEED = 7919

END_TO_END = (
    ("job_s", "s"),
    ("items_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def machine() -> dict[str, str]:
    import numpy

    return {"nproc": str(os.cpu_count()), "arch": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__}


# --------------------------------------------------------------------------
# set-up


def set_up(workload: str, seed: int, work: Path) -> tuple[Path, list[dict], list[str]]:
    """Run set-up SETUP_REPEATS times; returns the first copy, every
    repeat's timings, and problems (failed or differing set-ups)."""
    results = []
    for k in range(SETUP_REPEATS):
        out = work / f"setup{k}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(out)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            cwd=checkout.ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed:\n{proc.stderr}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if k > 0:
            shutil.rmtree(out)
    problems = []
    if len({r["digest"] for r in results}) != 1:
        problems.append("set-up is not deterministic: repeated set-ups wrote "
                        "different files")
    return work / "setup0", results, problems


def fastest_setup(setups: list[dict], phase: str) -> float:
    """The fastest repeat of a set-up phase, scaled to reference speed."""
    return min(s[phase] for s in setups)


# --------------------------------------------------------------------------
# the closed-loop client


class Session:
    """Runs one workload's job repeatedly and checks every output."""

    def __init__(self, plan: dict, setup_dir: Path, out_root: Path):
        import redkit.cli
        import workloads
        from speed import SpeedProbe

        self._cli = redkit.cli
        self._check_output = workloads.check_output
        self._tree_digest = workloads.tree_digest
        self.requests = plan["requests"]
        self.probe = SpeedProbe()
        self.out_dirs = [out_root / r["key"] for r in self.requests]
        self.argvs = [
            [r["command"], "--dataset", str(setup_dir / "data" / r["dataset"]),
             "--out", str(out), *r["args"]]
            for r, out in zip(self.requests, self.out_dirs)
        ]
        self._out_root = out_root
        self._marker = out_root / "job-start"
        out_root.mkdir(parents=True, exist_ok=True)
        self.first_digest: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.output_bytes = 0

    def run_job(self, tracer=None, scale: bool = True
                ) -> tuple[list[float], list[float] | None]:
        """Send every request of one job; returns each request's wall
        seconds and, if ``scale`` and no ``tracer``, its CPU seconds (user
        and system) scaled to reference speed by the host's slowdown near it.

        Outputs overwrite the previous job's files, and every file must be
        rewritten by every job; the session's first job, a warm-up, creates
        them (see :meth:`settle`). A new file costs far more kernel time than
        a rewrite, and how much more swings by up to ten times with the file
        system's recent history, such as the files the previous run deleted.
        Scaled jobs run the speed probe; its time is taken out of each
        request's.
        """
        self._marker.touch()
        written_after = self._marker.stat().st_mtime_ns
        scale = scale and tracer is None
        probe = self.probe
        probe.clear()
        codes = []
        latencies = []
        cpu_times = []
        intervals = []
        clock, cpu_clock = time.perf_counter, time.process_time
        main = self._cli.main
        if tracer is not None:
            timing = tracer.span("job")
        else:
            timing = probe.running() if scale else nullcontext()
        with timing:
            for request, argv in zip(self.requests, self.argvs):
                if tracer is not None:
                    tracer.request(request["command"])
                busy = probe.busy_s
                cpu = cpu_clock()
                sent = clock()
                try:
                    code = main(argv)
                except Exception:  # a crashed request is a failed request
                    code = traceback.format_exc()
                done = clock()
                busy = probe.busy_s - busy
                latencies.append(done - sent - busy)
                cpu_times.append(cpu_clock() - cpu - busy)
                intervals.append((sent, done))
                codes.append(code)
        self._check(codes, written_after)
        if not scale:
            return latencies, None
        return latencies, [cpu / probe.slowdown(start, end)
                           for cpu, (start, end) in zip(cpu_times, intervals)]

    def settle(self) -> None:
        """Write the output files to disk and wait until they are written.

        Until then a new file's blocks are not allocated, and the next job's
        rewrite of it is cheaper than every later one; settling after the
        warm-up puts every timed job in the same state.
        """
        flags = 7  # SYNC_FILE_RANGE_WAIT_BEFORE | _WRITE | _WAIT_AFTER
        sync_file_range = getattr(ctypes.CDLL(None), "sync_file_range", None)
        for path in sorted(p for p in self._out_root.rglob("*") if p.is_file()):
            fd = os.open(path, os.O_RDONLY)
            try:
                whole = ctypes.c_longlong(0)  # offset 0, length 0: to the end
                if sync_file_range is None or sync_file_range(fd, whole, whole, flags):
                    os.fsync(fd)
            finally:
                os.close(fd)

    def _check(self, codes: list, written_after: int) -> None:
        total = 0
        for request, out, code in zip(self.requests, self.out_dirs, codes):
            key = request["key"]
            self.attempted += 1
            problems = [] if code == 0 else [f"{key}: exit {code}"]
            digest, size, lines, stale = self._tree_digest(out, written_after)
            total += size
            problems += self._check_output(request, out, lines)
            if stale:
                problems.append(f"{key}: {stale} output files not rewritten")
            if self.first_digest.setdefault(key, digest) != digest:
                problems.append(f"{key}: outputs differ from the first repeat's")
            if problems:
                self.failed += 1
                self.problems += problems
        self.output_bytes = total


def _done(start: float, seconds: float, last_job_s: float, enough: bool) -> bool:
    """Stop once another job like the last would end past ``seconds``."""
    elapsed = time.perf_counter() - start
    return (elapsed + last_job_s > seconds and enough) or elapsed >= MAX_MEASURE_S


def _p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[94]


def measure_plain(session: Session, plan: dict, seconds: float,
                  setups: list[dict]) -> tuple[dict, list[str], list[str]]:
    """Jobs until ``seconds``; every request's time is scaled to reference
    speed by the host's slowdown near it.

    A request's latency is its median over the jobs, which leaves out stalls
    of one repeat, such as a write that waits for the disk; ``job_s`` is the
    sum of these medians, and the percentiles are over the distinct
    requests.
    """
    wall_jobs: list[float] = []
    jobs: list[list[float]] = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        wall, scaled = session.run_job()
        wall_jobs.append(sum(wall))
        jobs.append(scaled)
        if _done(start, seconds, time.perf_counter() - t, len(jobs) >= MIN_JOBS):
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = [statistics.median(repeats) for repeats in zip(*jobs)]
    job_s = sum(latencies)
    p95 = _p95(latencies)
    values = {
        "job_s": job_s,
        "items_per_s": plan["items"] / job_s,
        "request_p50_ms": statistics.median(latencies) * 1e3,
        "request_p95_ms": p95 * 1e3,
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": fastest_setup(setups, "setup_s"),
    }
    notes = [
        f"jobs {len(jobs)}, distinct requests {len(latencies)}, "
        f"{sum(v > p95 for v in latencies)} of them beyond p95",
        f"items per job {plan['items']}",
        "job_s per job (wall) " + " ".join(f"{w:.3f}" for w in wall_jobs),
        "job_s per job (scaled) " + " ".join(f"{sum(j):.3f}" for j in jobs),
        "setup_s per repeat (wall) "
        + " ".join(f"{s['wall_s']:.3f}" for s in setups),
        "setup_s per repeat (scaled) "
        + " ".join(f"{s['setup_s']:.3f}" for s in setups),
    ]
    return {name: (values[name], unit) for name, unit in END_TO_END}, notes, []


def measure_traced(session: Session, seconds: float,
                   setups: list[dict]) -> tuple[dict, list[str], list[str]]:
    """Alternate plain and traced jobs; per-layer metrics are per job,
    counts must agree across the traced jobs and times are medians of wall
    seconds."""
    import probes
    from tracer import Tracer

    tracer = Tracer(probes.POST_HOOKS, probes.COUNT_ONLY)
    untraced: list[float] = []
    per_job: list[dict] = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        untraced.append(sum(session.run_job(scale=False)[0]))
        tracer.calibrate()
        with tracer.installed():
            session.run_job(tracer)
        summary = tracer.summary()
        tracer.calibrate()
        per_job.append(probes.layer_metrics(summary, session.output_bytes))
        if _done(start, seconds, time.perf_counter() - t,
                 len(per_job) >= MIN_TRACED_JOBS):
            break

    problems = []
    values = {}
    for metric in probes.PER_LAYER:
        seen = [m[metric.name] for m in per_job if metric.name in m]
        if metric.exact:
            if len(set(seen)) > 1:
                problems.append(f"nondeterministic count {metric.name}: {seen}")
            values[metric.name] = seen[0]
        elif seen:
            values[metric.name] = statistics.median(seen)
    values["synth.generate_s"] = fastest_setup(setups, "generate_s")
    values["synth.reference_s"] = fastest_setup(setups, "reference_s")
    values["trace.overhead_ratio"] = values["trace.job_s"] / statistics.median(untraced)

    job_s = values["trace.job_s"]
    split = {k[:-len(".self_s")]: v for k, v in values.items() if k.endswith(".self_s")}
    split["gap"] = values["trace.gap_s"]
    split["tracer"] = values["trace.correction_s"]
    notes = [f"traced jobs {len(per_job)}, untraced jobs {len(untraced)}",
             "tracer cost per call (estimated on no-ops): {:.0f} ns to the "
             "caller ({:.0f} ns with a post hook), {:.0f} ns inside the span, "
             "{:.0f} ns per counted call".format(*(c * 1e9 for c in tracer.costs())),
             f"untraced job_s (wall) {statistics.median(untraced):.4f}; traced "
             f"job_s (wall) less the correction "
             f"{job_s - values['trace.correction_s']:.4f}"]
    notes += [f"split {k:<12} {v / job_s:7.2%} of trace.job_s"
              for k, v in sorted(split.items(), key=lambda kv: -kv[1])]
    for callee, by in sorted(summary.callers.items()):
        if sum(by.values()) >= HOT_CALLS:
            notes.append(f"calls to {callee} by caller: " + ", ".join(
                f"{k} {v}" for k, v in sorted(by.items(), key=lambda kv: -kv[1])))
    units = {m.name: m.unit for m in probes.PER_LAYER}
    return {k: (values[k], units[k]) for k in units}, notes, problems


# --------------------------------------------------------------------------
# counts across runs


def _fingerprint() -> str:
    h = hashlib.sha256()
    for root in (checkout.SRC / "redkit", HERE):
        for path in sorted(root.glob("*.py")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_counts_across_runs(workload: str, seed: int, values: dict) -> list[str]:
    """Compare this run's exact counts with an earlier run of the same code
    and seed in this checkout, or record them for the next run."""
    import probes

    exact = {m.name: values[m.name][0] for m in probes.PER_LAYER if m.exact}
    path = checkout.WORK / "counts" / f"{workload}-{seed}-{_fingerprint()}.json"
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        return [f"nondeterministic count {k} across runs: {earlier[k]} then {v}"
                for k, v in exact.items() if earlier.get(k) != v]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(exact, sort_keys=True) + "\n", encoding="utf-8")
    return []


# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk_native", "rig_requests", "mm_dense"))
    parser.add_argument("--seed", type=int, default=TUNING_SEED,
                        help=f"input seed; {TUNING_SEED} is the tuning seed, "
                             f"{HELD_OUT_SEED} is held out to confirm a claimed gain")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout.use_checkout_source()
    os.environ.pop("REDKIT_OUTPUT_DIR", None)
    print("machine " + " ".join(f"{k}={v}" for k, v in machine().items()),
          flush=True)

    work = checkout.WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_dir, setups, problems = set_up(args.workload, args.seed, work)
        plan = json.loads((setup_dir / "plan.json").read_text(encoding="utf-8"))
        session = Session(plan, setup_dir, work / "out")
        session.run_job()  # warm-up: creates the output files, checked, untimed
        session.settle()
        if args.trace:
            metrics, notes, found = measure_traced(session, args.seconds, setups)
            if not found:
                found = check_counts_across_runs(args.workload, args.seed, metrics)
        else:
            metrics, notes, found = measure_plain(
                session, plan, args.seconds, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems += found + session.problems
    notes.append(f"error_rate {session.failed / session.attempted:.6g} ratio "
                 f"({session.failed} of {session.attempted} requests failed "
                 "or gave wrong output)")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>16.6f} {unit}")
    for problem in problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
