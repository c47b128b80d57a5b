"""End-to-end benchmark of iosc; prints one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Load comes from one process in a closed
loop, one job at a time: each pass of the workload's job list runs in a
fresh interpreter (bench/worker.py) that imports iosc from src/.  Passes
repeat until S seconds of measuring have passed.  Every job's exact result
is checked against its pin, so a faster wrong answer is a failed job.

--trace 0 reports the end-to-end metrics:

- ref_wall_s: median over passes of the pass's job seconds at a reference
  machine speed (worker.SpeedProbe).  The speed of a shared machine swings
  by up to 2x within seconds, which no bound could absorb in raw time.
- setup_s: median seconds from spawning a fresh interpreter until iosc
  and iosc.cli are imported and the job list is built, at the same
  reference speed; SETUP_PER_PASS samples are taken before every pass.
- peak_rss_mb: median over passes of the pass process's peak resident
  memory.
- ok_frac: jobs with their pinned exact result / jobs attempted.

--trace 1 alternates untraced and traced passes and reports the
per-layer metrics as medians over traced passes, the raw wall_s of the
untraced passes, and trace.overhead_s, the traced minus the untraced
median ref_wall_s.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import median_metrics, unit_of  # noqa: E402
from worker import PROBE_REF_S  # noqa: E402

SETUP_PER_PASS = 2
DEADLINE_S = 170.0  # the whole run, set-up included, ends before this


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.perf_counter()
        self.njobs = len(workloads.WORKLOADS[workload])
        self.attempted = 0
        self.failed = 0
        self.setups: list[float] = []

    def left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def spawn(self, mode: str) -> tuple[float, dict | None]:
        """Run one worker; return its set-up seconds, at reference machine
        speed, and its report.

        The worker is killed when the run's deadline passes; set-up time is
        then infinite and the report None.
        """
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(max(1.0, self.left()), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline().split()
            setup = time.perf_counter() - t0
            if ready[:1] == ["ready"]:
                # the probes bracket the set-up; their own time is left out
                c0, c1 = float(ready[1]), float(ready[2])
                setup = (setup - c0 - c1) * 2 * PROBE_REF_S / (c0 + c1)
            else:
                setup = float("inf")
            out = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
        if mode == "setup" or proc.returncode != 0:
            return setup, None
        return setup, json.loads(out.splitlines()[-1])

    def measure_pass(self, mode: str) -> dict | None:
        _, report = self.spawn(mode)
        self.attempted += self.njobs
        self.failed += self.njobs if report is None else sum(
            not j["ok"] for j in report["jobs"])
        return report

    def passes(self, seconds: float, modes: list[str]) -> dict[str, list[dict]]:
        """Cycle through `modes` until `seconds` have passed and each ran once.

        Before each pass of an untraced run, SETUP_PER_PASS fresh workers
        time their set-up, so that set-up samples spread over the run.
        """
        reports: dict[str, list[dict]] = {m: [] for m in modes}
        t0 = time.perf_counter()
        i = 0
        while i < len(modes) or time.perf_counter() - t0 < seconds:
            if self.left() <= 0:
                break
            mode = modes[i % len(modes)]
            if modes == ["pass"]:
                self.setups += [self.spawn("setup")[0] for _ in range(SETUP_PER_PASS)]
            report = self.measure_pass(mode)
            if report is not None:
                reports[mode].append(report)
            i += 1
        return reports


def median_of(reports: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reports)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (workloads.SRC / "iosc" / "__init__.py").is_file():
        sys.stderr.write(f"error: no iosc package under {workloads.SRC}\n")
        return 2

    run = Run(args.workload, args.seed)
    if args.trace:
        reports = run.passes(args.seconds, ["pass", "trace"])
        if not reports["pass"] or not reports["trace"]:
            sys.stderr.write("error: no complete pass\n")
            return 1
        layers = median_metrics([r["layers"] for r in reports["trace"]])
        layers["wall_s"] = median_of(reports["pass"], "wall_s")
        layers["trace.overhead_s"] = (median_of(reports["trace"], "ref_wall_s")
                                      - median_of(reports["pass"], "ref_wall_s"))
        metrics = {k: metric(v, unit_of(k)) for k, v in layers.items()}
    else:
        done = run.passes(args.seconds, ["pass"])["pass"]
        if not done or float("inf") in run.setups:
            sys.stderr.write("error: a worker failed\n")
            return 1
        metrics = {
            "ref_wall_s": metric(median_of(done, "ref_wall_s"), "s"),
            "setup_s": metric(statistics.median(run.setups), "s"),
            "peak_rss_mb": metric(median_of(done, "peak_rss_mb"), "MB"),
            "ok_frac": metric((run.attempted - run.failed) / run.attempted, "ratio"),
        }
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
