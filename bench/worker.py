"""One benchmark worker: a fresh interpreter running one pass of a workload.

    python3 bench/worker.py --workload NAME --seed N --mode setup|pass|trace|pins

The worker imports iosc from the checkout's src/, builds the seeded job
list and prints ``ready`` with the seconds of a speed probe run before
and after that; run.py times set-up up to that line.  In
``setup`` mode it then exits.  In ``pass`` and ``trace`` mode it runs every
job once, one at a time, with tracing off or on, and prints one JSON line:
the summed seconds of its jobs, the same at reference machine speed
(SpeedProbe), its peak resident memory, each job's outcome and,
when traced, the per-layer metrics.  ``pins`` mode prints each job's result
digest without checking it, which is how PINS in workloads.py was made.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

PROBE_PERIOD_S = 0.025  # process CPU seconds between two probes in a job
PROBE_REF_S = 0.0002  # about one probe's seconds on an idle 2-core Xeon VM


def _probe_loop() -> None:
    # interpreter work on a few integers: its speed follows the machine's,
    # but not the cache state the job leaves behind
    x = 0
    for i in range(3000):
        x = (x * 31 + i) % 1000003


def probe_once() -> tuple[float, float]:
    t0 = time.perf_counter()
    _probe_loop()
    return t0, time.perf_counter()


class SpeedProbe:
    """Measures jobs in seconds at a reference machine speed.

    The speed of a shared machine swings by up to 2x within seconds, and
    iosc's job times follow it.  A short fixed loop (_probe_loop, no iosc
    code) runs at the start and end of each job and, from a SIGPROF
    timer, every PROBE_PERIOD_S of CPU time inside it.  Each stretch of
    job time between two probes is scaled by PROBE_REF_S over the mean of
    their durations; the probes' own time is left out.
    """

    def __init__(self):
        self.marks: list[tuple[float, float]] = []

    def _probe(self, *_) -> None:
        self.marks.append(probe_once())

    def measure(self, fn, sample: bool):
        """Call fn(); return its result, its raw and its reference seconds.

        Without `sample` only the two probes around the call run.  A probe
        inside a job runs on the job's main thread; with worker threads
        busy it would wait for the interpreter lock.
        """
        self.marks = []
        self._probe()
        old = signal.signal(signal.SIGPROF, self._probe)
        if sample:
            signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, old)
        self._probe()
        raw = ref = 0.0
        for (a0, a1), (b0, b1) in zip(self.marks, self.marks[1:]):
            raw += b0 - a1
            ref += (b0 - a1) * 2 * PROBE_REF_S / ((a1 - a0) + (b1 - b0))
        return result, raw, ref


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "pass", "trace", "pins"])
    args = ap.parse_args()

    a0, a1 = probe_once()
    jobs = workloads.build_jobs(args.workload, args.seed)
    b0, b1 = probe_once()
    # run.py scales set-up time by these two probes
    print(f"ready {a1 - a0!r} {b1 - b0!r}", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "pins":
        print(json.dumps({j.name: workloads.run_job(j).digest for j in jobs}, indent=1))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # In a traced pass each probe's time falls inside the open span; the
    # probes follow CPU time, so this adds about 1% to every span alike.
    probe = SpeedProbe()
    outcomes, raw, ref = [], 0.0, 0.0
    for i, job in enumerate(jobs):
        if tracer:
            tracer.job = i
        outcome, job_raw, job_ref = probe.measure(
            lambda: workloads.run_job(job), sample=job.threads == 1)
        outcomes.append(outcome)
        raw += job_raw
        ref += job_ref
    for o in outcomes:
        if not o.ok:
            sys.stderr.write(f"job {o.name} failed: {o.error}\n")
    report = {
        "wall_s": raw,
        "ref_wall_s": ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": [{"name": o.name, "ok": o.ok, "seconds": o.seconds} for o in outcomes],
    }
    if tracer:
        report["layers"] = tracer.layer_metrics()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
