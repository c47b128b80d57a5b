"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Span, Tracer  # noqa: E402
from worker import PROBE_REF_S, SpeedProbe  # noqa: E402


def spec(name):
    if name == workloads.KNOWN_HANG.name:
        return workloads.KNOWN_HANG
    return next(s for specs in workloads.WORKLOADS.values() for s in specs if s.name == name)


def one_job(name, seed=0):
    [job] = workloads.build_jobs("zeta-singular", seed, [spec(name)])
    return job


def test_self_time_of_nested_spans():
    ticks = iter(range(100))
    t = Tracer(clock=lambda: next(ticks))
    inner = t.wrap("inner", lambda: None)
    t.wrap("outer", lambda: (inner(), inner()))()
    outer = next(s for s in t.spans if s.name == "outer")
    # outer 0..5 holds inner 1..2 and 3..4
    assert (outer.t0, outer.t1) == (0, 5)
    assert outer.self_s == 3
    assert [s.self_s for s in t.spans if s.name == "inner"] == [1, 1]


def test_self_time_counts_overlapping_children_once():
    s = Span("parent", None)
    s.t0, s.t1 = 0.0, 10.0
    s.children = [(1.0, 4.0), (2.0, 6.0), (8.0, 12.0)]  # two threads, one overrun
    assert s.self_s == 3.0


def test_pool_tasks_run_under_the_submitting_span():
    t = Tracer()
    leaf = t.wrap("leaf", lambda: None)

    def body():
        with t.pool_class()(max_workers=2) as pool:
            for f in [pool.submit(leaf) for _ in range(4)]:
                f.result()

    t.wrap("root", body)()
    root = next(s for s in t.spans if s.name == "root")
    leaves = [s for s in t.spans if s.name == "leaf"]
    assert len(leaves) == 4 and all(s.parent is root for s in leaves)
    assert len(root.children) == 4


def test_speed_probe_samples_inside_a_job_and_leaves_its_own_time_out():
    def busy():
        t_end = time.process_time() + 0.15
        while time.process_time() < t_end:
            pass
        return "done"

    probe = SpeedProbe()
    result, raw, ref = probe.measure(busy, sample=True)
    assert result == "done" and len(probe.marks) >= 4
    gaps = [(a1, b0, (a1 - a0 + b1 - b0) / 2)
            for (a0, a1), (b0, b1) in zip(probe.marks, probe.marks[1:])]
    assert raw == pytest.approx(sum(b0 - a1 for a1, b0, _ in gaps))
    assert ref == pytest.approx(sum((b0 - a1) * PROBE_REF_S / c for a1, b0, c in gaps))
    assert raw < probe.marks[-1][1] - probe.marks[0][0]
    _, _, _ = probe.measure(busy, sample=False)
    assert len(probe.marks) == 2


def test_install_rebinds_every_alias_and_reports_a_missed_one(monkeypatch):
    iosc = workloads.ensure_iosc()
    rc, ex, cli = iosc.ringcount, iosc.expsum, iosc.cli
    orig, orig_eval = rc.count_zpm, iosc.Poly.eval_poly
    t = Tracer()
    t.install()
    try:
        wrapped = rc.count_zpm
        assert wrapped is not orig
        assert ex.count_zpm is wrapped and cli.count_zpm is wrapped
        assert iosc.count_zpm is wrapped and iosc.zeta.count_zpm is wrapped
        assert iosc.Poly.eval_poly is not orig_eval
        stale = types.ModuleType("iosc._stale")
        stale.count_zpm = orig
        monkeypatch.setitem(sys.modules, "iosc._stale", stale)
        with pytest.raises(RuntimeError, match=r"iosc\._stale\.count_zpm"):
            t.verify([stale], [(orig, wrapped)])
    finally:
        t.uninstall()
    assert rc.count_zpm is orig and ex.count_zpm is orig
    assert iosc.Poly.eval_poly is orig_eval


def test_traced_job_reports_every_per_layer_metric():
    job = one_job("zeta-cusp-p3")
    t = Tracer()
    t.install()
    try:
        assert workloads.run_job(job).ok
    finally:
        t.uninstall()
    layers = t.layer_metrics()
    assert layers["ringcount.count_zpm.calls"] > 0 and layers["ringcount.tree_nodes"] > 0
    declared = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} == set(layers) | {"wall_s", "trace.overhead_s"}


def test_tampered_result_is_a_failure(monkeypatch):
    iosc = workloads.ensure_iosc()
    job = one_job("count-ff-cusp-3^5")
    assert workloads.run_job(job).ok
    real = iosc.count_ff
    monkeypatch.setattr(iosc, "count_ff", lambda *a, **k: real(*a, **k) + 1)
    out = workloads.run_job(job)
    assert not out.ok and "differs from pinned" in out.error

    cli_job = one_job("zeta-cusp-p3")
    pins = dict(workloads.PINS, **{"zeta-cusp-p3": "0" * 16})
    assert not workloads.run_job(cli_job, pins).ok


def test_threads_2_count_must_equal_the_threads_1_pin():
    assert spec("count-bilinear-p7-naive-2threads").pin == "count-bilinear-p7"


@pytest.mark.parametrize("name", ["zeta-cusp-p3", "count-ff-cusp-3^5", "circle-predict-B30"])
def test_two_seeds_give_the_pinned_result(name):
    a = one_job(name, seed=1)
    # the first later seed that relabels this job differently
    b = next(j for s in range(2, 50) if (j := one_job(name, seed=s)).inputs != a.inputs)
    out_a, out_b = workloads.run_job(a), workloads.run_job(b)
    assert out_a.ok and out_b.ok and out_a.digest == out_b.digest


def test_seed_changes_order_and_labels_of_every_workload():
    for w in workloads.WORKLOADS:
        one, two = workloads.build_jobs(w, 1), workloads.build_jobs(w, 2)
        assert [j.inputs for j in one] != [j.inputs for j in two]
        assert sorted(j.name for j in one) == sorted(j.name for j in two)


def test_a_hang_is_a_failed_job():
    out = workloads.run_job(one_job(workloads.KNOWN_HANG.name), timeout_s=1.0)
    assert not out.ok and out.error.startswith("timeout") and out.seconds < 10


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "zeta-singular",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
