"""Tests of the benchmark itself: statistics, span arithmetic, checkers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- the percentile rule ----------------------------------------------------------

def test_stream_tail_percentile_keeps_ten_samples_beyond():
    # A run measures at least one whole stream.
    p = run.STREAM_TAIL_PERCENTILE
    assert workloads.STREAM_LEN * (100 - p) / 100 >= 10


def test_percentile_interpolates_like_statistics_quantiles():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == pytest.approx(90.9)
    assert run.percentile(values, 99) == pytest.approx(99.99)


# -- host speed ---------------------------------------------------------------------

def test_references_fall_due_by_measured_time(monkeypatch):
    host = run.HostSpeed()
    monkeypatch.setattr(host, "measure",
                        lambda: host.samples.append(run.REFERENCE_S))
    host.after(5.0)                    # not started: no references
    assert host.samples == []
    host.start()
    for _ in range(25):
        host.after(run.REFERENCE_EVERY_S / 10)
    assert len(host.samples) == 2
    host.samples[:] = [run.REFERENCE_S, 3 * run.REFERENCE_S]
    # topped up to MIN_REFERENCES samples at REFERENCE_S
    n = run.MIN_REFERENCES
    assert host.slowdown() == pytest.approx((n + 2) / n)


def test_every_time_metric_is_scaled_and_nothing_else():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    power = {"s": 1, "ms": 1, "1/s": -1}
    assert run.SCALED == {m["name"]: power[m["unit"]]
                          for m in spec["end_to_end"] if m["unit"] in power}


# -- self time ----------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # a [0, 10] calls b [1, 4] and c [5, 9]; b calls a leaf d [2, 3].
    names = ["a", "b", "c", "d"]
    name_id = array("I", [0, 1, 3, 2])
    parent = array("i", [-1, 0, 1, 0])
    start = array("d", [0.0, 1.0, 2.0, 5.0])
    end = array("d", [10.0, 4.0, 3.0, 9.0])
    got = spans.self_times(names, name_id, parent, start, end)
    assert got["a"] == {"calls": 1, "self_s": 10 - 3 - 4}
    assert got["b"] == {"calls": 1, "self_s": 3 - 1}
    assert got["c"] == {"calls": 1, "self_s": 4}
    assert got["d"] == {"calls": 1, "self_s": 1}
    total = sum(v["self_s"] for v in got.values())
    assert total == pytest.approx(10.0)


def test_self_time_sums_repeated_calls():
    names = ["f", "g"]
    got = spans.self_times(names, array("I", [0, 1, 1]), array("i", [-1, 0, 0]),
                           array("d", [0.0, 0.5, 1.5]), array("d", [3.0, 1.0, 2.5]))
    assert got["f"] == {"calls": 1, "self_s": pytest.approx(1.5)}
    assert got["g"] == {"calls": 2, "self_s": pytest.approx(1.5)}


def test_tracer_wraps_every_binding_and_nests_spans(tmp_path):
    import postlie
    from postlie import grafting, verify
    originals = (postlie.left_graft, grafting.left_graft)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert postlie.left_graft is not originals[0]
        assert grafting.left_graft is not originals[1]
        assert verify.gl_product.__wrapped__ is grafting.gl_product.__wrapped__
        a = postlie.parse_lincomb("[o][o]")
        b = postlie.parse_lincomb("[o[o]]")
        out = postlie.left_graft(a, b)
        assert sum(c for _, c in out.items()) == 2 ** 2
        st = tracer.self_times()
        assert st["grafting.left_graft"]["calls"] == 1
        assert st["grafting.graft_forests"]["calls"] >= 1
        assert tracer.graft_assignments == 4
        path = tmp_path / "spans.bin"
        tracer.dump(path)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert header["spans"] == tracer.span_count
    finally:
        tracer.uninstall()
    assert (postlie.left_graft, grafting.left_graft) == originals


# -- invariant checkers --------------------------------------------------------------

def test_forest_shape_counts_roots_and_vertices():
    assert child.forest_shape("[o][o[o][o]]") == (2, 4)
    assert child.forest_shape("[a[b[a]]]") == (1, 3)


def test_coefficient_sum_identities():
    graft = {"op": "left_graft", "args": ["[o][o][a]", "[o[o]][b]"]}
    gl = {"op": "gl_product", "args": ["[o][o]", "[o]"]}
    assert child.coefficient_sum_expected(graft) == 3 ** 3
    assert child.coefficient_sum_expected(gl) == (1 + 1) ** 2
    assert child.coefficient_sum_expected({"op": "phi", "args": ["[o]"]}) is None


def pool_request(op: str) -> dict:
    pool = workloads.load_pool()
    return next(r for r in pool if r["op"] == op and r["terms"] > 1)


@pytest.mark.parametrize("op", ["left_graft", "gl_product", "rho_graft"])
def test_recorded_request_checks_out(op):
    req = pool_request(op)
    out, text = child.request_runner()(req)
    assert child.check_request(req, out, text) == []


def test_corrupted_result_is_counted_as_a_failure():
    import postlie
    req = pool_request("left_graft")
    out, text = child.request_runner()(req)
    extra = postlie.LinComb.basis(postlie.parse_forest("[o]"))
    bad = out + extra
    reasons = child.check_request(req, bad, postlie.render_lincomb(bad))
    assert reasons == ["digest", "coefficient-sum"]
    # A corrupted rendering alone is caught by the digest.
    assert child.check_request(req, out, text + " ") == ["digest"]


def test_corrupted_output_counts_as_a_failed_request(monkeypatch):
    pool = workloads.load_pool()
    light = [i for i, r in enumerate(pool) if not r["cls"].startswith("heavy:")]
    monkeypatch.setattr(workloads, "kernel_stream", lambda seed, pool: light[:12])
    real = child.request_runner()
    calls = []

    def corrupting_runner():
        def run(req):
            out, text = real(req)
            calls.append(req)
            return (out, text + "x") if len(calls) == 5 else (out, text)
        return run

    monkeypatch.setattr(child, "request_runner", corrupting_runner)
    res = child.run_stream(0, ready=lambda: 0.0)
    assert (res["attempted"], res["failed"]) == (12, 1)
    assert res["reasons"] == ["digest"]


def test_corrupted_suite_report_is_a_failure():
    report = {"ok": True, "checks": [{"name": "x", "status": "pass"},
                                     {"name": "y", "status": "pass"}]}
    assert child.suite_failures(report, ["x", "y"]) == []
    assert child.suite_failures(report, ["x"]) == ["check-names"]
    report["checks"][1]["status"] = "fail"
    report["ok"] = False
    assert child.suite_failures(report, ["x", "y"]) == ["not-ok", "check-status"]


def test_cli_call_compares_exit_code_then_output():
    assert run.cli_failures("pi", 0, "0\n", "0\n") == []
    assert run.cli_failures("pi", 0, "1\n", "0\n") == ["pi:stdout"]
    assert run.cli_failures("pi", 2, "", "0\n") == ["pi:exit-2"]


# -- inputs -------------------------------------------------------------------------

def test_stream_is_seeded_and_keeps_its_shape():
    pool = workloads.load_pool()
    a = workloads.kernel_stream(7, pool)
    assert a == workloads.kernel_stream(7, pool)
    assert a != workloads.kernel_stream(8, pool)
    prof = workloads.stream_profile(a, pool)
    assert prof["requests"] == workloads.STREAM_LEN
    assert 0.4 < prof["repeat_share"] < 0.6
    heavy = sum(pool[i]["cls"].startswith("heavy:") for i in a)
    assert heavy == sum(workloads.STREAM_HEAVY.values())


def test_cli_plan_is_seeded_and_cycles_the_subcommands():
    plan = workloads.cli_plan(3)
    assert plan == workloads.cli_plan(3)
    assert len(plan) == workloads.CLI_CALLS
    assert {c["kind"] for c in plan} == set(workloads.CLI_KINDS)


def test_every_declared_metric_is_produced():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = {name: {"calls": 0, "self_s": 0.0}
              for name in spans.public_functions().values()}
    layers["grafting.graft_forests"] = {"calls": 3, "self_s": 0.5}
    extra = {"trace.overhead_s": 0.1, "grafting.assignments_per_term": 1.0,
             "linalg.cells": 0.0, "cli.import_s": 0.01}
    for m in spec["per_layer"]:
        run.layer_metric(m["name"], layers, extra)
    assert run.layer_metric("grafting.self_s", layers, extra) == 0.5
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb",
        "setup_s"}
