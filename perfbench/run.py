"""The postlie benchmark: three workloads, checked outputs, per-layer traces.

    python3 perfbench/run.py --workload suite-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Every measured process is a fresh
``python3`` started here, one at a time, as a single closed-loop client.
With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs the workload once untraced and once traced and prints the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Full results, the inputs that ran and the span
files go to ``.perfbench_out/`` in the checkout.  See ``README.md`` here
for why each workload exists and what each metric is meant to move.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

WORKLOADS = ("suite-sweep", "kernel-stream", "cli-calls")
MIN_SETUP_SAMPLES = 9
# Set-up-only processes spread through the run, so that setup_s samples
# the whole run and not only its end: after each stream, and every this
# many CLI calls.
STREAM_SETUP_PROBES = 2
CLI_CALLS_PER_PROBE = 20
NO_WAIT_NOTE = ("wait time: none recorded -- postlie neither queues work nor "
                "runs anything in parallel, so every span is busy time")


# -- statistics -------------------------------------------------------------------

# Tail percentile of the stream's request times, fixed so that two commits
# are always compared on the same percentile.  The suite sweep reports its
# slowest suite and the CLI calls their slowest subcommand instead.
STREAM_TAIL_PERCENTILE = 99


def percentile(values: list[float], p: int) -> float:
    """``p``-th percentile, as ``statistics.quantiles`` interpolates it."""
    return statistics.quantiles(values, n=100)[p - 1]


# -- host speed -------------------------------------------------------------------

# The host's CPUs change speed: a fixed loop takes 7-12 ms by the stretch,
# and the share of slow stretches drifts over minutes, so the same work
# timed a few minutes apart differs by 15% and more (README.md,
# "Steadiness").  A timed run therefore also runs a fixed reference
# process, ``reference.py``, which imports no postlie code, after every
# REFERENCE_EVERY_S of measured process time.  Its time metrics are scaled
# to the host speed at which the reference work takes REFERENCE_S.
REFERENCE_EVERY_S = 0.5
REFERENCE_S = 0.1
MIN_REFERENCES = 9


class HostSpeed:
    """Reference timings through one run, spread by measured time."""

    def __init__(self):
        self.enabled = False
        self.samples: list[float] = []
        self.owed_s = 0.0

    def start(self) -> None:
        self.enabled = True
        self.samples.clear()
        self.owed_s = 0.0

    def after(self, busy_s: float) -> None:
        """Count one measured process; run the references now due."""
        if not self.enabled:
            return
        self.owed_s += busy_s
        while self.owed_s >= REFERENCE_EVERY_S:
            self.owed_s -= REFERENCE_EVERY_S
            self.measure()

    def measure(self) -> None:
        res = spawn([sys.executable, "-I", str(HERE / "reference.py")],
                    measured=False)
        if res["code"] != 0:
            raise ChildFailed(f"reference exited {res['code']}:\n"
                              f"{res['stderr'][-2000:]}")
        self.samples.append(float(res["stdout"]))

    def slowdown(self) -> float:
        """The run's mean reference time over REFERENCE_S."""
        while len(self.samples) < MIN_REFERENCES:
            self.measure()
        return statistics.fmean(self.samples) / REFERENCE_S


HOST = HostSpeed()


# -- processes --------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], measured: bool = True) -> dict:
    """Run one process to completion; time it from just before the spawn.

    Reaped with ``wait4`` so its own peak RSS is known.  Standard error
    goes to an unnamed file inside the checkout.  A measured process
    counts towards the next reference process.
    """
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    if measured:
        HOST.after(elapsed)
    return {"code": proc.returncode, "stdout": out.decode(errors="replace"),
            "stderr": stderr, "elapsed_s": elapsed, "t0": t0,
            "maxrss_mb": usage.ru_maxrss / 1024}


def run_child(mode: str, *args, trace: Path | None = None) -> dict:
    """Run ``child.py`` and return its JSON result plus process facts."""
    argv = [sys.executable, str(HERE / "child.py"),
            "--spawn", "%.9f" % time.monotonic()]
    if trace is not None:
        argv += ["--trace", str(trace)]
    res = spawn(argv + [mode, *map(str, args)])
    if res["code"] != 0:
        raise ChildFailed(f"child {mode} {args} exited {res['code']}:\n"
                          f"{res['stderr'][-2000:]}")
    out = json.loads(res["stdout"].strip().splitlines()[-1])
    out["maxrss_mb"] = res["maxrss_mb"]
    out["elapsed_s"] = res["elapsed_s"]
    return out


class ChildFailed(RuntimeError):
    pass


# -- one run of a workload ------------------------------------------------------------

class Run:
    """Samples of one benchmark run, folded into metrics at the end."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.setups: list[float] = []
        self.rss: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}
        self.inputs: dict = {}

    def absorb(self, res: dict, attempted: int = 1, failed: int = 0,
               reasons=()) -> None:
        """Count one measured process: its set-up, peak RSS and outcome."""
        self.setups.append(res["setup_s"])
        self.rss.append(res["maxrss_mb"])
        self.attempted += attempted
        self.failed += failed
        for r in reasons:
            self.reasons[r] = self.reasons.get(r, 0) + 1

    def probe_setup(self) -> None:
        """One set-up-only process: import and input preparation."""
        self.setups.append(run_child("setup", self.workload,
                                     self.seed)["setup_s"])

    def top_up_setup(self) -> None:
        while len(self.setups) < MIN_SETUP_SAMPLES:
            self.probe_setup()


def another(t0: float, seconds: float, expected_s: float) -> bool:
    """Start one more unit only if it should end by the deadline, give or
    take half of it, so a run lasts about ``seconds`` on average."""
    return time.monotonic() - t0 + expected_s / 2 < seconds


def suite_unit(run: Run, name: str, degree: int, alphabet: str,
               trace: Path | None = None) -> dict:
    res = run_child("suite", name, degree, alphabet, trace=trace)
    key = workloads.suite_key(name, degree, alphabet)
    run.absorb(res, failed=res["failed"],
               reasons=[f"{key}:{r}" for r in res["reasons"]])
    return res


def measure_sweep(run: Run) -> dict:
    """Cycle the seeded suite order: one whole pass, then until time is up."""
    plan = workloads.sweep_plan(run.workload, run.seed)
    run.inputs = {"suites": [list(p) for p in plan]}
    samples: dict[str, list[float]] = {}
    t0 = time.monotonic()
    for i in itertools.count():
        name, degree, alphabet = plan[i % len(plan)]
        key = workloads.suite_key(name, degree, alphabet)
        if i >= len(plan) and not another(t0, run.seconds,
                                          statistics.median(samples[key])):
            break
        res = suite_unit(run, name, degree, alphabet)
        samples.setdefault(key, []).append(res["wall_s"])
    run.inputs["suite_runs"] = {k: len(v) for k, v in samples.items()}
    means = {k: statistics.fmean(v) for k, v in samples.items()}
    slowest = max(means, key=means.get)
    return per_op_metrics(list(means.values()), "suite",
                          (means[slowest] * 1000, f"slowest suite, {slowest}"))


def stream_unit(run: Run, trace: Path | None = None) -> dict:
    res = run_child("stream", run.seed, trace=trace)
    run.absorb(res, attempted=res["attempted"], failed=res["failed"],
               reasons=res["reasons"])
    run.inputs = res["profile"]
    return res


def measure_stream(run: Run) -> dict:
    """Whole streams, each in a fresh process, until time is up.

    Every stream of a run is the same seeded stream on cold memos, so
    request ``i`` is the same work in each.
    """
    streams: list[list[float]] = []
    spans_s: list[float] = []
    t0 = time.monotonic()
    while not streams or another(t0, run.seconds, statistics.median(spans_s)):
        u0 = time.monotonic()
        streams.append(stream_unit(run)["latencies_ms"])
        for _ in range(STREAM_SETUP_PROBES):
            run.probe_setup()
        spans_s.append(time.monotonic() - u0)
    run.inputs["streams"] = len(streams)
    ms = [statistics.fmean(x) for x in zip(*streams)]
    p = STREAM_TAIL_PERCENTILE
    return per_op_metrics([t / 1000 for t in ms], "request",
                          (percentile(ms, p), f"p{p} of {len(ms)} request means"))


def cli_failures(kind: str, code: int, stdout: str, expected: str) -> list[str]:
    """Reasons a CLI call is wrong: its exit code, else its output."""
    if code != 0:
        return [f"{kind}:exit-{code}"]
    return [] if stdout == expected else [f"{kind}:stdout"]


def cli_unit(run: Run, call: dict, expected: str,
             trace: Path | None = None) -> dict:
    """One CLI call: ``python -m postlie.cli``, or the traced stand-in."""
    if trace is None:
        res = spawn([sys.executable, "-m", "postlie.cli", *call["argv"]])
        run.rss.append(res["maxrss_mb"])
    else:
        res = run_child("cli", *call["argv"], trace=trace)
        res["code"] = res["exit"]
    bad = cli_failures(call["kind"], res["code"], res["stdout"], expected)
    run.attempted += 1
    run.failed += bool(bad)
    for r in bad:
        run.reasons[r] = run.reasons.get(r, 0) + 1
    return res


def cli_setup(run: Run):
    plan = workloads.cli_plan(run.seed)
    oracle = run_child("cli-oracle", run.seed)
    # A set-up sample only: the oracle is not a CLI call, so its RSS is not
    # the program's.
    run.setups.append(oracle["setup_s"])
    kinds: dict[str, int] = {}
    for call in plan:
        kinds[call["kind"]] = kinds.get(call["kind"], 0) + 1
    run.inputs = {"calls": len(plan), "subcommands": kinds}
    return plan, oracle["expected"]


def measure_cli(run: Run) -> dict:
    """Cycle the call plan: every call once, then until time is up."""
    plan, expected = cli_setup(run)
    lat: dict[int, list[float]] = {}
    t0 = time.monotonic()
    for i in itertools.count():
        k = i % len(plan)
        if i >= len(plan) and not another(t0, run.seconds,
                                          statistics.median(lat[k]) / 1000):
            break
        res = cli_unit(run, plan[k], expected[k])
        lat.setdefault(k, []).append(res["elapsed_s"] * 1000)
        if i % CLI_CALLS_PER_PROBE == CLI_CALLS_PER_PROBE - 1:
            run.probe_setup()
    run.inputs["passes"] = min(len(v) for v in lat.values())
    # Every call costs about the same, so a percentile of the calls would
    # read the extremes of the host's noise; the slowest subcommand's mean
    # over all its calls is steady.
    kinds: dict[str, list[float]] = {}
    for k, v in lat.items():
        kinds.setdefault(plan[k]["kind"], []).extend(v)
    slowest = max(kinds, key=lambda kind: statistics.fmean(kinds[kind]))
    tail = (statistics.fmean(kinds[slowest]),
            f"slowest subcommand, {slowest}, mean of {len(kinds[slowest])} calls")
    return per_op_metrics([statistics.fmean(v) / 1000 for v in lat.values()],
                          "call", tail)


def per_op_metrics(op_s: list[float], op: str,
                   tail: tuple[float, str]) -> dict:
    """End-to-end times from each op's mean time over its repeats in the run.

    An op is one suite, one stream request or one CLI call; a run repeats
    the same ops on the same inputs.  The host's speed drifts by up to 1.7x
    over seconds to minutes, the same op included, and the mean follows the
    share of the run spent slow more evenly than the median or the best
    repeat does (README.md, "Steadiness").  ``wall_s`` is one pass of the
    plan at those times; ``tail`` is the workload's ``op_tail_ms``.
    """
    wall = sum(op_s)
    ms = [t * 1000 for t in op_s]
    n = len(ms)
    return {"wall_s": (wall, f"sum of {n} {op} means"),
            "ops_per_s": (n / wall, f"{op}s per second of wall_s"),
            "op_p50_ms": (statistics.median(ms), f"p50 of {n} {op} means"),
            "op_tail_ms": tail}


MEASURE = {"suite-sweep": measure_sweep,
           "kernel-stream": measure_stream, "cli-calls": measure_cli}


# Time metrics, each with the power of the host's slowdown it carries.
SCALED = {"wall_s": 1, "ops_per_s": -1, "op_p50_ms": 1, "op_tail_ms": 1,
          "setup_s": 1}


def end_to_end(run: Run) -> dict:
    """Metric name -> (value, note)."""
    HOST.start()
    metrics = MEASURE[run.workload](run)
    run.top_up_setup()
    metrics["setup_s"] = (statistics.median(run.setups),
                          f"median of {len(run.setups)} processes")
    metrics["peak_rss_mb"] = (max(run.rss),
                              f"largest of {len(run.rss)} processes")
    slow = HOST.slowdown()
    run.inputs["host_slowdown"] = slow
    run.inputs["reference_runs"] = len(HOST.samples)
    for name, power in SCALED.items():
        value, note = metrics[name]
        metrics[name] = (value / slow ** power,
                         f"{note}; {value:.6g} as timed")
    return metrics


# -- traced run ---------------------------------------------------------------------

def merge_layers(results: list[dict]) -> tuple[dict, dict]:
    layers: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for res in results:
        for name, st in res["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += st["calls"]
            acc["self_s"] += st["self_s"]
        for k, v in res["counters"].items():
            counters[k] = counters.get(k, 0) + v
    return layers, counters


def traced(run: Run) -> tuple[dict, dict]:
    """Untraced pass, then traced pass; returns (per-layer metrics, layers)."""
    trace_dir = OUT / run.workload
    trace_dir.mkdir(parents=True, exist_ok=True)
    extra: dict[str, float] = {}
    if run.workload in workloads.SWEEPS:
        plan = workloads.sweep_plan(run.workload, run.seed)
        run.inputs = {"suites": [list(p) for p in plan]}
        plain = sum(suite_unit(run, *p)["wall_s"] for p in plan)
        results = [suite_unit(run, *p, trace=trace_dir /
                              f"spans-{workloads.suite_key(*p)}.bin")
                   for p in plan]
        t_wall = sum(r["wall_s"] for r in results)
        for res, p in zip(results, plan):
            key = workloads.suite_key(*p)
            extra[f"verify.{key}.s"] = res["wall_s"]
            (trace_dir / f"layers-{key}.json").write_text(
                json.dumps(res["layers"], indent=1, sort_keys=True) + "\n")
    elif run.workload == "kernel-stream":
        plain = stream_unit(run)["wall_s"]
        res = stream_unit(run, trace_dir / "spans-stream.bin")
        t_wall, results = res["wall_s"], [res]
        extra["lincomb.int_coeff_share"] = res["int_coeffs"] / max(res["coeffs"], 1)
    else:
        plan, expected = cli_setup(run)
        plain = sum(cli_unit(run, c, e)["elapsed_s"]
                    for c, e in zip(plan, expected))
        results = [cli_unit(run, c, e, trace_dir / f"spans-call{i:03d}.bin")
                   for i, (c, e) in enumerate(zip(plan, expected))]
        t_wall = sum(r["elapsed_s"] for r in results)
        extra["cli.main_s"] = statistics.median(r["main_s"] for r in results)
    extra["cli.import_s"] = statistics.median(r["import_s"] for r in results)
    layers, counters = merge_layers(results)
    extra["trace.overhead_s"] = t_wall - plain
    extra["grafting.assignments_per_term"] = (
        counters["graft_assignments"] / counters["graft_terms"]
        if counters["graft_terms"] else 0.0)
    extra["linalg.cells"] = float(counters["linalg_cells"])
    run.inputs["spans"] = sum(r["spans"] for r in results)
    run.inputs["span_files"] = str(trace_dir.relative_to(ROOT))
    return extra, layers


def layer_metric(name: str, layers: dict, extra: dict) -> float:
    """Value of one declared per-layer metric."""
    if name in extra:
        return extra[name]
    base, _, field = name.rpartition(".")
    if base in layers:
        return layers[base][field]
    if field in ("calls", "self_s") and "." not in base:
        # a module total, e.g. regstruct.self_s
        return sum(st[field] for fn, st in layers.items()
                   if fn.startswith(base + "."))
    if name in WORKLOAD_ONLY:
        return 0.0                   # not run by this workload
    raise KeyError(f"per-layer metric {name!r} is not measured")


# Per-layer metrics that only some workloads produce.
WORKLOAD_ONLY = {"cli.main_s", "lincomb.int_coeff_share"} | {
    f"verify.{workloads.suite_key(*p)}.s"
    for plan in workloads.SWEEPS.values() for p in plan}


# -- entry ------------------------------------------------------------------------

def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "git_sha": git_sha()}


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = declared()
    run = Run(workload, seed, seconds)
    if trace:
        extra, layers = traced(run)
        wanted = spec["per_layer"]
        values = {m["name"]: layer_metric(m["name"], layers, extra)
                  for m in wanted}
        notes = {m["name"]: "" for m in wanted}
        (OUT / workload / "layers.json").write_text(
            json.dumps(layers, indent=1, sort_keys=True) + "\n")
    else:
        measured = end_to_end(run)
        wanted = spec["end_to_end"]
        values = {m["name"]: measured[m["name"]][0] for m in wanted}
        notes = {m["name"]: measured[m["name"]][1] for m in wanted}
    correct = run.failed == 0 and not run.reasons
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": machine(), "inputs": run.inputs,
              "error_rate": run.failed / run.attempted,
              "failures": run.reasons, "wait": NO_WAIT_NOTE,
              "metrics": {m["name"]: {"value": values[m["name"]],
                                      "unit": m["unit"],
                                      "note": notes[m["name"]]}
                          for m in wanted}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(f"# {workload} seed={seed} trace={int(trace)} "
          f"{json.dumps(record['machine'])}")
    print(f"# inputs {json.dumps(run.inputs, sort_keys=True)}")
    for m in wanted:
        note = notes[m["name"]]
        print(f"{m['name']:<44} {values[m['name']]:>14.6g} {m['unit']:<6} {note}")
    print(f"{'error_rate':<44} {record['error_rate']:>14.6g} share  "
          f"{run.failed} failed of {run.attempted} attempted")
    if run.reasons:
        print(f"# failures {json.dumps(run.reasons)}")
    if trace:
        print(f"# {NO_WAIT_NOTE}")
    return {"correct": correct, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "postlie" / "__init__.py").is_file():
        print(f"error: no postlie sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if not compileall.compile_dir(SRC, quiet=1):
        print("error: the postlie sources do not compile", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace))
        except ChildFailed as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
