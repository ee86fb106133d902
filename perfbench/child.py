"""One measured process of a workload; prints one JSON line and exits.

Run by ``run.py``, never imported by the library.  Modes:

  suite NAME DEGREE ALPHABET     one ``run_suite`` call on cold caches
  stream SEED                    the kernel-call stream of one seed
  setup WORKLOAD SEED            import and input preparation only
  cli-oracle SEED                expected stdout of every CLI call
  cli ARG...                     one traced ``postlie.cli`` call

Every mode takes ``--spawn T`` (the parent's monotonic clock just before
the process was started) so that set-up time counts interpreter start, and
``--trace PATH`` to record spans into PATH.
"""

from __future__ import annotations

import sys
import time

_T0 = time.perf_counter()
import postlie.cli  # noqa: E402  (timed first: the import every call pays)
IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- kernel requests ------------------------------------------------------------

TENSOR_OPS = {"mkw_coproduct", "rho_graft"}


def request_runner():
    """``run(req) -> (output object, rendered text)`` over the library."""
    import postlie as pl

    def run(req: dict):
        alpha = tuple(req["alphabet"].split(","))
        args = [pl.parse_lincomb(t, alpha) for t in req["args"]]
        op = req["op"]
        if op.startswith("bck_"):
            args = [pl.forget_planarity(x) for x in args]
        # Looked up per call, so a traced run calls the wrapped function.
        out = getattr(pl, op)(*args)
        render = pl.render_tensor if op in TENSOR_OPS else pl.render_lincomb
        return out, render(out)

    return run


def forest_shape(text: str) -> tuple[int, int]:
    """(roots, vertices) of a single bracket forest, read from its text."""
    depth = roots = 0
    for ch in text:
        if ch == "[":
            roots += depth == 0
            depth += 1
        elif ch == "]":
            depth -= 1
    return roots, text.count("[")


def coefficient_sum_expected(req: dict) -> int | None:
    """Independent coefficient sum of a graft-type request, else None.

    Grafting k roots onto n vertices has n**k assignments, each one term
    with coefficient one; the Grossman-Larson product adds the choice of
    which roots stay in the left factor, (1 + n)**k in all.
    """
    if req["op"] not in ("left_graft", "gl_product"):
        return None
    k, _ = forest_shape(req["args"][0])
    _, n = forest_shape(req["args"][1])
    return n ** k if req["op"] == "left_graft" else (1 + n) ** k


def coefficient_sum(out) -> Fraction:
    return sum((c for _, c in out.items()), Fraction(0))


def check_request(req: dict, out, text: str) -> list[str]:
    """Reasons the request's output is wrong; empty when it checks out."""
    bad = []
    if digest(text) != req["digest"]:
        bad.append("digest")
    want = coefficient_sum_expected(req)
    if want is not None and coefficient_sum(out) != want:
        bad.append("coefficient-sum")
    return bad


def run_stream(seed: int, ready) -> dict:
    pool = workloads.load_pool()
    stream = workloads.kernel_stream(seed, pool)
    run = request_runner()
    setup_s = ready()
    lat_ms: list[float] = []
    reasons: list[str] = []
    failed = 0
    outputs = []
    clock = time.perf_counter
    t0 = clock()
    for idx in stream:
        req = pool[idx]
        t = clock()
        out, text = run(req)
        lat_ms.append((clock() - t) * 1000)
        outputs.append((idx, out, text))
    wall = clock() - t0
    int_coeffs = coeffs = 0
    for idx, out, text in outputs:
        bad = check_request(pool[idx], out, text)
        failed += bool(bad)
        reasons += bad
        for _, c in out.items():
            int_coeffs += type(c) is int
            coeffs += 1
    return {"setup_s": setup_s, "wall_s": wall, "latencies_ms": lat_ms,
            "attempted": len(stream), "failed": failed, "reasons": reasons,
            "int_coeffs": int_coeffs, "coeffs": coeffs,
            "profile": workloads.stream_profile(stream, pool)}


# -- suites ----------------------------------------------------------------------

def run_one_suite(name: str, degree: int, alphabet: str, ready) -> dict:
    expected = json.loads(workloads.EXPECTED_PATH.read_text())
    want = expected[workloads.suite_key(name, degree, alphabet)]
    setup_s = ready()
    t = time.perf_counter()
    # Looked up after ready(), so a traced run calls the wrapped function.
    report = postlie.verify.run_suite(name, degree, tuple(alphabet.split(",")))
    wall = time.perf_counter() - t
    bad = suite_failures(report, want)
    return {"setup_s": setup_s, "wall_s": wall, "attempted": 1,
            "failed": int(bool(bad)), "reasons": bad}


def suite_failures(report: dict, want: list[str]) -> list[str]:
    """Reasons a suite report is wrong; empty when it checks out."""
    bad = []
    if report.get("ok") is not True:
        bad.append("not-ok")
    if [c["name"] for c in report["checks"]] != want:
        bad.append("check-names")
    if any(c["status"] != "pass" for c in report["checks"]):
        bad.append("check-status")
    return bad


# -- CLI -------------------------------------------------------------------------

def cli_expected(call: dict) -> str:
    """The stdout a CLI call must print, computed by direct library calls."""
    import postlie as pl
    argv = call["argv"]
    kind = argv[0]
    if kind in ("graft", "gl-product"):
        fn = pl.left_graft if kind == "graft" else pl.gl_product
        return pl.render_lincomb(fn(pl.parse_lincomb(argv[1]),
                                    pl.parse_lincomb(argv[2])))
    if kind == "mkw-coproduct":
        return pl.render_tensor(pl.mkw_coproduct(pl.parse_lincomb(argv[1])))
    if kind == "antipode":
        fn = {"mkw": pl.mkw_antipode, "gl": pl.gl_antipode,
              "concat": pl.concat_antipode}[argv[3]]
        return pl.render_lincomb(fn(pl.parse_lincomb(argv[1])))
    if kind == "pi":
        return pl.render_lincomb(pl.primitive_projection(pl.parse_lincomb(argv[1])))
    if kind == "f-decompose":
        levels = pl.f_decompose(pl.parse_lincomb(argv[1]))
        return "\n".join(f"level {k}: {pl.render_tensor(t)}"
                         for k, t in sorted(levels.items()))
    if kind == "translate":
        maxdeg = int(argv[5])
        letter, _, expr = argv[3].partition("=")
        v = {letter: pl.parse_lincomb(expr).truncate(maxdeg)}
        return pl.render_lincomb(pl.translate(v, pl.parse_lincomb(argv[1]), maxdeg))
    if kind == "basis":
        forests = pl.enumerate_forests(int(argv[2]), tuple(argv[4].split(",")))
        return "\n".join(f.text for f in forests)
    if kind == "reg-gl-product":
        return pl.render_lincomb(pl.reg_gl_product(pl.parse_reg_lincomb(argv[1]),
                                                   pl.parse_reg_lincomb(argv[2])))
    if kind == "verify":
        report = pl.run_suite(argv[2])
        lines = [f"{c['status'].upper():5} {c['name']} [{c['range']}]"
                 for c in report["checks"]]
        npass = sum(c["status"] == "pass" for c in report["checks"])
        verdict = "PASS" if report["ok"] else "FAIL"
        lines.append(f"suite {report['suite']}: {verdict} "
                     f"({npass}/{len(report['checks'])} checks, "
                     f"max degree {report['max_degree']})")
        return "\n".join(lines)
    raise ValueError(f"no oracle for {kind}")


def run_cli_oracle(seed: int, ready) -> dict:
    calls = workloads.cli_plan(seed)
    setup_s = ready()
    return {"setup_s": setup_s,
            "expected": [cli_expected(call) + "\n" for call in calls]}


def run_cli(argv: list[str], ready) -> dict:
    setup_s = ready()
    buf = io.StringIO()
    t = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = postlie.cli.main(argv)
    main_s = time.perf_counter() - t
    return {"setup_s": setup_s, "main_s": main_s, "exit": code,
            "stdout": buf.getvalue()}


# -- entry -----------------------------------------------------------------------

def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode")
    ap.add_argument("rest", nargs=argparse.REMAINDER)
    ap.add_argument("--spawn", type=float, required=True)
    ap.add_argument("--trace", default=None)
    args = ap.parse_args(argv)
    rest = args.rest
    tracer = None

    def ready() -> float:
        """Mark inputs ready: start tracing if asked, return set-up seconds."""
        nonlocal tracer
        setup_s = time.monotonic() - args.spawn
        if args.trace and tracer is None:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        return setup_s

    if args.mode == "suite":
        out = run_one_suite(rest[0], int(rest[1]), rest[2], ready)
    elif args.mode == "stream":
        out = run_stream(int(rest[0]), ready)
    elif args.mode == "setup":
        if rest[0] == "kernel-stream":
            workloads.kernel_stream(int(rest[1]), workloads.load_pool())
        elif rest[0] == "cli-calls":
            workloads.cli_plan(int(rest[1]))
        else:
            workloads.sweep_plan(rest[0], int(rest[1]))
        out = {"setup_s": ready()}
    elif args.mode == "cli-oracle":
        out = run_cli_oracle(int(rest[0]), ready)
    elif args.mode == "cli":
        out = run_cli(rest, ready)
    else:
        raise SystemExit(f"unknown mode {args.mode!r}")
    out["import_s"] = IMPORT_S
    if tracer is not None:
        out["layers"] = tracer.self_times()
        out["spans"] = tracer.span_count
        out["counters"] = {"graft_assignments": tracer.graft_assignments,
                           "graft_terms": tracer.graft_terms,
                           "linalg_cells": tracer.linalg_cells}
        tracer.dump(args.trace)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
