"""Record the reference data the benchmark checks against.

    python3 perfbench/record.py

Writes ``pool.json`` (the kernel-stream request pool with each request's
output digest) and ``expected_checks.json`` (the check names of every
sweep suite run).  Both are to be recorded once, on a commit whose outputs
are trusted, and then kept: the benchmark compares later commits to them.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from child import digest, forest_shape, request_runner  # noqa: E402

POOL_SEED = 20230607
PER_CLASS = 120


def build_pool() -> list[dict]:
    rng = random.Random(POOL_SEED)
    run = request_runner()
    classes = [(f"{op}:{a}", op, a, 0, PER_CLASS)
               for op in workloads.OPS for a in ("o", "a,b")]
    classes += [(f"heavy:{name}", op, None, size, count)
                for name, (op, size, count) in workloads.HEAVY.items()]
    pool = []
    for cls, op, alphabet, heavy, count in classes:
        seen = set()
        tries = 0
        while len(seen) < count and tries < 50 * count:
            tries += 1
            alpha = alphabet or ("o", "a,b")[len(seen) % 2]
            req = workloads.draw_request(rng, op, alpha, heavy)
            key = (op, alpha, tuple(req["args"]))
            if key in seen:
                continue
            seen.add(key)
            out, text = run(req)
            first = req["args"][0].split(" ")[0]
            roots, degree = forest_shape(first)
            degree += sum(forest_shape(a.split(" ")[0])[1] for a in req["args"][1:])
            pool.append({"cls": cls, **req, "degree": degree, "roots": roots,
                         "terms": len(out), "digest": digest(text)})
        print(f"{cls}: {len(seen)} requests", file=sys.stderr)
    return pool


def record_checks() -> dict[str, list[str]]:
    from postlie.verify import run_suite
    out = {}
    for plan in workloads.SWEEPS.values():
        for name, degree, alphabet in plan:
            report = run_suite(name, degree, tuple(alphabet.split(",")))
            if not report["ok"]:
                raise SystemExit(f"{name} at degree {degree} is not ok")
            out[workloads.suite_key(name, degree, alphabet)] = [
                c["name"] for c in report["checks"]]
    return out


def main() -> None:
    pool = build_pool()
    with open(workloads.POOL_PATH, "w", encoding="utf-8") as fh:
        json.dump({"pool_seed": POOL_SEED, "requests": pool}, fh,
                  separators=(",", ":"))
        fh.write("\n")
    checks = record_checks()
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(checks, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
