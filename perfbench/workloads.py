"""Inputs of the three workloads, made from the seed without the library.

Forest texts come from a small random bracket generator here, so the
library only ever sees generated text.  The kernel stream draws its
requests from a recorded pool (``pool.json``) that holds each request's
output digest from the seed commit; the seed picks which pool entries run,
in which order, and which earlier requests repeat.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_PATH = HERE / "pool.json"
EXPECTED_PATH = HERE / "expected_checks.json"

# (suite, degree, alphabet).  The planar suites run at their contractual
# bound, degree 5; translation and the deformed suites, whose bound is 3,
# one degree above it; gl-duality on two letters at 3.  Each run takes
# 0.05-1.5 s, so a run of the benchmark repeats every suite several times;
# degree 6 (regstruct: 5) takes up to 16 s a suite, too long to repeat.
SWEEPS = {
    "suite-sweep": (
        ("hopf-axioms", 5, "o"),
        ("post-lie-axioms", 5, "o"),
        ("gl-duality", 5, "o"),
        ("natural-growth", 5, "o"),
        ("primitives", 5, "o"),
        ("phi-iso", 5, "o"),
        ("translation", 4, "o"),
        ("gl-duality", 3, "a,b"),
        ("regstruct-postlie", 4, "o"),
        ("regstruct-phi", 4, "o"),
    ),
}


def suite_key(suite: str, degree: int, alphabet: str) -> str:
    """Metric-safe name of one suite run, e.g. ``gl-duality.d4.a-b``."""
    key = f"{suite}.d{degree}"
    return key if alphabet == "o" else key + "." + alphabet.replace(",", "-")


def sweep_plan(workload: str, seed: int) -> list[tuple[str, int, str]]:
    """The workload's suite runs in a seeded order."""
    plan = list(SWEEPS[workload])
    random.Random(seed).shuffle(plan)
    return plan


# -- random planar forests as text --------------------------------------------

def random_tree(rng: random.Random, n: int, letters: str) -> str:
    """A planar tree with ``n`` vertices in bracket form."""
    return "[" + rng.choice(letters) + random_forest(rng, n - 1, letters) + "]"


def random_forest(rng: random.Random, n: int, letters: str,
                  roots: int | None = None) -> str:
    """A forest with ``n`` vertices; ``roots`` fixes the number of trees."""
    if n == 0:
        return ""
    if roots is None:
        sizes = []
        left = n
        while left:
            k = rng.randint(1, left)
            sizes.append(k)
            left -= k
    else:
        cuts = sorted(rng.sample(range(1, n), roots - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return "".join(random_tree(rng, k, letters) for k in sizes)


def letters_of(alphabet: str) -> str:
    return "".join(alphabet.split(","))


# -- the kernel-call stream ------------------------------------------------------

UNARY = ("primitive_projection", "phi", "mkw_coproduct", "rho_graft",
         "bck_primitive_projection")
BINARY = ("left_graft", "gl_product", "natural_growth", "bck_natural_growth")
OPS = BINARY + UNARY

# Light requests, by op: the range of left roots and of right vertices for
# a binary op (the left operand gets up to two extra vertices), the range
# of degrees for a unary one.  Wider grafts go to the heavy classes below.
LIGHT_BINARY = {
    "left_graft": dict(roots=(1, 4), right=(1, 6)),
    "gl_product": dict(roots=(1, 3), right=(1, 5)),
    "natural_growth": dict(roots=(1, 6), right=(1, 6)),
    "bck_natural_growth": dict(roots=(1, 6), right=(1, 6)),
}
LIGHT_UNARY = {
    "primitive_projection": (1, 5),
    "phi": (1, 6),
    "mkw_coproduct": (1, 7),
    "rho_graft": (1, 6),
    "bck_primitive_projection": (1, 6),
}

STREAM_LEN = 1500
# Heavy classes of the pool: name -> (op, size, requests).  A heavy graft
# puts ``size`` single vertices onto a six-vertex tree (6**size root
# assignments); a heavy projection takes a degree-``size`` input.  Half of
# each class uses each alphabet.
HEAVY = {"graft-6-on-6": ("left_graft", 6, 6),
         "graft-5-on-6": ("left_graft", 5, 20),
         "pi-degree-7": ("primitive_projection", 7, 6)}
# How many of each heavy class every stream runs, at seeded places, so each
# seed sees the same tail.  p99 of a stream (its 15th slowest request) falls
# in the middle of the twenty 5-on-6 grafts, below the two 6-on-6 grafts and
# the two degree-7 projections.
STREAM_HEAVY = {"graft-6-on-6": 2, "graft-5-on-6": 20, "pi-degree-7": 2}


def draw_request(rng: random.Random, op: str, alphabet: str,
                 heavy: int = 0) -> dict:
    """One request of ``op`` as text operands; ``heavy`` is a heavy size."""
    letters = letters_of(alphabet)
    if op in BINARY:
        if heavy:
            left = "".join(f"[{rng.choice(letters)}]" for _ in range(heavy))
            right = random_tree(rng, 6, letters)
            return {"op": op, "alphabet": alphabet, "args": [left, right]}
        spec = LIGHT_BINARY[op]
        roots = rng.randint(*spec["roots"])
        nleft = roots + rng.randint(0, 2)
        nright = rng.randint(*spec["right"])
        args = [random_forest(rng, nleft, letters, roots),
                random_forest(rng, nright, letters)]
    else:
        lo, hi = (heavy, heavy) if heavy else LIGHT_UNARY[op]
        n = rng.randint(lo, hi)
        x = random_forest(rng, n, letters)
        if rng.random() < 0.5:          # a two-term combination, same degree
            y = random_forest(rng, n, letters)
            c = rng.choice(("2", "1/2", "3", "-1", "-2/3"))
            x = f"{x} + {c}*{y}" if not c.startswith("-") else f"{x} - {c[1:]}*{y}"
        args = [x]
    return {"op": op, "alphabet": alphabet, "args": args}


def load_pool() -> list[dict]:
    with open(POOL_PATH, encoding="utf-8") as fh:
        return json.load(fh)["requests"]


def pool_classes(pool: list[dict]) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for i, req in enumerate(pool):
        out.setdefault(req["cls"], []).append(i)
    return out


def kernel_stream(seed: int, pool: list[dict]) -> list[int]:
    """Pool indices of one stream: fixed class quotas, seeded choices.

    Every light request runs twice, once fresh and once as a repeat at a
    later place, so half the stream repeats and the repeats cost what the
    fresh requests cost.  Each light class gives a fixed quota, one request
    from each of ``quota`` equal runs of the class in size order, so every
    seed draws the same spread of sizes.  The first ``STREAM_HEAVY``
    requests of each heavy class run once each.  The seed shuffles it all.
    """
    rng = random.Random(seed)
    classes = pool_classes(pool)
    heavy = [i for name, n in STREAM_HEAVY.items()
             for i in classes["heavy:" + name][:n]]
    light = sorted(c for c in classes if not c.startswith("heavy:"))
    nlight = (STREAM_LEN - len(heavy)) // 2
    fresh: list[int] = []
    for i, cls in enumerate(light):
        quota = nlight // len(light) + (i < nlight % len(light))
        fresh += one_per_size_run(rng, classes[cls], quota, pool)
    stream = fresh * 2 + heavy
    rng.shuffle(stream)
    return stream


def one_per_size_run(rng: random.Random, members: list[int], k: int,
                     pool: list[dict]) -> list[int]:
    """``k`` members, one from each of ``k`` near-equal runs of the members
    ordered by (degree, output terms), which is the order of their cost."""
    order = sorted(members, key=lambda i: (pool[i]["degree"],
                                           pool[i]["terms"], i))
    cuts = [round(j * len(order) / k) for j in range(k + 1)]
    return [rng.choice(order[a:b]) for a, b in zip(cuts, cuts[1:])]


def stream_profile(stream: list[int], pool: list[dict]) -> dict:
    """What ran: degree and root histograms, repeat share, alphabet mix."""
    seen: set = set()
    repeats = 0
    degrees: Counter = Counter()
    roots: Counter = Counter()
    alphabets: Counter = Counter()
    ops: Counter = Counter()
    for idx in stream:
        req = pool[idx]
        repeats += idx in seen
        seen.add(idx)
        degrees[req["degree"]] += 1
        roots[req["roots"]] += 1
        alphabets[req["alphabet"]] += 1
        ops[req["op"]] += 1
    return {"requests": len(stream), "repeat_share": repeats / len(stream),
            "degree_hist": dict(sorted(degrees.items())),
            "root_hist": dict(sorted(roots.items())),
            "alphabet_mix": dict(sorted(alphabets.items())),
            "op_mix": dict(sorted(ops.items()))}


# -- CLI calls --------------------------------------------------------------------

CLI_CALLS = 100


def cli_plan(seed: int) -> list[dict]:
    """``CLI_CALLS`` calls cycling through ten subcommands, small inputs."""
    rng = random.Random(seed)
    calls = []
    for i in range(CLI_CALLS):
        kind = CLI_KINDS[i % len(CLI_KINDS)]
        calls.append({"kind": kind, "argv": _cli_argv(rng, kind)})
    return calls


CLI_KINDS = ("graft", "gl-product", "mkw-coproduct", "antipode", "pi",
             "f-decompose", "translate", "basis", "reg-gl-product", "verify")


def _cli_argv(rng: random.Random, kind: str) -> list[str]:
    def f(n: int) -> str:
        return random_forest(rng, n, "o")

    if kind in ("graft", "gl-product"):
        return [kind, f(rng.randint(1, 3)), f(rng.randint(1, 3))]
    if kind == "antipode":
        return [kind, f(rng.randint(1, 4)), "--which",
                rng.choice(("mkw", "gl", "concat"))]
    if kind in ("mkw-coproduct", "pi", "f-decompose"):
        return [kind, f(rng.randint(1, 4))]
    if kind == "translate":
        return [kind, f(rng.randint(1, 3)), "--v",
                f"o={rng.choice(('1/2', '2', '1/3'))}*[o]", "--max-degree", "3"]
    if kind == "basis":
        return [kind, "--degree", str(rng.randint(1, 4)), "--alphabet",
                rng.choice(("o", "a,b"))]
    if kind == "reg-gl-product":
        vertex = f"[o{{{rng.randint(0, 2)}}}]"
        branch = f"[o{{{rng.randint(0, 1)}}}[o{{0}}]{{{rng.randint(0, 1)}}}]"
        return [kind, vertex, rng.choice((vertex, branch))]
    if kind == "verify":
        return [kind, "--suite", "paper-examples"]
    raise ValueError(kind)
