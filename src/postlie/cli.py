"""Command-line frontend.

Every operation reads bracket expressions from its arguments, computes
exactly, and prints terms in compare-order, so identical invocations give
byte-identical output.  ``--output json`` switches any subcommand to a JSON
rendering of the same data.  Degree-bearing options, the operands of the
forest and decorated operations, and the truncation degree of character
files are capped by ``POSTLIE_DEGREE_CAP`` (default 7) and must be
nonnegative; ``basis`` also refuses more forests than two letters give at
the cap, and ``reg-basis`` more trees than dimension two gives there.

Exit codes: 0 on success, 1 for failed verification suites and other
errors, 2 for malformed input expressions (the message carries the
position).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import comb

from .characters import (canonical_lift, char_convolve, char_from_json,
                         char_to_csv, char_to_json, embed_rough_path, phi,
                         phi_inverse)
from .coaction import rho_graft, translate
from .exprs import (lincomb_to_json, parse_lincomb, parse_reg_lincomb,
                    reg_lincomb_to_json, render_lincomb, render_tensor,
                    tensor_to_json)
from .forest import ForestSyntaxError, enumerate_forests
from .grafting import concat_antipode, gl_antipode, gl_product, left_graft
from .growth import f_decompose, natural_growth, primitive_projection
from .mkw import mkw_antipode, mkw_coproduct
from .regstruct import (deformed_mkw_coproduct, enumerate_reg_trees,
                        phi_reg, phi_reg_inverse, reg_assoc_product,
                        reg_gl_product, reg_graft)
from .verify import DegreeCapError, degree_cap, run_suite, suite_names


def _alphabet(args) -> tuple[str, ...] | None:
    raw = getattr(args, "alphabet", None)
    if raw is None:
        return None
    letters = tuple(s.strip() for s in raw.split(",") if s.strip())
    if not letters:
        raise ValueError("alphabet must list at least one letter")
    return letters


def _cap(n: int, what: str) -> int:
    if n < 0:
        raise ValueError(f"{what} must be nonnegative, got {n}")
    cap = degree_cap()
    if n > cap:
        raise DegreeCapError(
            f"{what} {n} exceeds the degree cap {cap}; "
            "set POSTLIE_DEGREE_CAP to raise it")
    return n


def _cap_operands(a, b) -> None:
    _cap(a.max_degree(), "degree of A")
    _cap(b.max_degree(), "degree of B")


def _operand(args):
    x = parse_lincomb(args.X, _alphabet(args))
    _cap(x.max_degree(), "degree of X")
    return x


def _emit_lin(args, x, reg: bool = False) -> int:
    if args.output == "json":
        obj = reg_lincomb_to_json(x) if reg else lincomb_to_json(x)
        print(json.dumps(obj, indent=2))
    else:
        print(render_lincomb(x))
    return 0


def _emit_tensor(args, t) -> int:
    if args.output == "json":
        print(json.dumps(tensor_to_json(t), indent=2))
    else:
        print(render_tensor(t))
    return 0


def _parse_vector(raw: str, maxdeg: int) -> dict:
    # entries "letter=expr" joined by ";"
    out = {}
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, expr = chunk.partition("=")
        if not sep:
            raise ValueError(
                f"vector entry {chunk!r} is not of the form letter=expr")
        out[key.strip()] = parse_lincomb(expr).truncate(maxdeg)
    return out


def _parse_increments(raw: str) -> dict:
    out = {}
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, val = chunk.partition("=")
        if not sep:
            raise ValueError(
                f"increment {chunk!r} is not of the form letter=value")
        out[key.strip()] = Fraction(val.strip())
    return out


def _read_char(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        X = char_from_json(fh.read())
    _cap(X.N, "truncation degree")
    return X


def _emit_char(args, X) -> int:
    if args.output == "json":
        print(char_to_json(X))
    else:
        sys.stdout.write(char_to_csv(X))
    return 0


# -- subcommand bodies -------------------------------------------------------

def _cmd_binary(fn):
    def cmd(args) -> int:
        alpha = _alphabet(args)
        a = parse_lincomb(args.A, alpha)
        b = parse_lincomb(args.B, alpha)
        _cap_operands(a, b)
        return _emit_lin(args, fn(a, b))
    return cmd


def _cmd_antipode(args) -> int:
    x = _operand(args)
    fn = {"mkw": mkw_antipode, "gl": gl_antipode,
          "concat": concat_antipode}[args.which]
    return _emit_lin(args, fn(x))


def _cmd_unary(fn):
    def cmd(args) -> int:
        return _emit_lin(args, fn(_operand(args)))
    return cmd


def _cmd_cop(fn):
    def cmd(args) -> int:
        return _emit_tensor(args, fn(_operand(args)))
    return cmd


def _cmd_fdecompose(args) -> int:
    levels = f_decompose(_operand(args))
    if args.output == "json":
        obj = {"levels": {str(k): tensor_to_json(t)
                          for k, t in sorted(levels.items())}}
        print(json.dumps(obj, indent=2))
    else:
        for k, t in sorted(levels.items()):
            print(f"level {k}: {render_tensor(t)}")
    return 0


def _cmd_translate(args) -> int:
    x = parse_lincomb(args.X, _alphabet(args))
    maxdeg = args.max_degree if args.max_degree is not None else x.max_degree()
    _cap(maxdeg, "max degree")
    v = _parse_vector(args.v, maxdeg)
    return _emit_lin(args, translate(v, x, maxdeg))


def _cmd_lift(args) -> int:
    _cap(args.N, "truncation degree")
    return _emit_char(args, canonical_lift(_parse_increments(args.increments),
                                           args.N))


def _cmd_chen(args) -> int:
    return _emit_char(args, char_convolve(_read_char(args.X),
                                          _read_char(args.Y)))


def _cmd_embed(args) -> int:
    return _emit_char(args, embed_rough_path(_read_char(args.X)))


def _refuse_wide(what: str, size: int, unit: str, limit: int,
                 reference: str) -> None:
    # the cap bounds a listing's size, not only its degree: at most what
    # the reference gives at the cap
    if size > limit:
        raise DegreeCapError(
            f"{what} has {size} {unit}, more than the {limit} of {reference} "
            f"at the degree cap {degree_cap()}; "
            "set POSTLIE_DEGREE_CAP to raise it")


def _emit_listing(args, items) -> int:
    if args.output == "json":
        print(json.dumps([x.text for x in items], indent=2))
    else:
        for x in items:
            print(x.text)
    return 0


def _basis_size(letters: int, n: int) -> int:
    # planar forests of degree n: letters**n times the Catalan number C(n)
    return letters ** n * comb(2 * n, n) // (n + 1)


def _cmd_basis(args) -> int:
    n = _cap(args.degree, "degree")
    alpha = _alphabet(args) or ("o",)
    k = len(set(alpha))
    _refuse_wide(f"basis of degree {n} over {k} letters", _basis_size(k, n),
                 "forests", _basis_size(2, degree_cap()), "two letters")
    return _emit_listing(args, enumerate_forests(n, alpha))


def _cmd_reg_binary(fn):
    def cmd(args) -> int:
        a = parse_reg_lincomb(args.A)
        b = parse_reg_lincomb(args.B)
        _cap_operands(a, b)
        return _emit_lin(args, fn(a, b), reg=True)
    return cmd


def _cmd_reg_cop(args) -> int:
    x = parse_reg_lincomb(args.X)
    maxdeg = (args.max_degree if args.max_degree is not None
              else x.max_degree())
    _cap(maxdeg, "max degree")
    return _emit_tensor(args, deformed_mkw_coproduct(x, maxdeg))


def _cmd_reg_phi(fn):
    def cmd(args) -> int:
        x = parse_reg_lincomb(args.X)
        maxdeg = (args.max_degree if args.max_degree is not None
                  else x.max_degree())
        _cap(maxdeg, "max degree")
        return _emit_lin(args, fn(x, maxdeg), reg=True)
    return cmd


def _reg_basis_size(n: int, d: int, max_norm: int | None = None) -> int:
    # decorated trees of degree n, counted by degree k: a tree is a root
    # multi-index of norm p and a branch sequence of degree k - p; a branch
    # is an edge multi-index of norm q and a subtree of degree k - 1 - q
    if d < 1:
        raise ValueError("dimension must be at least 1")
    top = n if max_norm is None else min(n, max_norm)
    mis = [comb(p + d - 1, d - 1) for p in range(top + 1)]
    trees, seqs, branches = [0] * (n + 1), [1] + [0] * n, [0] * (n + 1)
    for k in range(n + 1):
        if k:
            branches[k] = sum(mis[q] * trees[k - 1 - q]
                              for q in range(min(k - 1, top) + 1))
            seqs[k] = sum(branches[j] * seqs[k - j] for j in range(1, k + 1))
        trees[k] = sum(mis[p] * seqs[k - p] for p in range(min(k, top) + 1))
    return trees[n]


def _cmd_reg_basis(args) -> int:
    n = _cap(args.degree, "degree")
    if args.max_norm is not None:
        _cap(args.max_norm, "max norm")
    _refuse_wide(f"reg-basis of degree {n} over dimension {args.dim}",
                 _reg_basis_size(n, args.dim, args.max_norm), "trees",
                 _reg_basis_size(degree_cap(), 2), "dimension 2")
    return _emit_listing(args,
                         enumerate_reg_trees(n, args.dim, args.max_norm))


def _cmd_verify(args) -> int:
    alpha = _alphabet(args) or ("o",)
    report = run_suite(args.suite, args.max_degree, alpha)
    if args.output == "json":
        print(json.dumps(report, indent=2))
    else:
        for c in report["checks"]:
            line = f"{c['status'].upper():5} {c['name']} [{c['range']}]"
            if "witness" in c:
                line += f" witness: {c['witness']}"
            print(line)
        npass = sum(1 for c in report["checks"] if c["status"] == "pass")
        verdict = "PASS" if report["ok"] else "FAIL"
        print(f"suite {report['suite']}: {verdict} "
              f"({npass}/{len(report['checks'])} checks, "
              f"max degree {report['max_degree']})")
    return 0 if report["ok"] else 1


# -- wiring ------------------------------------------------------------------

def _common(sp) -> None:
    sp.add_argument("--output", choices=("text", "json"), default="text")


def _with_alphabet(sp) -> None:
    _common(sp)
    sp.add_argument("--alphabet",
                    help="comma-separated decorations; default: infer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postlie",
        description="Exact computations on decorated planar rooted forests.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, nargs_: tuple[str, ...], alphabet=True, help=""):
        sp = sub.add_parser(name, help=help)
        for arg in nargs_:
            sp.add_argument(arg)
        (_with_alphabet if alphabet else _common)(sp)
        sp.set_defaults(fn=fn)
        return sp

    add("graft", _cmd_binary(left_graft), ("A", "B"),
        help="left grafting of A into B")
    add("gl-product", _cmd_binary(gl_product), ("A", "B"),
        help="Grossman-Larson product A * B")
    add("mkw-coproduct", _cmd_cop(mkw_coproduct), ("X",),
        help="coproduct by left-admissible cuts")
    sp = add("antipode", _cmd_antipode, ("X",), help="antipode of X")
    sp.add_argument("--which", choices=("mkw", "gl", "concat"),
                    default="mkw")
    add("natural-growth", _cmd_binary(natural_growth), ("A", "B"),
        help="vertex-averaged growth of A onto B")
    add("pi", _cmd_unary(primitive_projection), ("X",),
        help="projection onto primitives")
    add("f-decompose", _cmd_fdecompose, ("X",),
        help="split X into growth-fold levels of primitives")
    add("phi", _cmd_unary(phi), ("X",),
        help="word-side isomorphism")
    add("phi-inv", _cmd_unary(phi_inverse), ("X",),
        help="inverse of the word-side isomorphism")
    add("rho-graft", _cmd_cop(rho_graft), ("X",),
        help="grafting coaction")
    sp = add("translate", _cmd_translate, ("X",),
             help="shift decorations by a primitive vector")
    sp.add_argument("--v", required=True,
                    help='entries "letter=expr" joined by ";"')
    sp.add_argument("--max-degree", type=int, default=None)

    sp = add("lift", _cmd_lift, (), alphabet=False,
             help="exponential character of letter increments")
    sp.add_argument("--increments", required=True,
                    help='pairs "letter=value" joined by ","')
    sp.add_argument("--N", type=int, required=True,
                    help="truncation degree")
    add("chen", _cmd_chen, ("X", "Y"), alphabet=False,
        help="convolve two character files")
    add("embed", _cmd_embed, ("X",), alphabet=False,
        help="move a character file to the word side")

    sp = add("basis", _cmd_basis, (), help="list basis forests of a degree")
    sp.add_argument("--degree", type=int, required=True)

    add("reg-product", _cmd_reg_binary(reg_assoc_product), ("A", "B"),
        alphabet=False, help="decorated word product")
    add("reg-graft", _cmd_reg_binary(reg_graft), ("A", "B"),
        alphabet=False, help="deformed grafting")
    add("reg-gl-product", _cmd_reg_binary(reg_gl_product), ("A", "B"),
        alphabet=False, help="decorated Grossman-Larson product")
    sp = add("reg-mkw-coproduct", _cmd_reg_cop, ("X",), alphabet=False,
             help="dual coproduct of the decorated product")
    sp.add_argument("--max-degree", type=int, default=None)
    sp = add("reg-phi", _cmd_reg_phi(phi_reg), ("X",), alphabet=False,
             help="decorated word-side isomorphism")
    sp.add_argument("--max-degree", type=int, default=None)
    sp = add("reg-phi-inv", _cmd_reg_phi(phi_reg_inverse), ("X",),
             alphabet=False, help="inverse decorated isomorphism")
    sp.add_argument("--max-degree", type=int, default=None)
    sp = add("reg-basis", _cmd_reg_basis, (), alphabet=False,
             help="list decorated trees of a degree")
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--dim", type=int, default=1)
    sp.add_argument("--max-norm", type=int, default=None)

    sp = add("verify", _cmd_verify, (),
             help="run a property suite and report")
    sp.add_argument("--suite", required=True, choices=suite_names())
    sp.add_argument("--max-degree", type=int, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ForestSyntaxError as err:
        print(f"parse error: {err.args[0]}", file=sys.stderr)
        return 2
    except DegreeCapError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
