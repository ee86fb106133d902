"""Command-line frontend.

Every subcommand is one row of :func:`build_parser`: its name, help text,
output kind, the function it applies, the operand parser and the names of
its positional operands, and the options of its own.  The operand parser
reads the operands (bracket expressions as forests or decorated trees, or
character files), the function computes exactly from them and the parsed
options, and :func:`main` prints the value through one :func:`_emit` in
the row's kind, a pair of text and JSON renderers.  Terms come in
compare-order, so identical invocations give byte-identical output, and
``--output json`` switches any subcommand to a JSON rendering of the same
data.  Degree-bearing options, the operands of the forest and decorated
operations, and the truncation degree of character files are capped by
``POSTLIE_DEGREE_CAP`` (default 7) and must be nonnegative; ``basis`` also
refuses more forests than two letters give at the cap, and ``reg-basis``
more trees than dimension two gives there.

Exit codes: 0 on success, 1 for failed verification suites and other
errors, 2 for malformed input expressions (the message carries the
position, and names the vector entry or character file and key).  Every
error reading a character file, its degree cap included, names the file.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import partial
from math import comb

from .characters import (canonical_lift, char_convolve, char_from_json,
                         char_to_csv, char_to_json, embed_rough_path, phi,
                         phi_inverse)
from .coaction import rho_graft, translate
from .exprs import (lincomb_to_json, parse_lincomb, parse_reg_lincomb,
                    reg_lincomb_to_json, render_lincomb, render_tensor,
                    tensor_to_json)
from .forest import TOKEN, ForestSyntaxError, enumerate_forests
from .grafting import concat_antipode, gl_antipode, gl_product, left_graft
from .growth import f_decompose, natural_growth, primitive_projection
from .mkw import mkw_antipode, mkw_coproduct
from .regstruct import (deformed_mkw_coproduct, enumerate_reg_trees,
                        phi_reg, phi_reg_inverse, reg_assoc_product,
                        reg_gl_product, reg_graft)
from .verify import (DegreeCapError, cap_degree, degree_cap, run_suite,
                     suite_names)


def _alphabet(args) -> tuple[str, ...] | None:
    raw = getattr(args, "alphabet", None)
    if raw is None:
        return None
    letters = tuple(s.strip() for s in raw.split(",") if s.strip())
    if not letters:
        raise ValueError("alphabet must list at least one letter")
    for letter in letters:
        if not TOKEN.fullmatch(letter):
            raise ValueError(f"alphabet letter {letter!r} is not one token")
    return letters


def _max_degree(args, x) -> int:
    # --max-degree, or else the operand's degree, capped
    n = x.max_degree() if args.max_degree is None else args.max_degree
    return cap_degree(n, "max degree")


def _pairs(raw: str, sep: str, what: str, form: str, value) -> dict:
    # entries "key=value" joined by sep; blank entries are skipped
    out = {}
    for chunk in raw.split(sep):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, eq, val = map(str.strip, chunk.partition("="))
        if not eq:
            raise ValueError(f"{what} {chunk!r} is not of the form {form}")
        if not TOKEN.fullmatch(key):
            raise ValueError(f"{what} {chunk!r}: letter {key!r} is not one token")
        if key in out:
            raise ValueError(f"{what} {chunk!r} repeats the letter {key!r}")
        try:
            out[key] = value(val)
        except ForestSyntaxError as err:
            raise ForestSyntaxError(f"value of {what} {chunk!r}: "
                                    f"{err.message}", err.position) from None
        except ZeroDivisionError:
            raise ValueError(f"{what} {chunk!r} has a zero denominator") \
                from None
        except ValueError:
            raise ValueError(f"{what} {chunk!r} has no exact value") from None
    return out


# -- operand parsers: (args, names) -> the operands, in order ---------------

def _forests(args, names):
    return [parse_lincomb(getattr(args, n), _alphabet(args)) for n in names]


def _decorated(args, names):
    return [parse_reg_lincomb(getattr(args, n)) for n in names]


def _capped(parse):
    # every operand parsed first, then each capped by its degree
    def capped(args, names):
        xs = parse(args, names)
        for n, x in zip(names, xs):
            cap_degree(x.max_degree(), f"degree of {n}")
        return xs
    return capped


def _characters(args, names):
    out = []
    for path in (getattr(args, n) for n in names):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                X = char_from_json(fh.read())
                cap_degree(X.N, "truncation degree")
            except ForestSyntaxError as err:
                raise ForestSyntaxError(f"{path}: {err.message}",
                                        err.position) from None
            except ValueError as err:
                raise ValueError(f"{path}: {err}") from None
        out.append(X)
    return out


# -- output kinds: (text, JSON) renderers of a value, newline included ------

def _line(render):
    return lambda value: render(value) + "\n"


def _json(to_json):
    return _line(lambda value: json.dumps(to_json(value), indent=2))


def _report_text(report: dict) -> str:
    checks = report["checks"]
    lines = [f"{c['status'].upper():5} {c['name']} [{c['range']}]"
             + (f" witness: {c['witness']}" if "witness" in c else "")
             for c in checks]
    npass = sum(1 for c in checks if c["status"] == "pass")
    verdict = "PASS" if report["ok"] else "FAIL"
    lines.append(f"suite {report['suite']}: {verdict} ({npass}/{len(checks)}"
                 f" checks, max degree {report['max_degree']})")
    return "".join(f"{line}\n" for line in lines)


_COMBINATION = (_line(render_lincomb), _json(lincomb_to_json))
_REG_COMBINATION = (_line(render_lincomb), _json(reg_lincomb_to_json))
_TENSOR = (_line(render_tensor), _json(tensor_to_json))
_LEVELS = (lambda levels: "".join(f"level {k}: {render_tensor(t)}\n"
                                  for k, t in sorted(levels.items())),
           _json(lambda levels: {"levels": {
               str(k): tensor_to_json(t) for k, t in sorted(levels.items())}}))
_LISTING = (lambda items: "".join(f"{x.text}\n" for x in items),
            _json(lambda items: [x.text for x in items]))
_REPORT = (_report_text, _json(lambda report: report))
_CHARACTER = (char_to_csv, _line(char_to_json))


def _emit(args, value, kind) -> None:
    text, as_json = kind
    sys.stdout.write((as_json if args.output == "json" else text)(value))


# -- row functions: (args, *operands) -> value ------------------------------

def _on(fn):
    # a function of the operands alone
    return lambda args, *xs: fn(*xs)


def _up_to(fn):
    # a function of one operand and its max degree
    return lambda args, x: fn(x, _max_degree(args, x))


def _refuse_wide(what: str, size: int, unit: str, limit: int,
                 reference: str) -> None:
    # the cap bounds a listing's size, not only its degree: at most what
    # the reference gives at the cap
    if size > limit:
        raise DegreeCapError(
            f"{what} has {size} {unit}, more than the {limit} of {reference} "
            f"at the degree cap {degree_cap()}; "
            "set POSTLIE_DEGREE_CAP to raise it")


def _basis_size(letters: int, n: int) -> int:
    # planar forests of degree n: letters**n times the Catalan number C(n)
    return letters ** n * comb(2 * n, n) // (n + 1)


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


def _translate(args, x):
    maxdeg = _max_degree(args, x)
    v = _pairs(args.v, ";", "vector entry", "letter=expr", parse_lincomb)
    # capped here: _pairs reads every ValueError as "has no exact value"
    for key, val in v.items():
        cap_degree(val.max_degree(), f"degree of vector entry {key!r}")
    return translate(v, x, maxdeg)


def _lift(args):
    n = cap_degree(args.N, "truncation degree")
    return canonical_lift(_pairs(args.increments, ",", "increment",
                                 "letter=value", Fraction), n)


def _basis(args):
    n = cap_degree(args.degree, "degree")
    alpha = _alphabet(args) or ("o",)
    k = len(set(alpha))
    _refuse_wide(f"basis of degree {n} over {k} letters", _basis_size(k, n),
                 "forests", _basis_size(2, degree_cap()), "two letters")
    return enumerate_forests(n, alpha)


def _reg_basis(args):
    n = cap_degree(args.degree, "degree")
    if args.max_norm is not None:
        cap_degree(args.max_norm, "max norm")
    _refuse_wide(f"reg-basis of degree {n} over dimension {args.dim}",
                 _reg_basis_size(n, args.dim, args.max_norm), "trees",
                 _reg_basis_size(degree_cap(), 2), "dimension 2")
    return enumerate_reg_trees(n, args.dim, args.max_norm)


def _run(fn, parse, names, args):
    return fn(args, *(parse(args, names) if parse else ()))


# -- the table ---------------------------------------------------------------

_ALPHABET = ("--alphabet", {"help": "comma-separated decorations; "
                                    "default: infer"})
_MAX_DEGREE = ("--max-degree", {"type": int, "default": None})
_DEGREE = ("--degree", {"type": int, "required": True})
_ANTIPODES = {"mkw": mkw_antipode, "gl": gl_antipode,
              "concat": concat_antipode}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postlie",
        description="Exact computations on decorated planar rooted forests.")
    sub = parser.add_subparsers(dest="command", required=True)
    forest, tree = _capped(_forests), _capped(_decorated)
    rows = [
        # name, help, kind, function, operand parser, positionals, options
        ("graft", "left grafting of A into B", _COMBINATION,
         _on(left_graft), forest, "A B", [_ALPHABET]),
        ("gl-product", "Grossman-Larson product A * B", _COMBINATION,
         _on(gl_product), forest, "A B", [_ALPHABET]),
        ("mkw-coproduct", "coproduct by left-admissible cuts", _TENSOR,
         _on(mkw_coproduct), forest, "X", [_ALPHABET]),
        ("antipode", "antipode of X", _COMBINATION,
         lambda args, x: _ANTIPODES[args.which](x), forest, "X",
         [_ALPHABET, ("--which", {"choices": tuple(_ANTIPODES),
                                  "default": "mkw"})]),
        ("natural-growth", "vertex-averaged growth of A onto B", _COMBINATION,
         _on(natural_growth), forest, "A B", [_ALPHABET]),
        ("pi", "projection onto primitives", _COMBINATION,
         _on(primitive_projection), forest, "X", [_ALPHABET]),
        ("f-decompose", "split X into growth-fold levels of primitives",
         _LEVELS, _on(f_decompose), forest, "X", [_ALPHABET]),
        ("phi", "word-side isomorphism", _COMBINATION, _on(phi), forest,
         "X", [_ALPHABET]),
        ("phi-inv", "inverse of the word-side isomorphism", _COMBINATION,
         _on(phi_inverse), forest, "X", [_ALPHABET]),
        ("rho-graft", "grafting coaction", _TENSOR, _on(rho_graft), forest,
         "X", [_ALPHABET]),
        ("translate", "shift decorations by a primitive vector",
         _COMBINATION, _translate, _forests, "X",
         [_ALPHABET, ("--v", {"required": True,
                              "help": 'entries "letter=expr" joined by ";"'}),
          _MAX_DEGREE]),
        ("lift", "exponential character of letter increments", _CHARACTER,
         _lift, None, "",
         [("--increments", {"required": True,
                            "help": 'pairs "letter=value" joined by ","'}),
          ("--N", {"type": int, "required": True,
                   "help": "truncation degree"})]),
        ("chen", "convolve two character files", _CHARACTER,
         _on(char_convolve), _characters, "X Y", []),
        ("embed", "move a character file to the word side", _CHARACTER,
         _on(embed_rough_path), _characters, "X", []),
        ("basis", "list basis forests of a degree", _LISTING, _basis, None,
         "", [_ALPHABET, _DEGREE]),
        ("reg-product", "decorated word product", _REG_COMBINATION,
         _on(reg_assoc_product), tree, "A B", []),
        ("reg-graft", "deformed grafting", _REG_COMBINATION, _on(reg_graft),
         tree, "A B", []),
        ("reg-gl-product", "decorated Grossman-Larson product",
         _REG_COMBINATION, _on(reg_gl_product), tree, "A B", []),
        ("reg-mkw-coproduct", "dual coproduct of the decorated product",
         _TENSOR, _up_to(deformed_mkw_coproduct), _decorated, "X",
         [_MAX_DEGREE]),
        ("reg-phi", "decorated word-side isomorphism", _REG_COMBINATION,
         _up_to(phi_reg), _decorated, "X", [_MAX_DEGREE]),
        ("reg-phi-inv", "inverse decorated isomorphism", _REG_COMBINATION,
         _up_to(phi_reg_inverse), _decorated, "X", [_MAX_DEGREE]),
        ("reg-basis", "list decorated trees of a degree", _LISTING,
         _reg_basis, None, "",
         [_DEGREE, ("--dim", {"type": int, "default": 1}),
          ("--max-norm", {"type": int, "default": None})]),
        ("verify", "run a property suite and report", _REPORT,
         lambda args: run_suite(args.suite, args.max_degree,
                                _alphabet(args) or ("o",)), None, "",
         [_ALPHABET, ("--suite", {"required": True,
                                  "choices": suite_names()}), _MAX_DEGREE]),
    ]
    for name, help_, kind, fn, parse, positionals, options in rows:
        sp = sub.add_parser(name, help=help_)
        for arg in positionals.split():
            sp.add_argument(arg)
        sp.add_argument("--output", choices=("text", "json"), default="text")
        for flag, settings in options:
            sp.add_argument(flag, **settings)
        sp.set_defaults(kind=kind,
                        run=partial(_run, fn, parse, positionals.split()))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        value = args.run(args)
        _emit(args, value, args.kind)
    except ForestSyntaxError as err:
        print(f"parse error: {err.args[0]}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 1 if args.kind is _REPORT and not value["ok"] else 0


if __name__ == "__main__":
    sys.exit(main())
