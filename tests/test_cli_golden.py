"""Every subcommand prints the same bytes and exits as recorded.

``data/cli.json`` holds, for each argument list in ``CASES``, the exit
code, standard output and standard error of ``main``, plus each
subparser's arguments.  Character files are written to a temporary
directory; ``{tmp}`` stands for it in the arguments and in the recorded
output.  Usage messages are wrapped at 80 columns.  Each success case runs once as given and once with
``--output json``.  To re-record after an intended change of output, run
this file as a script.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from postlie.cli import build_parser, main  # noqa: E402

GOLDEN = Path(__file__).parent / "data" / "cli.json"

CHAR_AB = """{
  "N": 2,
  "flavor": "mkw-character",
  "values": {"[a]": "1/2", "[b]": "-1/3", "[a[a]]": "1/8",
             "[a[b]]": "-1/12", "[a][a]": "1/8", "[a][b]": "-1/12",
             "[b[a]]": "-1/12", "[b[b]]": "1/18", "[b][a]": "-1/12",
             "[b][b]": "1/18"}
}"""

FILES = {
    "ab.json": CHAR_AB,
    "o.json": '{"N": 3, "flavor": "mkw-character", "values": '
              '{"[o]": "1/3", "[o[o]]": "1/18", "[o][o]": 2}}',
    "deep.json": '{"N": 40, "values": {}, "flavor": "mkw"}',
    "neg.json": '{"N": -1, "values": {}, "flavor": "mkw"}',
    "short.json": '{"N": 2}',
    "list.json": '[1, 2]',
    "strn.json": '{"N": "2", "values": {}, "flavor": "mkw"}',
    "word.json": '{"N": 2, "values": {"[o]": "half"}, "flavor": "mkw"}',
    "float.json": '{"N": 2, "values": {"[o]": 0.5}, "flavor": "mkw"}',
    "badkey.json": '{"N": 2, "values": {"[o": "1"}, "flavor": "mkw"}',
    "notjson.json": "N = 2",
}

DEGREE_12 = "[o]" * 6 + "[o[o[o[o[o[o]]]]]]"

# run with and without --output json
SUCCESS = [
    ["graft", "[a]", "[b[c]]"],
    ["graft", "[a]+2*[b]", "[a][b]", "--alphabet", "a,b"],
    ["gl-product", "[a][b]", "[c]"],
    ["gl-product", "1/2*[o]", "1-[o[o]]"],
    ["mkw-coproduct", "[a[b]][c]"],
    ["mkw-coproduct", "0"],
    ["antipode", "[a[b]][c]"],
    ["antipode", "[a[b]][c]", "--which", "gl"],
    ["antipode", "[a[b]][c]", "--which", "concat"],
    ["antipode", "[o]", "--which", "mkw", "--alphabet", "o"],
    ["natural-growth", "[a]", "[b[c]]"],
    ["pi", "[a][b]"],
    ["pi", "[a[b]][c] - 3*[c][a[b]]"],
    ["f-decompose", "[b[a]][c]"],
    ["f-decompose", "[a[b[c]]]"],
    ["f-decompose", "0"],
    ["phi", "[a][b[c]]"],
    ["phi-inv", "[a][b[c]]"],
    ["rho-graft", "[a[b]]"],
    ["translate", "[o]", "--v", "o=1/2*[o]", "--max-degree", "2"],
    ["translate", "[o[o]]", "--v", "o=[o]; ", "--max-degree", "1"],
    ["translate", "[a[b]]", "--v", "a=[b];b=2*[a]"],
    ["lift", "--increments", "a=1/2, b=-1/3", "--N", "2"],
    ["chen", "{tmp}/ab.json", "{tmp}/ab.json"],
    ["chen", "{tmp}/o.json", "{tmp}/o.json"],
    ["embed", "{tmp}/ab.json"],
    ["basis", "--degree", "2", "--alphabet", "a,b"],
    ["basis", "--degree", "3"],
    ["basis", "--degree", "0"],
    ["reg-product", "[o{1}]", "[o{1}]+[o{0}[o{0}]{1}]"],
    ["reg-graft", "[o{1}]", "[o{0}[o{0}]{0}]"],
    ["reg-gl-product", "[o{1}]", "[o{0}[o{0}]{0}]"],
    ["reg-mkw-coproduct", "[o{1}[o{0}]{0}]"],
    ["reg-mkw-coproduct", "[o{1}]", "--max-degree", "3"],
    ["reg-phi", "[o{0}[o{0}]{0}]"],
    ["reg-phi", "[o{1}]", "--max-degree", "3"],
    ["reg-phi-inv", "[o{0}[o{0}]{0}]", "--max-degree", "2"],
    ["reg-basis", "--degree", "2"],
    ["reg-basis", "--degree", "2", "--dim", "2", "--max-norm", "1"],
    ["verify", "--suite", "gl-duality", "--max-degree", "2"],
    ["verify", "--suite", "post-lie-axioms", "--max-degree", "2",
     "--alphabet", "a,b"],
    ["verify", "--suite", "regstruct-phi", "--max-degree", "2"],
]

FAILURE = [
    # exit 2: malformed expressions, with the position
    ["graft", "[a", "[b]"],
    ["gl-product", "[a]", "[b]]"],
    ["graft", "[a]", "[b]", "--alphabet", "a"],
    ["pi", "2*"],
    ["reg-product", "[o{1", "[o{1}]"],
    ["reg-mkw-coproduct", "[o{x}]"],
    ["translate", "[o]", "--v", "o=[o"],
    ["chen", "{tmp}/badkey.json", "{tmp}/ab.json"],
    # exit 1: degree caps and negative sizes
    ["graft", "[o]" * 8, "[o]"],
    ["gl-product", "[o]", "[o[o[o[o[o[o[o[o]]]]]]]]"],
    ["natural-growth", "[o]" * 8, "[o]"],
    ["reg-gl-product", "[o{1}]", "[o{0}" * 9 + "]" * 9],
    ["reg-graft", "[o{8}]", "[o{0}]"],
    ["pi", DEGREE_12],
    ["mkw-coproduct", DEGREE_12, "--output", "json"],
    ["antipode", DEGREE_12, "--which", "gl"],
    ["f-decompose", DEGREE_12],
    ["translate", DEGREE_12, "--v", "o=[o]"],
    ["translate", "[o]", "--v", "o=[o]", "--max-degree", "8"],
    ["translate", "[o]", "--v", "o=[o]", "--max-degree", "-1"],
    ["lift", "--increments", "o=1", "--N", "8"],
    ["lift", "--increments", "o=1", "--N", "-1"],
    ["lift", "--increments", "o=1/2", "--N", "0"],
    ["chen", "{tmp}/deep.json", "{tmp}/ab.json"],
    ["chen", "{tmp}/ab.json", "{tmp}/deep.json"],
    ["embed", "{tmp}/neg.json"],
    ["basis", "--degree", "8"],
    ["basis", "--degree", "-3"],
    ["reg-mkw-coproduct", "[o{2}]", "--max-degree", "1"],
    ["reg-mkw-coproduct", "[o{9}]"],
    ["reg-phi", "[o{1}]", "--max-degree", "8"],
    ["reg-phi-inv", "[o{0}" * 9 + "]" * 9],
    ["reg-basis", "--degree", "-2"],
    ["reg-basis", "--degree", "2", "--max-norm", "-1"],
    ["reg-basis", "--degree", "2", "--max-norm", "9"],
    ["verify", "--suite", "gl-duality", "--max-degree", "8"],
    # exit 1: over-wide listings
    ["basis", "--degree", "7", "--alphabet", "a,b,c,d"],
    ["reg-basis", "--degree", "4", "--dim", "40"],
    ["reg-basis", "--degree", "1", "--dim", "0"],
    # exit 1: other bad input
    ["graft", "[a]", "[a]", "--alphabet", " , "],
    ["verify", "--suite", "gl-duality", "--max-degree", "1",
     "--alphabet", ","],
    ["f-decompose", "1+[a]"],
    ["translate", "[o]", "--v", "o=[o][o]", "--max-degree", "2"],
    ["translate", "[o]", "--v", "o"],
    ["lift", "--increments", "o", "--N", "2"],
    ["lift", "--increments", "o=half", "--N", "2"],
    ["chen", "{tmp}/missing.json", "{tmp}/ab.json"],
    ["embed", "{tmp}/short.json"],
    ["embed", "{tmp}/list.json"],
    ["embed", "{tmp}/strn.json"],
    ["embed", "{tmp}/word.json"],
    ["embed", "{tmp}/float.json"],
    ["embed", "{tmp}/notjson.json"],
    # exit 2 from argparse: unknown or missing arguments
    ["lift", "--N", "2"],
    ["antipode", "[o]", "--which", "bch"],
    ["verify", "--suite", "nope"],
    ["graft", "[o]"],
    ["chen", "{tmp}/ab.json", "--alphabet", "a"],
]

CASES = SUCCESS + [a + ["--output", "json"] for a in SUCCESS] + FAILURE


def run_case(argv: list[str], tmp: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([a.replace("{tmp}", str(tmp)) for a in argv])
        except SystemExit as stop:
            code = stop.code
    return {"argv": argv, "code": code,
            "stdout": out.getvalue().replace(str(tmp), "{tmp}"),
            "stderr": err.getvalue().replace(str(tmp), "{tmp}")}


def write_files(tmp: Path) -> None:
    for name, text in FILES.items():
        (tmp / name).write_text(text, encoding="utf-8")


def arguments() -> dict:
    """Each subcommand's help and arguments: flags or positional name, and
    their settings."""
    sub = build_parser()._subparsers._group_actions[0]
    helps = {a.dest: a.help for a in sub._choices_actions}
    return {name: {"help": helps[name],
                   "arguments": [{"flags": a.option_strings or [a.dest],
                                  "required": a.required,
                                  "default": a.default,
                                  "type": a.type.__name__ if a.type else None,
                                  "choices": list(a.choices) if a.choices
                                  else None,
                                  "help": a.help}
                                 for a in sp._actions if a.dest != "help"]}
            for name, sp in sub.choices.items()}


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    write_files(path)
    return path


@pytest.fixture(autouse=True)
def default_env(monkeypatch):
    monkeypatch.delenv("POSTLIE_DEGREE_CAP", raising=False)
    monkeypatch.setenv("COLUMNS", "80")


def test_every_case_is_recorded():
    assert [c["argv"] for c in json.loads(GOLDEN.read_text())["cases"]] \
        == CASES


def test_subcommand_arguments_are_as_recorded():
    assert arguments() == json.loads(GOLDEN.read_text())["arguments"]


@pytest.mark.parametrize("i", range(len(CASES)),
                         ids=[f"{i:03d}-{c[0]}" for i, c in enumerate(CASES)])
def test_case_prints_the_recorded_output(i, tmp):
    assert run_case(CASES[i], tmp) == json.loads(GOLDEN.read_text())["cases"][i]


if __name__ == "__main__":
    os.environ.pop("POSTLIE_DEGREE_CAP", None)
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as d:
        write_files(Path(d))
        cases = [run_case(c, Path(d)) for c in CASES]
    GOLDEN.write_text(json.dumps({"arguments": arguments(), "cases": cases},
                                 indent=1) + "\n")
