"""Command line driver, exercised in process through main()."""

import json
import time

import pytest

from postlie.cli import main
from postlie.forest import MAX_NESTING


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_graft_text(capsys):
    code, out, _ = run(capsys, "graft", "[a]", "[b[c]]")
    assert code == 0
    assert out.strip() == "[b[a][c]] + [b[c[a]]]"


def test_gl_product_json(capsys):
    code, out, _ = run(capsys, "gl-product", "[a]", "[b]", "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert sorted(t["coeff"] for t in data["terms"]) == ["1", "1"]
    from postlie.exprs import lincomb_from_json
    from postlie.forest import parse_forest
    from postlie.lincomb import LinComb

    got = lincomb_from_json(data)
    assert got == LinComb.basis(parse_forest("[a][b]")) \
        + LinComb.basis(parse_forest("[b[a]]"))


def test_mkw_coproduct_text(capsys):
    code, out, _ = run(capsys, "mkw-coproduct", "[a[b]]")
    assert code == 0
    assert out.strip() == "1 (x) [a[b]] + [b] (x) [a] + [a[b]] (x) 1"


def test_antipode_flavors(capsys):
    code, out, _ = run(capsys, "antipode", "[a]")
    assert (code, out.strip()) == (0, "-[a]")
    code, out, _ = run(capsys, "antipode", "[a][b]", "--which", "gl")
    assert code == 0 and "[b][a]" in out


def test_natural_growth_scale(capsys):
    code, out, _ = run(capsys, "natural-growth", "[a]", "[b[c]]")
    assert code == 0
    assert "1/2*" in out


def test_pi_and_phi(capsys):
    code, out, _ = run(capsys, "pi", "[a][b]")
    assert (code, out.strip()) == (0, "[a][b] - [b[a]]")
    code, out, _ = run(capsys, "phi", "[a][b]")
    assert (code, out.strip()) == (0, "[a][b] - [b[a]]")
    code, out, _ = run(capsys, "phi-inv", "[a][b]")
    assert (code, out.strip()) == (0, "[a][b] + [b[a]]")


def test_f_decompose_levels(capsys):
    code, out, _ = run(capsys, "f-decompose", "[b[a]]")
    assert code == 0
    assert out.splitlines() == ["level 2: [a] (x) [b]"]


def test_f_decompose_refuses_a_constant_component(capsys):
    code, out, err = run(capsys, "f-decompose", "1+[a]")
    assert (code, out) == (1, "")
    assert err.strip() == "error: constants have no fold decomposition"


def test_translate(capsys):
    code, out, _ = run(capsys, "translate", "[o]", "--v", "o=1/2*[o]",
                       "--max-degree", "2")
    assert code == 0
    assert out.strip() == "3/2*[o]"


def test_translate_checks_the_vector_as_written(capsys):
    # an entry above the cutoff is still checked whole, not cut to it first
    code, out, err = run(capsys, "translate", "[o]", "--v", "o=[o][o]")
    assert (code, out) == (1, "")
    assert err == ("error: translation term for decoration 'o' is not "
                   "primitive: [o] (x) [o]: 2\n")


def test_translate_vector_entry_degree_cap_exit_1(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "translate", "[o]", "--v",
                         f"o=[o[o]];a={DEGREE_12}")
    assert time.perf_counter() - start < 5
    assert (code, out) == (1, "")
    assert err.startswith("error: degree of vector entry 'a' 12 exceeds")
    assert "POSTLIE_DEGREE_CAP" in err


def test_basis_listing(capsys):
    code, out, _ = run(capsys, "basis", "--degree", "2", "--alphabet", "a")
    assert code == 0
    assert out.split() == ["[a[a]]", "[a][a]"]


def test_lift_chen_embed_pipeline(tmp_path, capsys):
    xp = tmp_path / "x.json"
    yp = tmp_path / "y.json"
    code, out, _ = run(capsys, "lift", "--increments", "o=1/2", "--N", "3",
                       "--output", "json")
    assert code == 0
    xp.write_text(out)
    code, out, _ = run(capsys, "lift", "--increments", "o=1/3", "--N", "3",
                       "--output", "json")
    assert code == 0
    yp.write_text(out)
    code, chen_out, _ = run(capsys, "chen", str(xp), str(yp), "--output",
                            "json")
    assert code == 0
    code, direct, _ = run(capsys, "lift", "--increments", "o=5/6", "--N", "3",
                          "--output", "json")
    assert code == 0
    assert json.loads(chen_out) == json.loads(direct)
    code, emb, _ = run(capsys, "embed", str(xp), "--output", "json")
    assert code == 0
    assert json.loads(emb)["flavor"] == "tensor-character"


def test_lift_csv_default(capsys):
    code, out, _ = run(capsys, "lift", "--increments", "o=1/2", "--N", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "forest,value"
    assert "[o],1/2" in lines


def test_reg_commands(capsys):
    code, out, _ = run(capsys, "reg-product", "[o{1}]", "[o{1}]")
    assert (code, out.strip()) == (0, "[o{2}]")
    code, out, _ = run(capsys, "reg-gl-product", "[o{1}]", "[o{0}[o{0}]{0}]")
    assert code == 0
    assert out.strip() == "[o{0}[o{1}]{0}] + [o{1}[o{0}]{0}]"
    code, out, _ = run(capsys, "reg-basis", "--degree", "1")
    assert code == 0 and len(out.split()) == 2


@pytest.mark.parametrize("argv,want", [
    (("reg-gl-product", "1 + [o{1,0}]", "[o{0,1}]"), "[o{0,1}] + [o{1,1}]"),
    (("reg-phi", "1 + [o{0,1}]"), "[o{0,0}] + [o{0,1}]"),
    (("reg-mkw-coproduct", "2 + [o{1,0}]"),
     "2*[o{0,0}] (x) [o{0,0}] + [o{0,0}] (x) [o{1,0}] + [o{1,0}] (x) [o{0,0}]"),
])
def test_reg_constant_takes_the_dimension_of_the_words(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert (code, out.strip(), err) == (0, want, "")


def test_reg_mkw_degree_guard(capsys):
    code, out, err = run(capsys, "reg-mkw-coproduct", "[o{2}]",
                         "--max-degree", "1")
    assert code == 1
    assert "error:" in err


def test_verify_text_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "translation",
                       "--max-degree", "2")
    assert code == 0
    lines = out.splitlines()
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert "suite translation: PASS" in lines[-1]


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "gl-duality",
                       "--max-degree", "2", "--output", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["suite"] == "gl-duality" and rep["ok"]


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "graft", "[a", "[b]")
    assert code == 2
    assert err.startswith("parse error:")
    assert "position" in err


def test_degree_cap_exit_1(capsys):
    code, _, err = run(capsys, "verify", "--suite", "gl-duality",
                       "--max-degree", "8")
    assert code == 1
    assert "POSTLIE_DEGREE_CAP" in err


@pytest.mark.parametrize("raw, message", [
    ("seven", "POSTLIE_DEGREE_CAP must be an integer, got 'seven'"),
    ("0", "POSTLIE_DEGREE_CAP must be at least 1"),
])
def test_bad_degree_cap_exit_1(capsys, monkeypatch, raw, message):
    monkeypatch.setenv("POSTLIE_DEGREE_CAP", raw)
    code, out, err = run(capsys, "verify", "--suite", "gl-duality",
                         "--max-degree", "2")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_missing_character_file_exit_1(tmp_path, capsys):
    code, _, err = run(capsys, "chen", str(tmp_path / "nope.json"),
                       str(tmp_path / "also.json"))
    assert code == 1


def test_deterministic_output(capsys):
    code1, out1, _ = run(capsys, "gl-product", "[a][b]", "[c]")
    code2, out2, _ = run(capsys, "gl-product", "[a][b]", "[c]")
    assert code1 == code2 == 0 and out1 == out2


DEEP = 1300


def test_deep_tree_nesting_exit_2(capsys):
    code, _, err = run(capsys, "graft", "[o" * DEEP + "]" * DEEP, "[o]")
    assert code == 2
    assert f"(at position {2 * MAX_NESTING})" in err


def test_deep_reg_tree_nesting_exit_2(capsys):
    code, _, err = run(capsys, "reg-gl-product",
                       "[o" * DEEP + "{1}" + "]" * DEEP, "[o{1}]")
    assert code == 2
    assert f"(at position {2 * MAX_NESTING})" in err


def test_deep_parenthesis_nesting_exit_2(capsys):
    code, _, err = run(capsys, "pi", "(" * DEEP + "[o]" + ")" * DEEP)
    assert code == 2
    assert f"(at position {MAX_NESTING})" in err


def test_nesting_at_the_cap_still_parses(capsys):
    code, out, _ = run(capsys, "pi", "(" * MAX_NESTING + "2*3*[o]"
                       + ")" * MAX_NESTING)
    assert (code, out.strip()) == (0, "6*[o]")


@pytest.mark.parametrize("argv", [
    ("graft", "[o]" * 8, "[o]"),
    ("gl-product", "[o]", "[o[o[o[o[o[o[o[o]]]]]]]]"),
    ("natural-growth", "[o]" * 8, "[o]"),
    ("reg-gl-product", "[o{1}]", "[o{0}" * 9 + "]" * 9),
    ("reg-graft", "[o{8}]", "[o{0}]"),
])
def test_binary_operand_degree_cap_exit_1(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "POSTLIE_DEGREE_CAP" in err


DEGREE_12 = "[o]" * 6 + "[o[o[o[o[o[o]]]]]]"


@pytest.mark.parametrize("command", ["pi", "phi", "phi-inv", "mkw-coproduct",
                                     "rho-graft", "f-decompose", "antipode"])
def test_unary_operand_degree_cap_exit_1(capsys, command):
    start = time.perf_counter()
    code, _, err = run(capsys, command, DEGREE_12)
    assert time.perf_counter() - start < 5
    assert code == 1
    assert "degree of X 12" in err and "POSTLIE_DEGREE_CAP" in err


@pytest.mark.parametrize("text", [
    '{"N": 2}',
    '[1, 2]',
    '{"N": "2", "values": {}, "flavor": "mkw"}',
    '{"N": 2, "values": {"[o]": "half"}, "flavor": "mkw"}',
    'N = 2',
    '{"N": 2, "values": {"[o]": 1, " [o]": 2}, "flavor": "mkw"}',
])
@pytest.mark.parametrize("command", ["chen", "embed"])
def test_malformed_character_file_exit_1(tmp_path, capsys, command, text):
    path = tmp_path / "x.json"
    path.write_text(text)
    files = (str(path),) * (2 if command == "chen" else 1)
    code, out, err = run(capsys, command, *files)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["chen", "embed"])
def test_character_truncation_degree_cap_exit_1(tmp_path, capsys, command):
    path = tmp_path / "x.json"
    path.write_text('{"N": 40, "values": {}, "flavor": "mkw"}')
    files = (str(path),) * (2 if command == "chen" else 1)
    code, _, err = run(capsys, command, *files)
    assert code == 1
    assert err.startswith(f"error: {path}: ") and "POSTLIE_DEGREE_CAP" in err


@pytest.mark.parametrize("argv", [
    ("basis", "--degree", "-3"),
    ("reg-basis", "--degree", "-2"),
    ("reg-basis", "--degree", "2", "--max-norm", "-1"),
    ("translate", "[o]", "--v", "o=[o]", "--max-degree", "-1"),
])
def test_negative_size_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "must be nonnegative" in err


def test_basis_alphabet_width_cap_exit_1(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "basis", "--degree", "7",
                         "--alphabet", "a,b,c,d")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert "7028736 forests" in err and "54912" in err
    assert "POSTLIE_DEGREE_CAP" in err


def test_reg_basis_width_cap_exit_1(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "reg-basis", "--degree", "4", "--dim", "40")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert "460264 trees" in err and "46821" in err
    assert "POSTLIE_DEGREE_CAP" in err


@pytest.mark.parametrize("max_norm", [None, 0, 1, 2])
def test_reg_basis_size_counts_the_enumeration(max_norm):
    from postlie.cli import _reg_basis_size
    from postlie.regstruct import enumerate_reg_trees
    for d in (1, 2, 3):
        for n in range(5):
            assert _reg_basis_size(n, d, max_norm) \
                == len(enumerate_reg_trees(n, d, max_norm))


@pytest.mark.parametrize("argv,position", [
    (("pi", "1/0*[o]"), 0),
    (("translate", "[o]", "--v", "o=1/0*[o]"), 0),
    (("reg-gl-product", "1/0*[o{1}]", "[o{1}]"), 0),
    (("graft", "[o]", "[o] + 2/0*[o]"), 6),
])
def test_zero_denominator_exit_2(capsys, argv, position):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    # an error in a --v value names its entry; the position is in the value
    where = f"value of vector entry {argv[3]!r}: " if argv[0] == "translate" \
        else ""
    assert err == (f"parse error: {where}zero denominator "
                   f"(at position {position})\n")


def test_zero_denominator_increment_exit_1(capsys):
    code, out, err = run(capsys, "lift", "--increments", "o=1/2, a=1/0",
                         "--N", "2")
    assert (code, out) == (1, "")
    assert err == "error: increment 'a=1/0' has a zero denominator\n"


@pytest.mark.parametrize("argv,entry,letter", [
    (("lift", "--increments", "o=1,o=2", "--N", "2"), "increment 'o=2'", "o"),
    (("lift", "--increments", "a=1, b=2, a =1", "--N", "2"),
     "increment 'a =1'", "a"),
    (("translate", "[o]", "--v", "o=[o];o=2*[o]"), "vector entry 'o=2*[o]'",
     "o"),
])
def test_repeated_letter_exit_1(capsys, argv, entry, letter):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {entry} repeats the letter {letter!r}\n"


@pytest.mark.parametrize("argv,message", [
    (("lift", "--increments", "=1", "--N", "2"),
     "increment '=1': letter '' is not one token"),
    (("translate", "[o]", "--v", "=[o]"),
     "vector entry '=[o]': letter '' is not one token"),
    (("translate", "[o]", "--v", "x-y=[o]"),
     "vector entry 'x-y=[o]': letter 'x-y' is not one token"),
    (("basis", "--degree", "2", "--alphabet", "a]b,c"),
     "alphabet letter 'a]b' is not one token"),
])
def test_letter_that_is_not_one_token_exit_1(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_failed_suite_exit_1(capsys, monkeypatch):
    import postlie.cli
    monkeypatch.setattr(postlie.cli, "run_suite", lambda *a: {
        "suite": "s", "max_degree": 1, "ok": False, "checks": [
            {"name": "law", "range": "degree <= 1", "status": "fail",
             "witness": "[o]"}]})
    code, out, _ = run(capsys, "verify", "--suite", "translation")
    assert code == 1
    assert out == ("FAIL  law [degree <= 1] witness: [o]\n"
                   "suite s: FAIL (0/1 checks, max degree 1)\n")
