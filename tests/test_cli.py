"""CLI behavior: exit codes, printed results, reports, difftest."""

import argparse
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lrec.cli
from lrec.cli import main
from lrec.evaluation import eval_cbn, eval_cbv, force_numeral
from lrec.gen import random_closed
from lrec.machine import machine_force_numeral, run
from lrec.parser import MAX_NAT, ParseError, lex, parse, parse_type
from lrec.terms import (App, Fuel, FuelExhausted, Lam, LetPair, Pair, Term,
                        Var, alpha_eq, numeral, pretty)
from lrec.types import NAT, check

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ------------------------------------------------------------------ check

def test_check_identity(capsys, tmp_path):
    f = write(tmp_path, "id.lrec", "\\x. x")
    code, out, err = run_cli(capsys, "check", f)
    assert (code, out, err) == (0, "?a -o ?a\n", "")


def test_check_fixpoint_reference(capsys, tmp_path):
    f = write(tmp_path, "y.lrec", "@Y[Nat]")
    code, out, _ = run_cli(capsys, "check", f)
    assert code == 0
    assert out == "(Nat -o Nat) -o Nat\n"


def test_check_nonlinear_exits_1(capsys, tmp_path):
    f = write(tmp_path, "bad.lrec", "\\x. x x")
    code, out, err = run_cli(capsys, "check", f)
    assert code == 1
    assert out == ""          # diagnostics never land on stdout
    assert "x" in err


def test_check_ground_flag(capsys, tmp_path):
    f = write(tmp_path, "id.lrec", "\\x. x")
    code, out, _ = run_cli(capsys, "check", "--ground", f)
    assert (code, out) == (0, "Nat -o Nat\n")


def test_check_llcim_calculus(capsys, tmp_path):
    f = write(tmp_path, "it.llcim", "iter(2, 0, \\x. S x)")
    code, out, _ = run_cli(capsys, "check", "--calculus", "llcim", f)
    assert (code, out) == (0, "Nat\n")
    g = write(tmp_path, "r.llcim", "rec(<0, 0>, 0, \\x. x, \\x. x)")
    code, out, err = run_cli(capsys, "check", "--calculus", "llcim", g)
    assert code == 1 and out == "" and "rec" in err


# ------------------------------------------------------------------- eval

def test_eval_force_nat_addition(capsys):
    code, out, _ = run_cli(capsys, "eval", "--force-nat",
                           str(CORPUS / "add23.lrec"))
    assert (code, out) == (0, "5\n")


def test_eval_prints_weak_head_value(capsys):
    code, out, _ = run_cli(capsys, "eval", str(CORPUS / "id0.lrec"))
    assert (code, out) == (0, "0\n")


def test_eval_strategy_and_literal_let(capsys):
    code, out, _ = run_cli(capsys, "eval", "--strategy", "cbv",
                           "--force-nat", str(CORPUS / "add23.lrec"))
    assert (code, out) == (0, "5\n")
    code, out, _ = run_cli(capsys, "eval", "--literal-let",
                           str(CORPUS / "letpair.lrec"))
    assert (code, out) == (0, "<2, 1>\n")


def test_eval_fuel_exhaustion_exits_2(capsys):
    code, out, err = run_cli(capsys, "eval", "--fuel", "100",
                             str(CORPUS / "delta.lrec"))
    assert code == 2 and out == "" and "fuel" in err


def test_eval_stuck_exits_3(capsys, tmp_path):
    f = write(tmp_path, "stuck.lrec", "let <a, b> = \\x. x in <a, b>")
    code, out, err = run_cli(capsys, "eval", f)
    assert code == 3 and out == "" and "stuck" in err


def test_eval_force_nat_on_pair_exits_3(capsys):
    code, out, err = run_cli(capsys, "eval", "--force-nat",
                             str(CORPUS / "copy4.lrec"))
    assert code == 3 and out == "" and "not a number" in err


def test_eval_open_input_exits_1(capsys, tmp_path):
    f = write(tmp_path, "open.lrec", "x")
    code, out, err = run_cli(capsys, "eval", f)
    assert code == 1 and out == ""


def test_fuel_env_override(capsys, monkeypatch):
    monkeypatch.setenv("LREC_FUEL", "3")
    code, _, err = run_cli(capsys, "eval", str(CORPUS / "add23.lrec"))
    assert code == 2 and "3" in err


@pytest.mark.parametrize("argv", [
    ["normalize", "--fuel", "-1", str(CORPUS / "delta.lrec")],
    ["eval", "--fuel", "-1", str(CORPUS / "delta.lrec")],
    ["machine", "--force-nat", "--fuel", "-5", str(CORPUS / "fix_id.lrec")],
    ["difftest", "--fuel", "-1", str(CORPUS)],
    ["eval", "--fuel", "abc", str(CORPUS / "add23.lrec")],
    # int() reads these, but a budget is a run of ASCII digits
    *(["eval", "--fuel", v, str(CORPUS / "add23.lrec")]
      for v in ("١٢", "1_000", " 7 ", "+9")),
    # ASCII digits, but more than int() converts
    ["eval", "--fuel", "9" * 5000, str(CORPUS / "add23.lrec")],
])
def test_negative_fuel_is_bad_input(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "--fuel" in err


@pytest.mark.parametrize("value", ["abc", "-3", "", "١٢", "1_000", " 7 ",
                                   "+9"])
def test_bad_fuel_env_is_bad_input(capsys, monkeypatch, value):
    monkeypatch.setenv("LREC_FUEL", value)
    code, out, err = run_cli(capsys, "eval", str(CORPUS / "add23.lrec"))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "LREC_FUEL" in err
    # commands without a budget never read it
    assert run_cli(capsys, "check", str(CORPUS / "add23.lrec"))[0] == 0
    # an explicit budget wins over it
    assert run_cli(capsys, "eval", "--fuel", "50",
                   str(CORPUS / "add23.lrec"))[0] == 0


@pytest.mark.parametrize("argv,names", [
    (["eval", "--bogus", str(CORPUS / "add23.lrec")], ["--bogus"]),
    ([], ["command"]),
    (["pcf"], ["pcf_command"]),
    (["difftest", "--n", "x", str(CORPUS)], ["--n", "'x'"]),
    (["machine", "--trace", "--force-nat", str(CORPUS / "add23.lrec")],
     ["--trace", "--force-nat"]),
    (["difftest", "--n", "-3", str(CORPUS)], ["--n", "-3"])],
    ids=["unknown flag", "no command", "pcf alone", "bad --n",
         "trace with force-nat", "negative --n"])
def test_bad_usage_is_bad_input(capsys, argv, names):
    """Every usage error is bad input: exit 1, one line, no usage block."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("invalid input: ")
    assert all(name in err for name in names)


# sha256 of each --help page at 80 columns, as argparse in Python 3.11
# prints them; the command table must rebuild them byte for byte
HELP_PAGES = {
    "": "82d07936baeb4a34491621f882032657a264e19c50258d9cbab4d9d2f64e0839",
    "check": "b09a4eac3d374a01f20e24149766866cdcffb804360bd3f3db991144b3b1e97d",
    "eval": "7ee3fe6f250607160ca25ae823f807e45029da497a7b9026c25042c244bb1374",
    "machine":
        "ff09c61d43512bc2a3313881599a958a3f9a5c1575090dedefa7ae0582c08345",
    "normalize":
        "6b28db9d509234fc2efe437b9a472e4b580b971326829a6e57554fff675ec5ad",
    "stdlib":
        "1768c6fcd18577a16fdf548d3ef622bf1ab9ad5c1b701783bd74c03519f6b4d5",
    "pcf": "06be0ec83acd80244b1cf5d06fce98120885a4493d0b34736bca6fd7d688209b",
    "pcf check":
        "35a15b40b36b8f7bfceec46caba6054420bcb8a71e55d987250b12e4d7ef70ae",
    "pcf eval":
        "8a5bc7b6548f31f167cd8ba869c305de9f6c4c9eba126153c8314cd00273bcd4",
    "pcf compile":
        "59f1140a5bf40388817f761398f4ecfa6d2f174a218d676cbf492990aaa5f89d",
    "difftest":
        "2ec2a17d0bb3279451bfe904b9db8edebc25ff5fdc374e565b22fb5f70500eaf",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's help layout varies across releases")
@pytest.mark.parametrize("words", sorted(HELP_PAGES))
def test_help_pages_are_unchanged(capsys, monkeypatch, words):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(words.split() + ["--help"])
    assert exit_.value.code == 0
    page = capsys.readouterr().out
    assert hashlib.sha256(page.encode()).hexdigest() == HELP_PAGES[words]


# ---------------------------------------------------------------- machine

def test_machine_trace_two_steps(capsys):
    code, out, _ = run_cli(capsys, "machine", "--trace",
                           str(CORPUS / "id0.lrec"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("1 app ")
    assert lines[1].startswith("2 abs ")
    assert lines[2] == "0"
    assert len(lines) == 3


def test_machine_force_nat(capsys):
    code, out, _ = run_cli(capsys, "machine", "--force-nat",
                           str(CORPUS / "mult34.lrec"))
    assert (code, out) == (0, "12\n")


def test_machine_fuel_exhaustion_exits_2(capsys):
    code, _, err = run_cli(capsys, "machine", "--fuel", "50",
                           str(CORPUS / "fix_id.lrec"))
    assert code == 2 and "fuel" in err


def test_machine_stuck_exits_3(capsys, tmp_path):
    f = write(tmp_path, "stuck.lrec", "let <a, b> = \\x. x in <a, b>")
    code, out, err = run_cli(capsys, "machine", f)
    assert code == 3 and out == "" and "stuck" in err


def test_cbv_on_the_compiled_y_runs_out_of_fuel(capsys, tmp_path):
    """CBV unfolds the compiled fixpoint without end: with no Python
    recursion left in the evaluator, that is a plain fuel exhaustion."""
    code, out, _ = run_cli(capsys, "pcf", "compile",
                           str(CORPUS / "fact3_plain.pcf"))
    assert code == 0
    f = write(tmp_path, "fact3.lrec", out)
    code, out, err = run_cli(capsys, "eval", "--strategy", "cbv",
                             "--force-nat", "--fuel", "1000000", f)
    assert (code, out, err) == (2, "", "fuel exhausted after 1000000\n")


def _deep_nest(levels: int) -> Term:
    """<0, 1> under `levels` wrappers, cycling through a split of the
    term (a Let premise), a split in the head of an application (App,
    then Let) and an identity applied to it (CBV's argument premise).
    Each split swaps the pair; an even number of swaps gives <0, 1>."""
    t = Pair(numeral(0), numeral(1))
    swapped = Pair(Var("b"), Var("a"))
    for i in range(levels):
        if i % 3 == 0:
            t = LetPair(t, "a", "b", swapped)
        elif i % 3 == 1:
            t = App(LetPair(t, "a", "b", Lam("f", App(Var("f"), swapped))),
                    Lam("q", Var("q")))
        else:
            t = App(Lam("p", Var("p")), t)
    return t


def test_engines_need_no_python_recursion_on_deep_derivations():
    t = _deep_nest(6_000)  # 4,000 swaps
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        outs = [eval_cbn(t, 1_000_000), eval_cbv(t, 1_000_000),
                run(t, 1_000_000)]
    finally:
        sys.setrecursionlimit(limit)
    for got in outs:
        assert isinstance(got, Pair)
        assert alpha_eq(got, Pair(numeral(0), numeral(1)))


# -------------------------------------------------------------- normalize

def test_normalize_divergent_exits_2(capsys):
    code, out, err = run_cli(capsys, "normalize", "--fuel", "100",
                             str(CORPUS / "delta.lrec"))
    assert code == 2 and out == "" and "fuel" in err


def test_normalize_trace(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--trace",
                           str(CORPUS / "id0.lrec"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1 Beta root 0"
    assert lines[-1] == "0"


def test_normalize_llcim(capsys, tmp_path):
    f = write(tmp_path, "it.llcim", "iter(2, 0, \\x. S x)")
    code, out, _ = run_cli(capsys, "normalize", "--calculus", "llcim", f)
    assert (code, out) == (0, "2\n")


# ---------------------------------------------------------------- reports

def test_report_file_has_fixed_fields(capsys, tmp_path):
    rep = tmp_path / "runs.jsonl"
    code, _, _ = run_cli(capsys, "eval", "--force-nat", "--report",
                         str(rep), str(CORPUS / "add23.lrec"))
    assert code == 0
    rec = json.loads(rep.read_text().splitlines()[0])
    assert list(rec) == ["command", "input", "outcome", "fuel_used",
                         "wall_ms"]
    assert rec["command"] == "eval"
    assert rec["outcome"] == "value 5"
    assert len(rec["input"]) == 64


def test_force_nat_reports_the_count(capsys, tmp_path):
    """A readback's record holds the units its cell used, for a number
    and for a value that is not one."""
    rep = tmp_path / "runs.jsonl"
    for name, code in (("add23.lrec", 0), ("letpair.lrec", 3)):
        path = str(CORPUS / name)
        t = lrec.cli._load(path, "lrec")[0]
        for argv, fn in (
                (["eval"], lambda c: force_numeral(t, c)),
                (["eval", "--strategy", "cbv"],
                 lambda c: force_numeral(t, c, cbv=True)),
                (["machine"], lambda c: machine_force_numeral(t, c))):
            cell = Fuel(4000)
            fn(cell)
            got = run_cli(capsys, *argv, "--force-nat", "--fuel", "4000",
                          "--report", str(rep), path)[0]
            rec = json.loads(rep.read_text().splitlines()[-1])
            assert (got, rec["fuel_used"]) == (code, 4000 - cell.remaining)
            assert rec["fuel_used"] > 0


def test_force_nat_literal_let_reports_its_count(capsys, tmp_path):
    """eval --force-nat passes --literal-let to the readback: the double
    application fires two Val and two App rules that the split does not."""
    f = write(tmp_path, "let.lrec", "let <a, b> = <1, 2> in @add a b")
    t = lrec.cli._load(f, "lrec")[0]
    rep = tmp_path / "runs.jsonl"
    for flags, literal_let, rules in (([], False, 20),
                                      (["--literal-let"], True, 24)):
        cell = Fuel(4000)
        assert force_numeral(t, cell, literal_let=literal_let) == 3
        assert 4000 - cell.remaining == rules
        code, out, _ = run_cli(capsys, "eval", "--force-nat", *flags,
                               "--fuel", "4000", "--report", str(rep), f)
        assert (code, out) == (0, "3\n")
        assert json.loads(rep.read_text().splitlines()[-1])["fuel_used"] \
            == rules


@pytest.mark.parametrize("argv", [
    ["check"], ["eval"], ["eval", "--force-nat"], ["machine"],
    ["normalize"]])
def test_a_report_that_cannot_be_written_prints_no_result(capsys, tmp_path,
                                                          argv):
    # the record is written before the result is printed
    f = write(tmp_path, "pred3.lrec", "@pred 3")
    code, out, err = run_cli(capsys, *argv, "--report", str(tmp_path), f)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and "Is a directory" in err


# ----------------------------------------------------------------- stdlib

def test_stdlib_prints_encoding(capsys):
    code, out, _ = run_cli(capsys, "stdlib", "add")
    assert code == 0
    t = parse(out.strip())
    assert check(t, [], parse_type("Nat -o Nat -o Nat")) is not None


def test_stdlib_typed_entry(capsys):
    code, out, _ = run_cli(capsys, "stdlib", "Y", "--type", "Nat")
    assert code == 0
    t = parse(out.strip())
    assert check(t, [], parse_type("(Nat -o Nat) -o Nat")) is not None


def test_stdlib_unknown_and_missing_type(capsys):
    code, out, err = run_cli(capsys, "stdlib", "nosuch")
    assert code == 1 and out == "" and "nosuch" in err
    code, out, err = run_cli(capsys, "stdlib", "Y")
    assert (code, out, err) == (1, "", "catalog entry 'Y' needs --type\n")
    code, out, err = run_cli(capsys, "stdlib", "add", "--type", "Nat")
    assert (code, out, err) == (1, "", "catalog entry 'add' takes no --type\n")


@pytest.mark.parametrize("name", ["I", "Y"])
def test_stdlib_empty_type_is_a_syntax_error(capsys, name):
    code, out, err = run_cli(capsys, "stdlib", name, "--type", "")
    assert (code, out, err) == (1, "", "syntax: line 1, col 1: expected a "
                                       "type\n")


# -------------------------------------------------------------------- pcf

def test_pcf_check(capsys):
    code, out, _ = run_cli(capsys, "pcf", "check", str(CORPUS / "fact.pcf"))
    assert (code, out) == (0, "Nat\n")


def test_pcf_check_open_exits_1(capsys, tmp_path):
    f = write(tmp_path, "open.pcf", "fun x : Nat . y")
    code, out, err = run_cli(capsys, "pcf", "check", f)
    assert code == 1 and out == "" and "y" in err


def test_pcf_eval(capsys):
    code, out, _ = run_cli(capsys, "pcf", "eval",
                           str(CORPUS / "fact3_plain.pcf"))
    assert (code, out) == (0, "6\n")


def test_pcf_eval_divergent_exits_2(capsys, tmp_path):
    f = write(tmp_path, "loop.pcf", "Y[Nat] (fun x : Nat . x)")
    code, _, err = run_cli(capsys, "pcf", "eval", "--fuel", "500", f)
    assert code == 2 and "fuel" in err


def test_pcf_compile_output_is_typed_source(capsys):
    code, out, _ = run_cli(capsys, "pcf", "compile",
                           str(CORPUS / "beta.pcf"))
    assert code == 0
    t = parse(out.strip())
    assert check(t, [], NAT) == NAT


# --------------------------------------------------------------- difftest

def _small_corpus(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "a_id.lrec").write_text("(\\x. x) 0")
    (d / "b_add.lrec").write_text("add = \\m n. rec(<m, 0>, n, \\x. S x, "
                                  "\\x. x); main = @add 1 2")
    (d / "c_bad.lrec").write_text("\\x. x x")
    (d / "d_beta.pcf").write_text("(fun x : Nat . succ x) 4")
    (d / "e_fn.pcf").write_text("succ")
    return d


def test_difftest_runs_and_skips(capsys, tmp_path):
    d = _small_corpus(tmp_path)
    code, out, err = run_cli(capsys, "difftest", str(d), "--n", "3")
    assert code == 0
    assert "skipped c_bad.lrec" in err
    assert "skipped e_fn.pcf" in err
    assert "0 disagreements" in err
    records = [json.loads(line) for line in out.splitlines()]
    assert all(list(r) == ["command", "input", "outcome", "fuel_used",
                           "wall_ms"] for r in records)
    kinds = {r["command"] for r in records}
    assert {"difftest/normalize", "difftest/eval", "difftest/machine",
            "difftest/pcf-ref", "difftest/pcf-compiled",
            "difftest/skip"} <= kinds


def test_difftest_deterministic_reports(capsys, tmp_path):
    d = _small_corpus(tmp_path)

    def snapshot():
        code, out, _ = run_cli(capsys, "difftest", str(d), "--n", "5",
                               "--seed", "7")
        assert code == 0
        return [{k: v for k, v in json.loads(line).items()
                 if k != "wall_ms"} for line in out.splitlines()]

    assert snapshot() == snapshot()


def test_difftest_names_the_counterexample(capsys, tmp_path, monkeypatch):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "one.lrec").write_text("(\\x. x) 0")
    monkeypatch.setattr("lrec.cli.run",
                        lambda t, fuel, on_step=None: numeral(9))
    code, _, err = run_cli(capsys, "difftest", str(d), "--n", "0")
    assert code == 1
    assert "disagreement" in err
    assert "(\\x. x) 0" in err     # the offending term, verbatim


def _nine(t, fuel, **kwargs):
    return numeral(9)


def _out_of_fuel(t, fuel, **kwargs):
    return FuelExhausted(t)


def _a_lambda(t, fuel, **kwargs):
    return Lam("x", Var("x"))


@pytest.mark.parametrize("faults, complaint", [
    ({"run": _out_of_fuel}, "machine and eval_cbn disagree on convergence"),
    ({"normalize": _a_lambda},
     "normal form \\x. x does not match the shape of type Nat"),
    ({"run": _nine, "eval_report": _nine},
     "eval_cbn value does not rejoin the normal form"),
])
def test_difftest_names_each_kind_of_fault(capsys, tmp_path, monkeypatch,
                                           faults, complaint):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "one.lrec").write_text("(\\x. x) 0")
    for name, fault in faults.items():
        monkeypatch.setattr(f"lrec.cli.{name}", fault)
    code, _, err = run_cli(capsys, "difftest", str(d), "--n", "0")
    assert code == 1
    assert err.startswith(f"disagreement: one.lrec: {complaint}: (\\x. x) 0\n")


def test_difftest_names_a_generated_counterexample(capsys, tmp_path,
                                                   monkeypatch):
    monkeypatch.setattr("lrec.cli.run", _out_of_fuel)
    code, _, err = run_cli(capsys, "difftest", str(tmp_path), "--n", "1")
    t = pretty(random_closed(random.Random(42))[0])
    assert code == 1
    assert err.startswith("disagreement: generated #0 (seed 42): machine and "
                          f"eval_cbn disagree on convergence: {t}\n")


def test_difftest_pcf_records_report_fuel(capsys, tmp_path):
    """pcf-ref holds the reference's steps, pcf-compiled the readback's
    rules (as `eval --force-nat` counts them), and a run out of fuel
    holds its budget."""
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "beta.pcf").write_text((CORPUS / "beta.pcf").read_text())
    compiled = write(tmp_path, "beta.lrec",
                     run_cli(capsys, "pcf", "compile", str(d / "beta.pcf"))[1])
    rep = tmp_path / "runs.jsonl"
    run_cli(capsys, "eval", "--force-nat", "--report", str(rep), compiled)
    rules = json.loads(rep.read_text())["fuel_used"]
    assert rules == 41
    for fuel, code, ref in (("1000", 0, ("value 5", 3)),
                            ("2", 1, ("fuel-exhausted", 2))):
        got, out, _ = run_cli(capsys, "difftest", str(d), "--n", "0",
                              "--fuel", fuel)
        records = {r["command"]: (r["outcome"], r["fuel_used"])
                   for r in map(json.loads, out.splitlines())}
        assert got == code
        assert records == {"difftest/pcf-ref": ref,
                           "difftest/pcf-compiled": ("value 5", rules)}


def test_difftest_missing_dir_exits_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "difftest", str(tmp_path / "nope"))
    assert code == 1


# ----------------------------------------------------------- bad bytes

NOT_UTF8 = b"0 \n \xff\xfe0"   # the bad byte is line 2, col 2


@pytest.mark.parametrize("argv,name", [
    (["check"], "bad.lrec"), (["eval"], "bad.lrec"),
    (["pcf", "eval"], "bad.pcf"), (["pcf", "check"], "bad.pcf")])
def test_non_utf8_input_exits_1(capsys, tmp_path, argv, name):
    p = tmp_path / name
    p.write_bytes(NOT_UTF8)
    code, out, err = run_cli(capsys, *argv, str(p))
    assert code == 1
    assert out == ""
    assert err == "syntax: line 2, col 2: input is not UTF-8 " \
                  "(invalid start byte)\n"


@pytest.mark.parametrize("name,text,col", [
    ("sq.lrec", "²", 1), ("half.lrec", "\\x. x ½", 7),
    ("twelve.lrec", "Ⅻ", 1), ("sq.pcf", "(fun x : Nat . x) ²", 19)])
def test_non_decimal_digit_exits_1(capsys, tmp_path, name, text, col):
    """Numerals are decimal digits only: int() rejects "²", which used
    to crash the parser after the lexer took it for a numeral."""
    argv = ["pcf", "eval"] if name.endswith(".pcf") else ["check"]
    code, out, err = run_cli(capsys, *argv, write(tmp_path, name, text))
    assert (code, out) == (1, "")
    assert err == f"syntax: line 1, col {col}: unexpected character " \
                  f"{text[col - 1]!r}\n"


def test_linearity_diagnostic_is_capped(capsys, tmp_path):
    """8,000 binders of one name, all but the innermost unused: 7,999
    violations, of which the one-line diagnostic names three."""
    f = write(tmp_path, "shadow.lrec", "\\x. " * 8000 + "x")
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "check", f)
    assert time.perf_counter() - t0 < 5
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and len(err.encode()) < 1024
    assert err.startswith("syntax: at root: binder x unused in the body; ")
    assert err.endswith(" (and 7996 more)\n")


@pytest.mark.parametrize("argv,text", [
    (["check"], "(" * 50_000 + "0" + ")" * 50_000),
    (["check"], "((\\x. x) " * 8_000 + "0" + ")" * 8_000),
    (["eval"], "((\\x. x) " * 8_000 + "0" + ")" * 8_000)],
    ids=["parens check", "identities check", "identities eval"])
def test_deep_nesting_is_bad_input(capsys, tmp_path, argv, text):
    code, out, err = run_cli(capsys, *argv, write(tmp_path, "deep.lrec", text))
    assert (code, out) == (1, "")
    assert err == "invalid input: nested too deeply\n"


@pytest.mark.parametrize("text,where", [
    ("9" * 5000, "line 1, col 1"), ("100001", "line 1, col 1"),
    ("-- after a comment\n  100001", "line 2, col 3"),
    ("0" * 5000 + "100001", "line 1, col 1")],
    ids=["5000 digits", "just over", "on line 2", "zero-padded"])
@pytest.mark.parametrize("argv,suffix", [
    (["check"], ".lrec"), (["normalize"], ".lrec"),
    (["pcf", "eval"], ".pcf"), (["pcf", "compile"], ".pcf")],
    ids=["check", "normalize", "pcf eval", "pcf compile"])
def test_a_numeral_over_the_limit_is_bad_input(capsys, tmp_path, argv,
                                               suffix, text, where):
    code, out, err = run_cli(capsys, *argv, write(tmp_path, "big" + suffix,
                                                  text))
    assert (code, out) == (1, "")
    assert err == f"syntax: {where}: numeral literal larger than {MAX_NAT}\n"


def test_the_numeral_limit_is_inclusive():
    for text, n in (("100000", 100_000), ("0" * 5000 + "100000", 100_000),
                    ("99999", 99_999), ("007", 7)):
        assert [tok.kind for tok in lex(text)] == ["nat", "eof"], n
        assert alpha_eq(parse(text), numeral(n)), n
    with pytest.raises(ParseError, match="larger than 100000"):
        lex("100001")


def test_difftest_skips_non_utf8_files(capsys, tmp_path):
    d = _small_corpus(tmp_path)
    (d / "f_bytes.lrec").write_bytes(NOT_UTF8)
    (d / "g_bytes.pcf").write_bytes(NOT_UTF8)
    code, out, err = run_cli(capsys, "difftest", str(d), "--n", "1")
    assert code == 0
    assert "skipped f_bytes.lrec: line 2, col 2: input is not UTF-8" in err
    assert "skipped g_bytes.pcf: line 2, col 2: input is not UTF-8" in err
    assert "7 corpus entries (4 skipped)" in err
    skips = [json.loads(line) for line in out.splitlines()
             if '"difftest/skip"' in line]
    assert len(skips) == 4


def test_difftest_skips_too_deep_files(capsys, tmp_path):
    d = _small_corpus(tmp_path)
    (d / "f_deep.lrec").write_text("((\\x. x) " * 8_000 + "0" + ")" * 8_000)
    (d / "g_deep.pcf").write_text("(" * 50_000 + "0" + ")" * 50_000)
    code, out, err = run_cli(capsys, "difftest", str(d), "--n", "1")
    assert code == 0
    assert "skipped f_deep.lrec: nested too deeply" in err
    assert "skipped g_deep.pcf: nested too deeply" in err
    assert "7 corpus entries (4 skipped)" in err
    skips = [json.loads(line) for line in out.splitlines()
             if '"difftest/skip"' in line]
    assert [s["outcome"] for s in skips].count(
        "skipped: nested too deeply") == 2


def test_difftest_skips_an_open_pcf_program(capsys, tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "open.pcf").write_text("succ y")
    code, out, err = run_cli(capsys, "difftest", str(d), "--n", "0")
    assert code == 0
    skips = [line for line in err.splitlines() if line.startswith("skipped")]
    assert skips == ["skipped open.pcf: unbound variable y"]
    assert [json.loads(line)["outcome"] for line in out.splitlines()] == [
        "skipped: unbound variable y"]


@pytest.mark.parametrize("text, message", [
    ("a = 0;\nb = 1;\n  x = @Y[Nat -o];", "line 3, col 16: expected a type"),
    ("main = @Y[Nat -o];", "line 1, col 17: expected a type"),
    ("main = @Y[];", "line 1, col 11: expected a type"),
    ("@Y[Nat -o Nat ; ]", "line 1, col 15: expected ']', found ';'"),
    ("main = @nope[(Nat)];", "line 1, col 8: unknown reference @nope[Nat]"),
    ("main = @dup 3;", "line 1, col 8: @dup needs a type argument"),
    ("main = @pred[Nat] 3;", "line 1, col 8: @pred takes no type argument"),
    ("f = \\x. x;\nmain = @f[Nat] 0;", "line 2, col 8: @f takes no type argument"),
])
def test_type_argument_diagnostics_point_into_the_file(capsys, tmp_path,
                                                       text, message):
    f = write(tmp_path, "t.lrec", text)
    for argv in (["check"], ["eval"], ["normalize"]):
        code, out, err = run_cli(capsys, *argv, f)
        assert (code, out, err) == (1, "", f"syntax: {message}\n")


# ----------------------------------------------------------------- main

def test_main_builds_the_parser_tree_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(3):
        assert run_cli(capsys, "stdlib", "add")[0] == 0
    # an earlier test may have built the tree already
    assert built.count("lrec") <= 1
    assert len(built) == len(set(built))     # each subcommand's at most once


@pytest.mark.parametrize("argv, code", [
    (["normalize", str(CORPUS / "mult34.lrec")], 0),
    (["normalize", str(CORPUS / "nonexistent.lrec")], 1),
    (["normalize", "--fuel", "x", str(CORPUS / "mult34.lrec")], 1),
    (["normalize", "--fuel", "5", str(CORPUS / "mult34.lrec")], 2),
    (["check"], 1),
])
def test_main_runs_a_command_under_its_threshold_and_restores_the_callers(
        capsys, monkeypatch, tmp_path, argv, code):
    seen = []
    engine = lrec.cli.normalize

    def spy(*args, **kwargs):
        seen.append(gc.get_threshold())
        return engine(*args, **kwargs)

    monkeypatch.setattr(lrec.cli, "normalize", spy)
    bad = write(tmp_path, "bad.lrec", "\\x. (x")
    callers = gc.get_threshold()
    try:
        for thresholds in ((700, 10, 10), (1234, 5, 6), (0, 10, 10),
                           (10**6, 10, 10)):
            gc.set_threshold(*thresholds)
            seen.clear()
            assert run_cli(capsys, *argv)[0] == code
            assert gc.get_threshold() == thresholds
            # a parse error (exit 1) is restored from too
            assert run_cli(capsys, "normalize", bad)[0] == 1
            assert gc.get_threshold() == thresholds
            # inside, generation 0 waits for GC_GEN0 allocations, unless
            # the caller waits longer or has turned collection off
            gen0 = (thresholds[0] if thresholds[0] in (0, 10**6)
                    else lrec.cli.GC_GEN0)
            assert seen == ([(gen0, *thresholds[1:])] if code != 1 else [])
    finally:
        gc.set_threshold(*callers)


# ---------------------------------------------------------------- entry

def test_console_entry_point():
    # the child imports lrec from where this test did, installed or not
    src = str(Path(lrec.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "lrec.cli", "eval", "--force-nat",
         str(CORPUS / "add23.lrec")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0
    assert out.stdout == "5\n"
