"""`check` certifies and types the term as written; only the commands
that print a term name its binders.

Linearity is decided on the cached free-variable sets, so it needs no
renaming: a node's `linear` flag is exact, true precisely when the walk
`_violations` finds nothing, whatever the binder names. `parse_defs`
keeps each definition as written and splices an earlier one as written,
so one `freshen` of its program is the named program. `check` reads and
parses its file once, hands the tree to inference unrenamed, and names
it only to word a typing failure, so every message is the one the named
term gives. The expected outputs below were recorded while `check` still
named every definition before typing it; the two that print a
definition file's spliced binders were re-recorded as `freshen` of the
program as written, once splices stopped being named one by one.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import pytest

from lrec import cli, parser, terms
from lrec.cli import main
from lrec.gen import random_closed
from lrec.minext import lin_pred
from lrec.terms import App, Lam, LetPair, Pair, Term, Var, Zero, numeral, pretty
from test_frontend_oracle import _raw_corpus_terms

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# --------------------------------------------------- exact certification

x = Var("x")
SHADOWED = [App(Lam("x", x), Lam("x", x)),  # (\x. x) (\x. x)
            Lam("x", App(Lam("x", x), x))]  # \x. (\x. x) x
MUTANTS = [LetPair(Pair(Zero(), Zero()), "a", "a", Var("a")),
           Lam("x", App(x, x)),             # one binder on both sides
           Lam("x", Lam("x", x))]           # unused, shadowed by a used one


def _generated(n: int = 300) -> list[Term]:
    rng = random.Random(20)
    return [random_closed(rng)[0] for _ in range(n)]


def test_shadowing_certifies_as_written():
    assert [t.linear for t in SHADOWED] == [True, True]
    assert [t.linear for t in MUTANTS] == [False] * 3


@pytest.mark.parametrize("source", ["corpus", "generated", "hand-built"])
def test_certification_is_exact(source):
    inputs = {"corpus": _raw_corpus_terms, "generated": _generated,
              "hand-built": lambda: SHADOWED + MUTANTS}[source]()
    assert inputs
    for t in inputs:
        assert t.linear == (terms._violations(t) == []), pretty(t)


# ------------------------------------------------------ printed names

DEFS = ("f = (\\x. x) (\\x_1. x_1); g = \\x. @f x; "
        "main = (\\x_1. @g x_1) 0;")
FILES = {
    "lin_pred2.lrec": pretty(App(lin_pred(), numeral(2))),
    "pred_splice.lrec": "@pred (@pred 0 1)",
    "lin_err.lrec": "(\\x. x x) @pred",
    "defs.lrec": DEFS,
    # failures inside definitions that splice earlier ones as written
    "defs_type_err.lrec": DEFS.replace(" 0;", " 0 0;"),
    "defs_lin_err.lrec": ("f = (\\x. x) (\\x_1. x_1); g = \\x. \\x_1. @f x; "
                          "main = (\\x_1. @g x_1) 0 0;"),
    "defs_lin_err2.lrec": ("f = (\\x. x) (\\x_1. x_1); "
                           "g = \\x. (\\x. @f x x) x; main = @g 0;"),
    "shadow.lrec": "(\\x. x) (\\x. x)",
    "dup_let.lrec": "let <a, a> = <0, 0> in a",
}

PRED_SPLICE = (
    "typing: rule (App): cannot unify Nat with Nat -o ?a in (\\n_1. (\\x_10. "
    "let <a_3, b_3> = x_10 in rec(<b_3, 0>, a_3, \\x_11. x_11, \\x_12. x_12)) "
    "rec(<n_1, 0>, <0, 0>, \\x_13. let <t_1, u_1> = (\\x_14. rec(<x_14, 0>, "
    "<0, 0>, \\y_1. let <a_4, b_4> = y_1 in <S a_4, S b_4>, \\x_15. x_15)) "
    "((\\x_16. let <a_5, b_5> = x_16 in rec(<a_5, 0>, b_5, \\x_17. x_17, "
    "\\x_18. x_18)) x_13) in <t_1, S u_1>, \\x_19. x_19)) 0 1\n")

NAT = ("Nat\n", "", 0)
# argv, with the file last -> (stdout, stderr, exit code)
EXPECTED = {
    "check add23.lrec": NAT,
    "check cond_lazy.lrec": (
        "", "typing: rule (Rec): cannot unify ?a with ?a -o ?b in "
            "rec(<2, 0>, \\a b. a b, \\y. y x_7, \\x_8. x_8)\n", 1),
    "check copy4.lrec": ("Nat * Nat\n", "", 0),
    "check delta.lrec": (
        "", "typing: rule (Rec): cannot unify ?a with ?a -o ?b in "
            "rec(<2, 0>, \\a b. a b, \\y. y x, \\x_1. x_1)\n", 1),
    "check fact4.lrec": NAT,
    "check fix_id.lrec": NAT,
    "check fst_pair.lrec": NAT,
    "check higher_order.lrec": NAT,
    "check id0.lrec": NAT,
    "check iszero0.lrec": NAT,
    "check iter_count.lrec": NAT,
    "check letpair.lrec": ("Nat * Nat\n", "", 0),
    "check mult34.lrec": NAT,
    "check pred7.lrec": NAT,
    "check --calculus llcim lin_pred2.lrec": NAT,
    "check --calculus llcim pred_splice.lrec": (
        "", "invalid input: the recursor is not part of the minimiser "
            "calculus\n", 1),
    "check pred_splice.lrec": ("", PRED_SPLICE, 1),
    "check lin_err.lrec": (
        "", "syntax: at 0.0: variable(s) x occur in both operator and "
            "operand\n", 1),
    "check defs.lrec": NAT,
    "check defs_type_err.lrec": (
        "", "typing: rule (App): cannot unify Nat with Nat -o ?a in "
            "(\\x_1. (\\x. (\\x_2. x_2) (\\x_1_1. x_1_1) x) x_1) 0 0\n", 1),
    "check defs_lin_err.lrec": (
        "", "syntax: at 0: binder x_1 unused in the body\n", 1),
    "check defs_lin_err2.lrec": (
        "", "syntax: at 0.0.0: variable(s) x_1 occur in both operator and "
            "operand\n", 1),
    "check shadow.lrec": ("?a -o ?a\n", "", 0),
    "check dup_let.lrec": (
        "", "syntax: line 1, col 9: pattern binds a twice\n", 1),
    # a printing command names the whole program once it is parsed
    "normalize defs.lrec": ("0\n", "", 0),
    "normalize --trace defs.lrec": (
        "1 Beta root (\\x. (\\x_2. x_2) (\\x_1_1. x_1_1) x) 0\n"
        "2 Beta root (\\x_2. x_2) (\\x_1_1. x_1_1) 0\n"
        "3 Beta 0 (\\x_1_1. x_1_1) 0\n4 Beta root 0\n0\n", "", 0),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict[str, str]:
    d = tmp_path_factory.mktemp("check_names")
    out = {f.name: str(f) for f in CORPUS.glob("*.lrec")}
    for name, text in FILES.items():
        (d / name).write_text(text)
        out[name] = str(d / name)
    return out


def _run(argv: list[str]) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), code


def test_every_corpus_file_is_pinned():
    assert {f"check {f.name}" for f in CORPUS.glob("*.lrec")} <= set(EXPECTED)


@pytest.mark.parametrize("case", list(EXPECTED))
def test_output_is_unchanged(files, case):
    *argv, name = case.split()
    assert _run(argv + [files[name]]) == EXPECTED[case]


def test_check_names_no_binder(files, monkeypatch):
    calls = []
    for module in (parser, cli):
        monkeypatch.setattr(module, "freshen",
                            lambda t: calls.append(t) or terms.freshen(t))
    assert _run(["check", files["fact4.lrec"]]) == NAT
    assert calls == []
    assert _run(["eval", files["fact4.lrec"]])[2] == 0
    assert calls


@pytest.mark.parametrize("name", ["delta.lrec", "add23.lrec",
                                  "defs_type_err.lrec", "defs_lin_err.lrec"])
def test_check_parses_once(files, monkeypatch, name):
    calls = []
    monkeypatch.setattr(cli, "parse_defs",
                        lambda *a: calls.append(a) or parser.parse_defs(*a))
    assert _run(["check", files[name]]) == EXPECTED[f"check {name}"]
    assert len(calls) == 1
