"""Concrete syntax: parsing, printing, the round trip, and rejection."""

import re

import pytest

from lrec import parser
from lrec.cli import main
from lrec.evaluation import force_numeral
from lrec.parser import LinearityError, ParseError, parse, parse_defs, parse_type
from lrec.stdlib import dup, fix
from lrec.terms import (App, Lam, LetPair, Min, Iter, Pair, Rec, Suc, Var,
                        Zero, alpha_eq, freshen, numeral, pretty)
from lrec.types import Lolli, NAT, Tensor


def test_parse_identity():
    t = parse("\\x. x")
    assert isinstance(t, Lam) and isinstance(t.body, Var)
    assert t.body.name == t.binder


def test_parse_rec():
    t = parse("rec(<0,0>, 0, \\x.S x, \\p.p)")
    assert isinstance(t, Rec)
    assert alpha_eq(t.scrut, Pair(Zero(), Zero()))
    assert alpha_eq(t.base, Zero())
    assert alpha_eq(t.step, Lam("x", Suc(Var("x"))))
    assert alpha_eq(t.update, Lam("p", Var("p")))


def test_parse_rejects_nonlinear():
    with pytest.raises(LinearityError):
        parse("\\x. x x")
    with pytest.raises(LinearityError):
        parse("\\x. 0")
    with pytest.raises(LinearityError):
        parse("let <a, b> = <0, 0> in a")


def test_parse_error_position():
    with pytest.raises(ParseError) as e:
        parse("\\x. (x")
    assert "line 1" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse("\n\n  )")
    assert "line 3" in str(e.value)


def test_end_of_input_column_counts_a_trailing_comment():
    with pytest.raises(ParseError) as e:
        parse("(\\x. x -- trailing comment")
    assert str(e.value) == "line 1, col 27: expected ')', found 'end of input'"


def test_a_pattern_that_binds_one_name_twice_is_a_syntax_error():
    with pytest.raises(ParseError) as e:
        parse("let <a, a> = <0, 0> in a")
    assert str(e.value) == "line 1, col 9: pattern binds a twice"


def test_a_one_component_pair_is_a_syntax_error(capsys, tmp_path):
    path = tmp_path / "one.lrec"
    path.write_text("<0>")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == (
        "syntax: line 1, col 1: a pair needs at least two components\n")


@pytest.mark.parametrize("src, message", [
    ("\\S. S", "line 1, col 2: 'S' is a keyword"),
    ("\\x S. x", "line 1, col 4: 'S' is a keyword"),
    ("let <S, b> = <0, 0> in b", "line 1, col 6: 'S' is a keyword"),
    ("let <a, in> = <0, 0> in a", "line 1, col 9: 'in' is a keyword"),
])
def test_a_keyword_binder_is_refused_at_its_token(src, message):
    with pytest.raises(ParseError) as e:
        parse(src)
    assert str(e.value) == message


def test_linearity_error_names_three_violations():
    with pytest.raises(LinearityError) as e:
        parse("\\x. " * 10 + "x")
    assert len(e.value.violations) == 9
    assert str(e.value) == (
        "at root: binder x unused in the body; "
        "at 0: binder x_1 unused in the body; "
        "at 0.0: binder x_2 unused in the body (and 6 more)")


def test_numeral_literals():
    assert alpha_eq(parse("3"), numeral(3))
    assert alpha_eq(parse("S 3"), numeral(4))
    assert alpha_eq(parse("S S S 0"), numeral(3))


def test_application_associativity():
    t = parse("\\f g x. f g x")
    body = t.body.body.body
    assert isinstance(body, App) and isinstance(body.fun, App)
    assert body.fun.fun.name == t.binder


def test_multi_binder_and_tuple_sugar():
    a = parse("\\x y. <x, y>")
    b = parse("\\x. \\y. <x, y>")
    assert alpha_eq(a, b)
    t = parse("\\a b c. <a, b, c>")
    inner = t.body.body.body
    assert isinstance(inner, Pair) and isinstance(inner.right, Pair)


def test_let_parses_greedily():
    t = parse("\\p f. f let <x, y> = p in <x, y>")
    app = t.body.body
    assert isinstance(app, App) and isinstance(app.arg, LetPair)


def test_comments_and_whitespace():
    t = parse("-- header\n\\x. -- binder\n  x\n")
    assert isinstance(t, Lam)


def test_parse_freshens_shadowing():
    t = parse("(\\x. x) (\\x. x)")
    assert t.fun.binder != t.arg.binder
    assert alpha_eq(t.fun, t.arg)


def test_roundtrip_alpha():
    sources = [
        "\\x. x",
        "\\f x. f x",
        "rec(<2,0>, 0, \\x. S x, \\p. p)",
        "let <a, b> = <1, 2> in <b, a>",
        "\\f. f <0, \\x. x>",
        "S S S 0",
        "(\\x. x) 4",
        "\\p. let <a, b> = p in a b",
    ]
    for src in sources:
        t = parse(src)
        assert alpha_eq(parse(pretty(t)), t), src


def test_calculus_gating():
    with pytest.raises(ParseError):
        parse("iter(0, 0, \\x. x)")
    with pytest.raises(ParseError):
        parse("min(0, 0, \\x. x)")
    with pytest.raises(ParseError):
        parse("rec(<0,0>, 0, \\x. x, \\p. p)", calculus="llcim")
    it = parse("iter(2, 0, \\x. S x)", calculus="llcim")
    assert isinstance(it, Iter)
    mn = parse("min(1, 0, \\x. x)", calculus="llcim")
    assert isinstance(mn, Min)


def test_an_unknown_calculus_is_refused():
    with pytest.raises(ValueError) as e:
        parse("0", "foo")
    assert str(e.value) == "unknown calculus 'foo'"


@pytest.mark.parametrize("src, calculus, message", [
    ("<0, rec(<0,0>, 0, \\x. x, \\p. p)>", "llcim",
     "line 1, col 5: rec is not part of this calculus"),
    ("\\y. iter(y, 0, \\x. x)", "lrec",
     "line 1, col 5: iter is not part of this calculus"),
    ("S min(0, 0, \\x. x)", "lrec",
     "line 1, col 3: min is not part of this calculus"),
    ("rec(<0,0>, 0, \\x. x)", "lrec",
     "line 1, col 21: rec takes 4 arguments, found 3"),
    ("iter(2, 0, \\x. x, 0)", "llcim",
     "line 1, col 21: iter takes 3 arguments, found 4"),
    ("<0,\n min(1)>", "llcim",
     "line 2, col 8: min takes 3 arguments, found 1"),
])
def test_call_keyword_in_wrong_calculus_or_with_wrong_arity(src, calculus,
                                                            message):
    with pytest.raises(ParseError) as e:
        parse(src, calculus=calculus)
    assert str(e.value) == message


def test_parse_type():
    assert parse_type("Nat") == NAT
    assert parse_type("Nat -o Nat") == Lolli(NAT, NAT)
    assert parse_type("Nat -o Nat -o Nat") == Lolli(NAT, Lolli(NAT, NAT))
    assert parse_type("(Nat -o Nat) -o Nat") == Lolli(Lolli(NAT, NAT), NAT)
    assert parse_type("Nat * Nat -o Nat") == Lolli(Tensor(NAT, NAT), NAT)
    assert parse_type("Nat * Nat * Nat") == Tensor(NAT, Tensor(NAT, NAT))
    with pytest.raises(ParseError):
        parse_type("Nat -o")


def test_parse_defs_and_refs():
    defs, program = parse_defs(
        "id = \\x. x;\n"
        "two = 2;\n"
        "main = @id @two;\n")
    assert [name for name, _ in defs] == ["id", "two", "main"]
    assert alpha_eq(program, App(Lam("x", Var("x")), numeral(2)))


def test_parse_defs_splices_and_keeps_the_program_as_written():
    _, program = parse_defs("f = (\\x. x) (\\x_1. x_1); g = \\x. @f x; "
                            "main = (\\x_1. @g x_1) 0;")
    assert pretty(program) == "(\\x_1. (\\x. (\\x. x) (\\x_1. x_1) x) x_1) 0"
    assert pretty(freshen(program)) == (
        "(\\x_1. (\\x. (\\x_2. x_2) (\\x_1_1. x_1_1) x) x_1) 0")


def test_parse_defs_bare_term():
    defs, program = parse_defs("(\\x. x) 1")
    assert defs == []
    assert alpha_eq(program, App(Lam("x", Var("x")), numeral(1)))


def test_parse_defs_unknown_ref():
    with pytest.raises(ParseError):
        parse_defs("main = @nope;")


def test_typed_reference_is_the_catalog_entry_at_the_parsed_type():
    _, program = parse_defs("main = @dup[Nat * Nat];")
    assert alpha_eq(program, freshen(dup(Tensor(NAT, NAT))))


def test_local_definition_shadows_an_untyped_catalog_name():
    _, program = parse_defs("pred = 7; main = @pred;")
    assert alpha_eq(program, numeral(7))


def test_typed_reference_skips_local_definitions():
    _, program = parse_defs("Y = 0; main = @Y[Nat];")
    assert alpha_eq(program, freshen(fix(NAT)))


def test_parse_resolves_catalog_references():
    assert force_numeral(parse("@add 2 3"), 10_000) == 5


def test_ref_spliced_twice_stays_linear():
    defs, program = parse_defs(
        "id = \\x. x;\n"
        "main = @id (@id 3);\n")
    assert alpha_eq(program, App(Lam("x", Var("x")), App(Lam("y", Var("y")), numeral(3))))


def test_parse_defs_names_nothing_so_naming_is_linear(monkeypatch):
    calls = []
    monkeypatch.setattr(parser, "freshen",
                        lambda t: calls.append(t) or freshen(t))
    _, program = parse_defs("id = \\x. x; unused = \\y. y; "
                            "main = @id (@id (@id 3));")
    assert alpha_eq(program, App(Lam("x", Var("x")), App(
        Lam("x", Var("x")), App(Lam("x", Var("x")), numeral(3)))))
    # each definition splices the one before; naming each one where it
    # is spliced would lengthen a binder by "_1" per level
    _, program = parse_defs(
        "d0 = \\x. x;\n"
        + "".join(f"d{i} = \\x. @d{i - 1} x;\n" for i in range(1, 600))
        + "main = @d599 0;\n")
    assert calls == []
    named = pretty(freshen(program))
    assert len(named) < 10_000
    assert max(map(len, re.findall(r"[A-Za-z_][\w']*", named))) <= 5
