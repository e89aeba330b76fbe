"""Type inference, checking, and the relaxed checker."""

import pytest

from lrec.parser import parse
from lrec.terms import App, Lam, Pair, Term, Var, check_linear, numeral
from lrec.types import (EnvDomainError, LinType, Lolli, MetaVar, NAT, Tensor,
                        TypeEnv, TypingError, _env_map, _Gen, _zonk, check,
                        infer, type_pretty)


def check_nonlinear(t: Term, env: TypeEnv, x_set: frozenset[str] | set[str]) -> LinType:
    """Type t while letting the variables in x_set be shared or dropped.

    All other variables (including every binder) stay linear. Used to
    validate compiler output, whose source-level variables occur any
    number of times.
    """
    for v in check_linear(t):
        if v.kind == "shared":
            offending = v.names - x_set
            if offending:
                names = ", ".join(sorted(offending))
                raise TypingError(f"variable(s) {names} duplicated: {v}")
        else:
            raise TypingError(f"term is not linear: {v}")
    emap = _env_map(env)
    missing = set(t.fv) - set(emap)
    if missing:
        raise EnvDomainError(
            f"environment missing {', '.join(sorted(missing))}")
    dropped = set(emap) - set(t.fv) - set(x_set)
    if dropped:
        names = ", ".join(sorted(dropped))
        raise TypingError(f"variable(s) {names} dropped but not exempt")
    gen = _Gen()
    return _zonk(gen.go(t, emap), gen.sub)


def test_infer_identity_most_general():
    a = infer(parse("\\x. x"), [])
    assert isinstance(a, Lolli)
    assert isinstance(a.dom, MetaVar) and a.dom == a.cod
    assert check(parse("\\x. x"), [], Lolli(NAT, NAT)) == Lolli(NAT, NAT)


def test_check_pair_of_nats():
    assert check(parse("<0, S 0>"), [], Tensor(NAT, NAT)) == Tensor(NAT, NAT)


def test_check_mismatch():
    with pytest.raises(TypingError):
        check(parse("\\x. x"), [], NAT)
    with pytest.raises(TypingError):
        infer(parse("(\\x. S x) <0, 0>"), [])


def test_rec_rule():
    t = parse("rec(<2, 0>, 0, \\x. S x, \\p. p)")
    assert infer(t, []) == NAT
    bad = parse("rec(0, 0, \\x. S x, \\p. p)")
    with pytest.raises(TypingError):
        infer(bad, [])  # scrutinee must be a pair of naturals
    bad2 = parse("rec(<0, 0>, \\x. x, \\x. S x, \\p. p)")
    with pytest.raises(TypingError):
        infer(bad2, [])  # step Nat -o Nat vs base arrow


def test_env_domain_errors():
    with pytest.raises(EnvDomainError):
        infer(Var("x"), [])
    with pytest.raises(EnvDomainError):
        infer(parse("\\x. x"), [("y", NAT)])
    assert infer(Var("x"), [("x", NAT)]) == NAT
    with pytest.raises(EnvDomainError, match="missing x$"):
        check(Var("x"), [], NAT)


def test_env_duplicates_rejected():
    with pytest.raises(TypingError):
        infer(Var("x"), [("x", NAT), ("x", NAT)])


def test_open_term_with_env():
    t = App(Var("f"), Var("x"))
    a = infer(t, [("f", Lolli(NAT, NAT)), ("x", NAT)])
    assert a == NAT
    # environment order is irrelevant (exchange)
    assert infer(t, [("x", NAT), ("f", Lolli(NAT, NAT))]) == NAT


def test_letpair_typing():
    t = parse("\\p. let <a, b> = p in <b, a>")
    a = infer(t, [])
    assert isinstance(a, Lolli) and isinstance(a.dom, Tensor)
    got = check(t, [], Lolli(Tensor(NAT, Lolli(NAT, NAT)),
                             Tensor(Lolli(NAT, NAT), NAT)))
    assert isinstance(got, Lolli)


def test_type_pretty():
    assert type_pretty(NAT) == "Nat"
    assert type_pretty(Lolli(NAT, Lolli(NAT, NAT))) == "Nat -o Nat -o Nat"
    assert type_pretty(Lolli(Lolli(NAT, NAT), NAT)) == "(Nat -o Nat) -o Nat"
    assert type_pretty(Lolli(Tensor(NAT, NAT), NAT)) == "Nat * Nat -o Nat"
    assert type_pretty(Tensor(Tensor(NAT, NAT), NAT)) == "(Nat * Nat) * Nat"
    assert type_pretty(Tensor(NAT, Tensor(NAT, NAT))) == "Nat * Nat * Nat"
    a = Lolli(MetaVar(3), MetaVar(3))
    assert type_pretty(a) == "?a -o ?a"
    assert type_pretty(Lolli(MetaVar(7), MetaVar(3))) == "?a -o ?b"
    assert type_pretty(a, ground=True) == "Nat -o Nat"


def test_check_nonlinear_contraction():
    t = Pair(Var("x"), Var("x"))
    assert check_nonlinear(t, [("x", NAT)], {"x"}) == Tensor(NAT, NAT)
    with pytest.raises(TypingError):
        check_nonlinear(t, [("x", NAT)], set())


def test_check_nonlinear_weakening():
    t = numeral(2)
    assert check_nonlinear(t, [("x", NAT)], {"x"}) == NAT
    with pytest.raises(TypingError):
        check_nonlinear(t, [("x", NAT)], set())


def test_check_nonlinear_self_application_untypable():
    t = App(Var("x"), Var("x"))
    with pytest.raises(TypingError):
        check_nonlinear(t, [("x", Lolli(NAT, NAT))], {"x"})


def test_check_nonlinear_empty_set_agrees_with_infer():
    samples = [
        (parse("\\x. x"), []),
        (parse("rec(<2, 0>, 0, \\x. S x, \\p. p)"), []),
        (App(Var("f"), numeral(1)), [("f", Lolli(NAT, NAT))]),
    ]
    for t, env in samples:
        assert check_nonlinear(t, env, set()) == infer(t, env)


def test_check_nonlinear_still_guards_binders():
    t = Lam("y", Pair(Var("y"), Var("y")))
    with pytest.raises(TypingError):
        check_nonlinear(t, [], {"x"})
