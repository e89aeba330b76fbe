"""Type inference, checking, and the relaxed checker."""

import random

import pytest

from lrec.gen import random_closed
from lrec.parser import parse, parse_defs
from lrec.stdlib import catalog_lookup
from lrec.terms import (App, Lam, Pair, Term, Var, Zero, check_linear,
                        children, freshen, numeral, rebuild)
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


# ------------------------------------------------- shared closed subterms
# A catalog splice puts one closed object at every position that names
# it, and inference walks such an object at most twice. Its answers must
# be those of a tree in which no two positions hold the same node.


def _tree_copy(t: Term) -> Term:
    """t with every compound node rebuilt, names kept: nothing shared."""
    kids = children(t)
    return rebuild(t, [_tree_copy(k) for k in kids]) if kids else t


def _shares(t: Term) -> bool:
    """Whether some compound node of t sits at two positions."""
    seen: set[int] = set()
    work = [t]
    while work:
        node = work.pop()
        kids = children(node)
        if kids:
            if id(node) in seen:
                return True
            seen.add(id(node))
            work += kids
    return False


def _pred_nest(k: int) -> Term:
    return parse_defs("@pred (" * k + "0" + ")" * k)[1]


@pytest.mark.parametrize("text,want", [
    ("<@I 0, @I <0, 0>>", "Nat * Nat * Nat"),
    # the third @I is typed from the type stored at the second, whose
    # metavariable the second's context has bound to Nat since
    ("<@I 0, <@I 1, @I <0, 0>>>", "Nat * Nat * Nat * Nat"),
    ("@I @I 0", "Nat"),
    ("<@I, <@I, @I>>", "(?a -o ?a) * (?b -o ?b) * (?c -o ?c)"),
    ("\\f. <@I f, @I>", "?a -o ?a * (?b -o ?b)"),
    ("<@pred 1, <@pred 2, @pred (@pred 3)>>", "Nat * Nat * Nat"),
    ("d = <@I, @I>; main = <@d, <@d, @d>>;", None),
    ("d = \\f. \\x. f x; main = <@d @I 0, @d @add 1 2>;", "Nat * Nat")])
def test_a_shared_closed_term_types_as_its_tree_copy(text, want):
    t = parse_defs(text)[1]
    assert _shares(t)
    got = type_pretty(infer(t, []))
    assert got == type_pretty(infer(freshen(t), []))
    assert want is None or got == want


def test_shared_random_closed_terms_type_as_their_tree_copies():
    ident = catalog_lookup("I")
    for seed in range(40):
        t, a = random_closed(random.Random(seed))
        for u in (Pair(t, t), Pair(App(ident, t), App(ident, t)),
                  App(ident, Pair(t, Pair(App(ident, t), t)))):
            assert type_pretty(infer(u, [])) == \
                type_pretty(infer(freshen(u), [])), seed
        assert check(Pair(t, t), [], Tensor(a, a)) == Tensor(a, a)


@pytest.mark.parametrize("text,want", [
    ("<@pred 0, @pred <0, 0>>", None),
    # fails at the third @pred, which is typed from the stored type
    ("<@pred 0, <@pred 1, @pred <0, 0>>>", None),
    ("<@I 0, <@I 1, @I @I>>", Tensor(NAT, Tensor(NAT, NAT)))])
def test_a_shared_closed_term_fails_as_its_tree_copy(text, want):
    t = parse_defs(text)[1]
    assert _shares(t)
    errors = []
    for u in (t, _tree_copy(t)):
        with pytest.raises(TypingError) as e:
            infer(u, []) if want is None else check(u, [], want)
        errors.append(str(e.value))
    assert errors[0] == errors[1]


def test_a_shared_entry_is_walked_at_most_twice(monkeypatch):
    """Metavariables drawn while inferring the k-deep @pred nest: two
    walks of pred_enc, then a constant per level, however large the
    entry is. Without the memo every level walks it again."""
    calls = [0]
    fresh = _Gen.fresh

    def counting(self):
        calls[0] += 1
        return fresh(self)

    monkeypatch.setattr(_Gen, "fresh", counting)
    infer(catalog_lookup("pred"), [])
    walk = calls[0]
    assert walk > 20
    counts = []
    for k in (100, 200):
        calls[0] = 0
        assert infer(_pred_nest(k), []) == NAT
        counts.append(calls[0])
    per_level = (counts[1] - counts[0]) / 100
    assert per_level <= 2
    assert counts[0] <= 2 * walk + per_level * 100


def test_the_memo_adds_no_frame_per_level():
    """The 15,000-deep nest of one shared @pred fits the 20,000-frame
    recursion limit only at one frame per level."""
    pred = catalog_lookup("pred")
    t = Zero()
    for _ in range(15_000):
        t = App(pred, t)
    assert infer(t, []) == NAT
