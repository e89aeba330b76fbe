"""Closed reduction: root rules, side conditions, strategies."""

import random

import pytest

from lrec.parser import parse
from lrec.reduction import (FuelExhausted, enumerate_redexes, normalize,
                            step_at, step_lo, step_random, step_root)
from lrec.terms import (App, Lam, LetPair, Pair, Rec, Suc, Var, Zero,
                        alpha_eq, check_linear, is_value, numeral, subst)

ID = "(\\i. i)"
ADD = "(\\m n. rec(<m, 0>, n, \\x. S x, \\p. p))"


def _delta():
    # \x. rec(<2,0>, \a b. a b, \y. y x, \p. p): applies its argument to
    # itself twice over, so self-application loops forever
    return parse("\\x. rec(<2, 0>, \\a b. a b, \\y. y x, \\p. p)")


def test_beta_fires_on_closed_argument():
    t = parse("(\\x. x) 0")
    got = step_root(t)
    assert got is not None and got[1] == "Beta"
    assert alpha_eq(got[0], Zero())


def test_beta_blocked_on_open_argument():
    t = App(Lam("x", Var("x")), Var("y"))
    assert step_root(t) is None


def test_let_fires_and_blocks():
    t = parse("let <a, b> = <1, 2> in <b, a>")
    got = step_root(t)
    assert got is not None and got[1] == "Let"
    assert alpha_eq(got[0], Pair(numeral(2), numeral(1)))
    open_comp = LetPair(Pair(Var("z"), Zero()), "a", "b", Pair(Var("b"), Var("a")))
    assert step_root(open_comp) is None


def test_reczero_fires_and_blocks():
    t = parse("rec(<0, S 0>, 0, \\x. S x, \\p. p)")
    got = step_root(t)
    assert got is not None and got[1] == "RecZero"
    assert alpha_eq(got[0], Zero())
    # open second component blocks the rule
    blocked = Rec(Pair(Zero(), Var("z")), Zero(),
                  Lam("x", Suc(Var("x"))), Lam("p", Var("p")))
    assert step_root(blocked) is None
    # open step blocks it too
    blocked2 = Rec(Pair(Zero(), Zero()), Zero(), Var("v"), Lam("p", Var("p")))
    assert step_root(blocked2) is None


def test_recsuc_shape():
    t = parse("rec(<S 0, 0>, 0, \\x. S x, \\p. p)")
    got = step_root(t)
    assert got is not None and got[1] == "RecSuc"
    want = parse("(\\x. S x) rec((\\p. p) <0, 0>, 0, \\x. S x, \\p. p)")
    assert alpha_eq(got[0], want)
    blocked = Rec(Pair(Suc(Zero()), Zero()), Zero(), Var("v"), Lam("p", Var("p")))
    assert step_root(blocked) is None


def test_step_lo_under_lambda():
    t = Lam("x", App(App(Lam("y", Lam("k", App(Var("k"), Var("y")))), Zero()), Var("x")))
    s = step_lo(t)
    assert s is not None and s.rule == "Beta" and s.path == "0.0"


def test_step_lo_descends_through_suc():
    t = Suc(parse("(\\x. x) 0"))
    s = step_lo(t)
    assert s is not None and alpha_eq(s.next, numeral(1))
    assert s.path == "0"


def test_blocked_redex_is_skipped_not_stuck():
    # the leftmost candidate (\y.y) x is blocked by its open argument;
    # the search moves on to the closed redex to its right
    t = Lam("x", App(App(Lam("y", Var("y")), Var("x")),
                     App(Lam("z", Var("z")), Zero())))
    s = step_lo(t)
    assert s is not None
    assert s.path == "0.1"
    assert alpha_eq(s.next, Lam("x", App(App(Lam("y", Var("y")), Var("x")), Zero())))


def test_eta_like_normal_form():
    t = parse("\\x. (\\y. y) x")
    assert step_lo(t) is None
    assert normalize(t, 10) is t


def test_normalize_addition():
    t = parse(f"{ADD} 2 3")
    got = normalize(t, 10_000)
    assert alpha_eq(got, numeral(5))


def test_normalize_zero():
    assert alpha_eq(normalize(Zero(), 5), Zero())


def test_normalize_fuel_exhaustion_on_loop():
    d = _delta()
    t = App(d, _delta())
    got = normalize(t, 100)
    assert isinstance(got, FuelExhausted)
    assert got.at.fv == frozenset()


def test_linearity_preserved_along_reduction():
    t = parse(f"{ADD} 3 2")
    for _ in range(200):
        s = step_lo(t)
        if s is None:
            break
        t = s.next
        assert check_linear(t) == []
    assert alpha_eq(t, numeral(5))


def test_trace_callback():
    lines = []
    t = parse("(\\x. x) ((\\y. y) 0)")
    normalize(t, 10, on_step=lambda i, rule, path, term: lines.append((i, rule, path)))
    assert lines[0][0] == 1 and lines[0][1] == "Beta"
    assert len(lines) == 2


def test_enumerate_and_step_at():
    t = parse("(\\x. x) ((\\y. y) 0)")
    paths = enumerate_redexes(t)
    assert () in paths and (1,) in paths and len(paths) == 2
    inner, rule = step_at(t, (1,))
    assert rule == "Beta"
    assert alpha_eq(inner, parse("(\\x. x) 0"))


def test_step_random_confluent_on_small_term():
    t = parse("(\\x. x) ((\\y. y) 0)")
    for seed in range(6):
        cur = t
        for _ in range(10):
            s = step_random(cur, random.Random(seed))
            if s is None:
                break
            cur = s.next
        assert alpha_eq(cur, Zero())


def test_step_random_deterministic():
    t = parse(f"{ADD} 2 2")
    runs = []
    for _ in range(2):
        rng = random.Random(42)
        cur = t
        trace = []
        while True:
            s = step_random(cur, rng)
            if s is None:
                break
            trace.append((s.rule, s.path))
            cur = s.next
        runs.append((trace, cur))
    assert runs[0][0] == runs[1][0]
    assert alpha_eq(runs[0][1], runs[1][1])
    assert alpha_eq(runs[0][1], numeral(4))


def test_step_random_none_on_normal_form():
    assert step_random(numeral(3), 0) is None
