"""The zipper normaliser against an oracle that does not use its walk.

`normalize` resumes at each contractum instead of searching again from
the root, climbing to the parent only when a value lands in its child 0
and on to the grandparent only when the parent is its child 0. These
tests pin down that it still fires the first redex in pre-order at
every step, that it needs no recursion, that it re-tests no parent it
need not, that it does a bounded number of root-rule checks per step,
and that the invariant which makes the resumption sound is checked.
The oracle also checks that `enumerate_redexes` lists every redex.
Neither walk keeps state between calls: the same term object costs the
same root-rule checks every time it is normalised or enumerated.
"""

import random
from pathlib import Path

import pytest

from lrec import reduction
from lrec.cli import _load
from lrec.gen import random_closed
from lrec.minext import _mroot, lin_pred, normalize_m
from lrec.parser import parse
from lrec.reduction import (FuelExhausted, _normalize_with, enumerate_redexes,
                            normalize, step_at, step_lo, step_root)
from lrec.stdlib import catalog_lookup
from lrec.terms import (App, Fuel, Lam, Pair, Var, Zero, children, numeral,
                        pretty)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _pred(n: int):
    return parse(f"@pred {n}", resolve=lambda name, arg: catalog_lookup(name))


def _redexes(t, root_fn):
    """Every redex position in pre-order, by a walk of the whole term."""
    out, work = [], [(t, ())]
    while work:
        node, path = work.pop()
        if root_fn(node) is not None:
            out.append(path)
        kids = children(node)
        work.extend((kids[i], path + (i,)) for i in reversed(range(len(kids))))
    return out


def _oracle(t, fuel: int, root_fn=step_root):
    """(i, rule, path, term) per step and the outcome, by contracting
    the first redex position in pre-order, found afresh each step.
    enumerate_redexes must list the same positions."""
    lines = []
    for i in range(1, fuel + 2):
        paths = _redexes(t, root_fn)
        assert enumerate_redexes(t, root_fn) == paths
        if not paths:
            return lines, ("normal-form", pretty(t))
        if i > fuel:
            return lines, ("fuel-exhausted", pretty(t))
        t, rule = step_at(t, paths[0], root_fn)
        lines.append((i, rule, ".".join(map(str, paths[0])), pretty(t)))


def _zipper(engine, t, fuel: int):
    lines = []
    out = engine(t, fuel, on_step=lambda i, rule, path, term:
                 lines.append((i, rule, path, pretty(term))))
    if isinstance(out, FuelExhausted):
        return lines, ("fuel-exhausted", pretty(out.at))
    return lines, ("normal-form", pretty(out))


def _inputs():
    # each maker builds a fresh term, so the oracle and the normaliser
    # share no node
    for path in sorted(CORPUS.glob("*.lrec")):
        yield path.name, (lambda p=path: _load(str(p), "lrec")[0]), 400, "lrec"
    for n in range(3, 13):
        yield f"@pred {n}", (lambda n=n: _pred(n)), 10_000, "lrec"
    for n in range(4, 11):
        yield (f"lin_pred {n}", (lambda n=n: App(lin_pred(), numeral(n))),
               10_000, "llcim")
    rng = random.Random(2005)
    for k in range(300):
        t = random_closed(rng)[0]
        yield f"generated #{k}", (lambda t=pretty(t): parse(t)), 300, "lrec"


def test_normalize_matches_the_first_redex_oracle():
    checked, exhausted = 0, set()
    for name, make, fuel, calculus in _inputs():
        if calculus == "llcim":
            want = _oracle(make(), fuel, _mroot)
            got = _zipper(normalize_m, make(), fuel)
        else:
            want = _oracle(make(), fuel)
            got = _zipper(normalize, make(), fuel)
        assert got == want, name
        checked += 1
        if want[1][0] == "fuel-exhausted":
            exhausted.add(name)
    assert checked == len(list(CORPUS.glob("*.lrec"))) + 10 + 7 + 300
    assert {"delta.lrec", "fix_id.lrec"} <= exhausted  # they never finish


def test_deep_spine_normalizes_without_recursion():
    depth = 50_000
    t = App(Lam("x", Var("x")), Zero())
    for _ in range(depth):
        t = Pair(Zero(), t)
    got = normalize(t, 10)
    for _ in range(depth):
        assert isinstance(got, Pair) and isinstance(got.left, Zero)
        got = got.right
    assert isinstance(got, Zero)


def test_root_rule_checks_per_step_are_bounded(monkeypatch):
    calls = 0

    def counting(t):
        nonlocal calls
        calls += 1
        return step_root(t)

    t = _pred(60)
    cell = Fuel(100_000)
    monkeypatch.setattr(reduction, "step_root", counting)
    got = normalize(t, cell)
    assert pretty(got) == "59"
    # a restart from the root costs about 92 checks per step here
    assert calls / (100_000 - cell.remaining) <= 4


def test_at_most_two_root_rule_checks_per_step(monkeypatch):
    calls = 0

    def counting(t):
        nonlocal calls
        calls += 1
        return step_root(t)

    t = _pred(60)
    cell = Fuel(100_000)
    monkeypatch.setattr(reduction, "step_root", counting)
    assert pretty(normalize(t, cell)) == "59"
    # climbing two frames after every contraction costs about 3 here
    assert calls / (100_000 - cell.remaining) <= 2


def _checks(monkeypatch, src: str, fuel: int = 100):
    """The steps of normalize on src, and every term step_root was asked
    about, in order."""
    asked, steps = [], []

    def recording(t):
        asked.append(pretty(t))
        return step_root(t)

    monkeypatch.setattr(reduction, "step_root", recording)
    out = normalize(parse(src), fuel, on_step=lambda i, rule, path, term:
                    steps.append((rule, path, pretty(term))))
    monkeypatch.undo()
    assert _zipper(normalize, parse(src), fuel) == _oracle(parse(src), fuel)
    return pretty(out), steps, asked


def test_a_numeral_under_a_recursor_pair_makes_the_grandparent_fire(
        monkeypatch):
    # the redex's contractum lands in rec(<[], 0>, ...): the recursor two
    # levels up fires next, before the redex in its base
    out, steps, _ = _checks(
        monkeypatch, "rec(<(\\x. x) 0, 0>, (\\y. y) 0, \\n. n, \\p. p)")
    assert steps == [
        ("Beta", "0.0", "rec(<0, 0>, (\\y. y) 0, \\n. n, \\p. p)"),
        ("RecZero", "", "(\\y. y) 0"),
        ("Beta", "", "0")]
    assert out == "0"
    out, steps, _ = _checks(
        monkeypatch, "rec(<(\\x. x) 1, 0>, (\\y. y) 0, \\n. n, \\p. p)")
    assert [s[:2] for s in steps[:2]] == [("Beta", "0.0"), ("RecSuc", "")]


def test_a_value_in_child_1_does_not_retest_the_parent(monkeypatch):
    out, steps, asked = _checks(monkeypatch, "<0, (\\x. x) (\\y. y)>")
    assert steps == [("Beta", "1", "<0, \\y. y>")]
    assert asked == ["<0, (\\x. x) (\\y. y)>", "0", "(\\x. x) (\\y. y)",
                     "\\y. y", "y"]


def test_a_non_value_in_child_0_does_not_retest_the_parent(monkeypatch):
    # the first contractum, an application, lands in the root's child 0:
    # the root is re-tested only once the second lands there as a λ
    out, steps, asked = _checks(
        monkeypatch, "(\\f. f (\\w. w)) (\\y. y) 0")
    assert [s[:2] for s in steps] == [("Beta", "0"), ("Beta", "0"),
                                      ("Beta", "")]
    assert asked == ["(\\f. f (\\w. w)) (\\y. y) 0",
                     "(\\f. f (\\w. w)) (\\y. y)",
                     "(\\y. y) (\\w. w)",
                     "(\\w. w) 0",
                     "0"]
    assert out == "0"


def test_fuel_cell_holds_the_steps_taken():
    cell = Fuel(1000)
    assert pretty(normalize(_pred(3), cell)) == "2"
    steps = []
    normalize(_pred(3), 1000, on_step=lambda i, *rest: steps.append(i))
    assert 1000 - cell.remaining == steps[-1] == len(steps)


@pytest.mark.skipif(not __debug__, reason="the guard is a debug assertion")
def test_a_contraction_that_changes_free_variables_trips_the_guard():
    def leaky(t):
        # contracts an identity application to a free variable
        r = step_root(t)
        return (Var("y"), "Leak") if r is not None else None

    with pytest.raises(AssertionError, match="Leak changed the free variables"):
        _normalize_with(parse("<0, (\\x. x) 0>"), 10, leaky, None)
    with pytest.raises(AssertionError, match="Leak changed the free variables"):
        step_lo(parse("(\\x. x) 0"), leaky)


def _same_term_twice(count_checks) -> list[str]:
    """The terms among add23.lrec and 100 generated ones whose second
    walk, as counted by count_checks(term, counting root_fn), costs a
    different number of root-rule checks than the first."""
    rng = random.Random(91)
    terms = [_load(str(CORPUS / "add23.lrec"), "lrec")[0]]
    terms += [random_closed(rng)[0] for _ in range(100)]
    differ = []
    for t in terms:
        calls = []

        def counting(u):
            calls[-1] += 1
            return step_root(u)

        for _ in range(2):
            calls.append(0)
            count_checks(t, counting)
        assert calls[0] > 0
        if calls[0] != calls[1]:
            differ.append(f"{pretty(t)}: {calls}")
    return differ


def test_normalizing_the_same_term_twice_costs_the_same(monkeypatch):
    def count_checks(t, counting):
        monkeypatch.setattr(reduction, "step_root", counting)
        normalize(t, 300)
        monkeypatch.undo()

    assert _same_term_twice(count_checks) == []


def test_enumerating_the_same_term_twice_costs_the_same():
    assert _same_term_twice(enumerate_redexes) == []
