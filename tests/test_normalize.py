"""The zipper normaliser against an oracle that does not use its walk.

`normalize` resumes at each contractum instead of searching again from
the root, climbing to the parent only when a value lands in its child 0
and the parent is no value, or to the grandparent when that is a
recursor and the parent its pair. A traced run keeps to the zipper; an
untraced one hands each closed subterm that is not a value to the
environment loop, which stops where fuel runs out or where it has no
rule. The oracle checks every traced run's steps, and every untraced
run's outcome and fuel spent, at every budget, on the numerals the
loop's closures are read back into too. These tests pin down that it
still fires the first redex in pre-order at every step, that it needs
no recursion, that it re-tests no parent it need not, that the zipper
does a bounded number of root-rule checks per step, and that the
invariant which makes the resumption sound is checked.
The oracle also checks that `enumerate_redexes` lists every redex.
Neither walk keeps state between calls: the same term object costs the
same root-rule checks every time it is normalised or enumerated.
One `step_root` serves both calculi; it agrees with the two root-rule
functions it replaced, the recursor calculus's and the minimiser's.
"""

import random
from pathlib import Path

import pytest

from lrec import reduction
from lrec.cli import _load
from lrec.gen import random_closed
from lrec.minext import lin_pred, mu_enc, normalize_m
from lrec.parser import parse
from lrec.reduction import (FuelExhausted, _normalize_with, enumerate_redexes,
                            normalize, step_at, step_lo, step_root)
from lrec.stdlib import iter_enc, min_enc, pred_enc
from lrec.terms import (App, Fuel, Iter, Lam, LetPair, Min, Pair, Rec, Suc,
                        Var, Zero, children, numeral, pretty, subst)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _pred(n: int):
    return parse(f"@pred {n}")


def _redexes(t):
    """Every redex position in pre-order, by a walk of the whole term."""
    out, work = [], [(t, ())]
    while work:
        node, path = work.pop()
        if step_root(node) is not None:
            out.append(path)
        kids = children(node)
        work.extend((kids[i], path + (i,)) for i in reversed(range(len(kids))))
    return out


def _oracle(t, fuel: int):
    """(i, rule, path, term) per step and the outcome, by contracting
    the first redex position in pre-order, found afresh each step.
    enumerate_redexes must list the same positions."""
    lines = []
    for i in range(1, fuel + 2):
        paths = _redexes(t)
        assert enumerate_redexes(t) == paths
        if not paths:
            return lines, ("normal-form", pretty(t))
        if i > fuel:
            return lines, ("fuel-exhausted", pretty(t))
        t, rule = step_at(t, paths[0])
        lines.append((i, rule, ".".join(map(str, paths[0])), pretty(t)))


def _outcome(out):
    if isinstance(out, FuelExhausted):
        return "fuel-exhausted", pretty(out.at)
    return "normal-form", pretty(out)


def _zipper(engine, t, fuel: int):
    """A traced run: its steps, as _oracle lists them, and its outcome."""
    lines = []
    out = engine(t, fuel, on_step=lambda i, rule, path, term:
                 lines.append((i, rule, path, pretty(term))))
    return lines, _outcome(out)


def _untraced(t, fuel: int):
    """An untraced normalize, which runs closed subterms on the loop:
    its outcome and the fuel it spent, to match the oracle's outcome and
    step count."""
    cell = Fuel(fuel)
    out = normalize(t, cell)
    return _outcome(out), fuel - cell.remaining


def _matches(want):
    """What _untraced gives where the oracle gives want."""
    return want[1], len(want[0])


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
            want = _oracle(make(), fuel)
            got = _zipper(normalize_m, make(), fuel)
        else:
            want = _oracle(make(), fuel)
            got = _zipper(normalize, make(), fuel)
        assert got == want, name
        assert _untraced(make(), fuel) == _matches(want), name
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

    # on the zipper alone: the loop would run @pred 60, which is closed,
    # with next to no root-rule checks
    t = _pred(60)
    cell = Fuel(100_000)
    monkeypatch.setattr(reduction, "step_root", counting)
    got = _normalize_with(t, cell, None, closed=False)
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
    assert pretty(_normalize_with(t, cell, None, closed=False)) == "59"
    # climbing two frames after every contraction costs about 3 here
    assert calls / (100_000 - cell.remaining) <= 2


def _checks(monkeypatch, src: str, fuel: int = 100):
    """The normal form and steps of normalize on src, and every term
    step_root was asked about, in order, by an untraced run (which hands
    closed subterms to the loop; a traced one keeps to the zipper)."""
    asked = []

    def recording(t):
        asked.append(pretty(t))
        return step_root(t)

    monkeypatch.setattr(reduction, "step_root", recording)
    out = _outcome(normalize(parse(src), fuel))
    monkeypatch.undo()
    steps, end = _zipper(normalize, parse(src), fuel)
    assert (steps, end) == _oracle(parse(src), fuel)
    assert out == end
    return end[1], [step[1:] for step in steps], asked


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
    # the redex is open, so the zipper contracts it, not the loop
    out, steps, asked = _checks(monkeypatch, "\\z. <0, (\\x. <x, z>) 0>")
    assert steps == [("Beta", "0.1", "\\z. <0, <0, z>>")]
    assert asked == ["\\z. <0, (\\x. <x, z>) 0>", "<0, (\\x. <x, z>) 0>",
                     "0", "(\\x. <x, z>) 0", "<0, z>", "0", "z"]


def test_a_non_value_in_child_0_does_not_retest_the_parent(monkeypatch):
    # the first contractum, an application, lands in the body's child 0:
    # the body is re-tested only once the second lands there as a λ; the
    # redexes are open (z), so the zipper contracts them, until the last,
    # a closed one, which the loop contracts without a root-rule test
    out, steps, asked = _checks(
        monkeypatch, "\\z. (\\f. (\\y. \\v. <y v, z>) f) (\\w. w) 0")
    assert [s[:2] for s in steps] == [("Beta", "0.0"), ("Beta", "0.0"),
                                      ("Beta", "0"), ("Beta", "0.0")]
    assert asked == ["\\z. (\\f. (\\y v. <y v, z>) f) (\\w. w) 0",
                     "(\\f. (\\y v. <y v, z>) f) (\\w. w) 0",
                     "(\\f. (\\y v. <y v, z>) f) (\\w. w)",
                     "(\\y v. <y v, z>) (\\w. w)",
                     "(\\v. <(\\w. w) v, z>) 0",
                     "<(\\w. w) 0, z>",
                     "0",
                     "z"]
    assert out == "\\z. <0, z>"


def test_fuel_cell_holds_the_steps_taken():
    cell = Fuel(1000)
    assert pretty(normalize(_pred(3), cell)) == "2"
    steps = []
    normalize(_pred(3), 1000, on_step=lambda i, *rest: steps.append(i))
    assert 1000 - cell.remaining == steps[-1] == len(steps)


def _budgets(make):
    """(fuel, the oracle's outcome) for every budget from 0 to the steps
    the term takes, read off one oracle run: a budget of k stops at the
    term after k steps."""
    lines, end = _oracle(make(), 10**6)
    terms = [pretty(make())] + [line[3] for line in lines]
    for fuel in range(len(lines)):
        yield fuel, (lines[:fuel], ("fuel-exhausted", terms[fuel]))
    yield len(lines), (lines, end)


# closed terms the loop gets stuck on: it applies a pair, splits a
# number, recurses on a λ
STUCK = ["<(\\x. x) 0, 1> 2", "let <a, b> = 0 in <a, b>",
         "rec(<\\x. x, 0>, 0, \\y. y, \\z. z)"]


def test_every_fuel_budget_stops_where_the_oracle_does():
    # the budgets run out in APP, LET, REC and HEAD frames, and right
    # after Rec2
    makers = [(name, lambda name=name: _load(str(CORPUS / name), "lrec")[0])
              for name in ("add23.lrec", "fact4.lrec", "mult34.lrec")]
    makers += [(f"@pred {n}", lambda n=n: _pred(n)) for n in range(3, 7)]
    makers += [(src, lambda src=src: parse(src)) for src in STUCK]
    for name, make in makers:
        for fuel, want in _budgets(make):
            assert _zipper(normalize, make(), fuel) == want, (name, fuel)
            assert _untraced(make(), fuel) == _matches(want), (name, fuel)


def test_long_numerals_match_the_oracle():
    for src in ("@factorial 6", "@mult 12 12"):
        def make(src=src):
            return parse(src)
        want = _oracle(make(), 10**6)
        assert want[1][0] == "normal-form"
        assert _zipper(normalize, make(), 10**6) == want, src
        assert _untraced(make(), 10**6) == _matches(want), src


@pytest.mark.skipif(not __debug__, reason="the guard is a debug assertion")
def test_a_contraction_that_changes_free_variables_trips_the_guard(
        monkeypatch):
    def leaky(t):
        # contracts an identity application to a free variable
        r = step_root(t)
        return (Var("y"), "Leak") if r is not None else None

    monkeypatch.setattr(reduction, "step_root", leaky)
    with pytest.raises(AssertionError, match="Leak changed the free variables"):
        _normalize_with(parse("\\z. (\\x. <x, z>) 0"), 10, None)
    with pytest.raises(AssertionError, match="Leak changed the free variables"):
        step_lo(parse("(\\x. x) 0"))


def _same_term_twice(count_checks) -> list[str]:
    """The terms among add23.lrec and 100 generated ones whose second
    walk, as counted by count_checks(term, counting step_root), costs a
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


def test_enumerating_the_same_term_twice_costs_the_same(monkeypatch):
    def count_checks(t, counting):
        monkeypatch.setattr(reduction, "step_root", counting)
        enumerate_redexes(t)
        monkeypatch.undo()

    assert _same_term_twice(count_checks) == []


# -- the root rules as two functions, one per calculus, before they were
# -- merged into step_root; kept verbatim as the reference for the merge

def _recursor_root(t):
    cls = type(t)
    if cls is App:
        f, v = t.fun, t.arg
        if type(f) is Lam and not v.fv:
            return subst(f.body, f.binder, v), "Beta"
    elif cls is LetPair:
        p = t.scrut
        if type(p) is Pair:
            a, b2 = p.left, p.right
            if not a.fv and not b2.fv:
                return subst(subst(t.body, t.x, a), t.y, b2), "Let"
    elif cls is Rec:
        p = t.scrut
        if type(p) is Pair:
            n, t2, v, w = p.left, p.right, t.step, t.update
            if type(n) is Zero:
                if not (t2.fv or v.fv or w.fv):
                    return t.base, "RecZero"
            elif type(n) is Suc and not (v.fv or w.fv):
                return (App(v, Rec(App(w, Pair(n.body, t2)), t.base, v, w)),
                        "RecSuc")
    return None


def _minimiser_root(t):
    cls = type(t)
    if cls is Iter:
        n, v = t.count, t.step
        if not v.fv:
            if type(n) is Zero:
                return t.base, "IterZero"
            if type(n) is Suc:
                return App(v, Iter(n.body, t.base, v)), "IterSuc"
    elif cls is Min:
        n, u, f = t.scrut, t.counter, t.fn
        if type(n) is Zero:
            if not f.fv:
                return u, "MinZero"
        elif type(n) is Suc and not (f.fv or n.body.fv or u.fv):
            # the search continues: drop the witness body, try the next
            # counter value (which the closedness lets us use twice)
            return Min(App(f, Suc(u)), Suc(u), f), "MinSuc"
    else:
        return _recursor_root(t)  # Beta and Let; the recursor never occurs here
    return None


def _shown(r):
    return None if r is None else (r[1], pretty(r[0]))


def _blocked_minimiser_redexes():
    """Iter and Min nodes that fail a side condition: an open step,
    function or counter, or a count or scrutinee that is no numeral."""
    ident = Lam("x", Var("x"))
    return [Iter(numeral(2), Zero(), Var("v")),
            Iter(Zero(), numeral(1), Var("v")),
            Iter(Var("n"), Zero(), ident),
            Iter(App(ident, Zero()), Zero(), ident),
            Min(Zero(), numeral(1), Var("f")),
            Min(numeral(2), numeral(1), Var("f")),
            Min(numeral(1), Var("u"), ident),
            Min(Suc(Var("t")), Zero(), ident),
            Min(Var("n"), Zero(), ident),
            Min(App(ident, Zero()), Zero(), ident)]


def _merge_inputs():
    """(name, term, reference root function): the terms of each calculus,
    hand-built blocked redexes among them."""
    for path in sorted(CORPUS.glob("*.lrec")):
        yield path.name, _load(str(path), "lrec")[0], _recursor_root
    rng = random.Random(1997)
    for k in range(300):
        yield f"generated #{k}", random_closed(rng)[0], _recursor_root
    for n in range(3, 13):
        yield f"@pred {n}", _pred(n), _recursor_root
    for n in range(11):
        yield f"lin_pred {n}", App(lin_pred(), numeral(n)), _minimiser_root
    for c in range(3):
        fn = Lam("x", Iter(Var("x"), numeral(c), lin_pred()))
        yield f"mu_enc {c}", mu_enc(fn), _minimiser_root
        fn = Lam("x", iter_enc(Var("x"), numeral(c), pred_enc()))
        yield f"min_enc {c}", min_enc(fn), _recursor_root
    for k, t in enumerate(_blocked_minimiser_redexes()):
        yield f"blocked #{k}", t, _minimiser_root


def test_merged_step_root_agrees_with_the_per_calculus_rules():
    """On every subterm of each input and of its first reducts, the
    merged step_root returns what that calculus's own function did."""
    fired = set()
    for name, t, reference in _merge_inputs():
        reducts = [t]
        normalize(t, 40, on_step=lambda i, rule, path, term:
                  reducts.append(term))
        for u in reducts:
            work = [u]
            while work:
                node = work.pop()
                got = _shown(step_root(node))
                assert got == _shown(reference(node)), (name, pretty(node))
                if got is not None:
                    fired.add(got[0])
                work.extend(children(node))
    assert fired == {"Beta", "Let", "RecZero", "RecSuc", "IterZero",
                     "IterSuc", "MinZero", "MinSuc"}
    assert all(step_root(t) is None for t in _blocked_minimiser_redexes())


def test_normalize_fires_the_minimiser_rules():
    assert pretty(normalize(App(lin_pred(), numeral(3)), 10_000)) == "2"
    assert pretty(normalize_m(App(lin_pred(), numeral(3)), 10_000)) == "2"
