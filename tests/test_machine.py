"""The stack machine: transitions, halting taxonomy, stack discipline."""

import random

import pytest

from lrec.evaluation import eval_cbn
from lrec.machine import (ExtTerm, FuelExhausted, LetK, MachineConfig,
                          Plain, RecK, RecK2, Stuck, machine_force_numeral,
                          run)
from lrec.parser import parse
from lrec.terms import (ContractViolation, LetPair, Pair, Rec, App, Term,
                        Var, Zero, alpha_eq, numeral)

ADD = "(\\m n. rec(<m, 0>, n, \\x. S x, \\p. p))"
MULT = f"(\\m n. rec(<m, 0>, 0, {ADD} n, \\p. p))"
LOOP = ("(\\x. rec(<2, 0>, \\a b. a b, \\y. y x, \\p. p))"
        " (\\x. rec(<2, 0>, \\a b. a b, \\y. y x, \\p. p))")


def test_identity_program_transitions():
    rules = []
    got = run(parse("(\\x. x) 0"), 10, on_step=lambda i, r, c: rules.append(r))
    assert rules == ["app", "abs"]
    assert isinstance(got, Term)
    assert alpha_eq(got, Zero())


def test_rec_zero_transitions():
    rules = []
    got = run(parse("rec(<0, 0>, 0, \\x. S x, \\p. p)"), 10,
              on_step=lambda i, r, c: rules.append(r))
    assert rules == ["rec", "pair2", "zero"]
    assert isinstance(got, Term) and alpha_eq(got, Zero())


def test_succ_transition_shape():
    t = parse("rec(<1, 0>, 0, \\x. S x, \\p. p)")
    u, v, w = t.base, t.step, t.update
    seen = []
    run(t, 10, on_step=lambda i, r, c: seen.append((r, c)))
    assert [r for r, _ in seen[:3]] == ["rec", "pair2", "succ"]
    config = seen[2][1]
    assert config.code is v
    stack = config.stack
    assert len(stack) == 1 and isinstance(stack[0], Plain)
    pending = stack[0].term
    assert isinstance(pending, Rec)
    assert (pending.base, pending.step, pending.update) == (u, v, w)
    assert alpha_eq(pending.scrut, App(w, Pair(Zero(), Zero())))


def test_values_halt_immediately():
    steps = []
    got = run(numeral(3), 10, on_step=lambda i, r, c: steps.append(r))
    assert steps == []
    assert isinstance(got, Term) and alpha_eq(got, numeral(3))


def test_machine_arithmetic_oracle():
    for m in range(5):
        for n in range(5):
            assert machine_force_numeral(parse(f"{ADD} {m} {n}"), 10_000) == m + n
            assert machine_force_numeral(parse(f"{MULT} {m} {n}"), 10_000) == m * n


def test_machine_fuel_exhaustion():
    got = run(parse(LOOP), 100)
    assert isinstance(got, FuelExhausted)
    assert got.at.code is not None


def test_machine_stuck_on_ill_typed():
    got = run(parse("<0, 0> 1"), 100)
    assert isinstance(got, Stuck)
    assert isinstance(got.at.code, Pair)


def test_open_input_faults():
    with pytest.raises(ContractViolation):
        run(Var("x"), 10)
    with pytest.raises(ContractViolation):
        machine_force_numeral(Var("x"), 10)


def test_machine_agrees_with_cbn_spot():
    terms = [
        "(\\x. x) 0",
        f"{ADD} 3 4",
        "let <a, b> = <1, \\x. x> in b a",
        "rec(<2, 0>, 5, \\x. S x, \\p. p)",
    ]
    for src in terms:
        t = parse(src)
        ev = eval_cbn(t, 10_000)
        mc = run(t, 10_000)
        assert isinstance(ev, Term) and isinstance(mc, Term), src
        assert type(ev) is type(mc)


def _ext_eq(a: ExtTerm, b: ExtTerm) -> bool:
    if type(a) is not type(b):
        return False
    for name in a.__match_args__:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, str):
            if x != y:
                return False
        elif not alpha_eq(x, y):
            return False
    return True


_V, _W = "\\x. S x", "\\p. p"

# A context around m whose first transitions leave one frame below m's
# run, that frame, and how many transitions it takes to get there.
_CONTEXTS = [
    (lambda m: App(m, numeral(9)), Plain(numeral(9)), 1),
    (lambda m: LetPair(m, "a", "b", Pair(Var("b"), Var("a"))),
     LetK("a", "b", Pair(Var("b"), Var("a"))), 1),
    (lambda m: Rec(m, numeral(1), parse(_V), parse(_W)),
     RecK(numeral(1), parse(_V), parse(_W)), 1),
    (lambda m: Rec(Pair(m, numeral(2)), numeral(1), parse(_V), parse(_W)),
     RecK2(numeral(2), numeral(1), parse(_V), parse(_W)), 2),
]


def _trace(t):
    seen = []
    run(t, 10_000, on_step=lambda i, r, c: seen.append((r, c)))
    return seen


def test_stack_append_property():
    # a transition is insensitive to extra entries below the live stack:
    # run each program under random contexts that leave 1-3 frames below
    # it, and compare every transition with the bare run's
    rng = random.Random(7)
    for src in (f"{ADD} 2 3", "let <a, b> = <1, 2> in <b, a>", f"{MULT} 2 2"):
        prog = parse(src)
        bare = _trace(prog)
        assert bare and not bare[-1][1].stack
        for _ in range(8):
            t, junk, skip = prog, (), 0
            for wrap, frame, steps in rng.choices(_CONTEXTS,
                                                  k=rng.randrange(1, 4)):
                t, junk, skip = wrap(t), junk + (frame,), skip + steps
            ext = _trace(t)
            assert len(ext) >= skip + len(bare)
            start = ext[skip - 1][1]
            assert start.code is prog and len(start.stack) == len(junk)
            assert all(_ext_eq(p, q) for p, q in zip(start.stack, junk))
            for (rule, c), (ext_rule, e) in zip(bare, ext[skip:]):
                assert ext_rule == rule
                assert alpha_eq(e.code, c.code)
                want = c.stack + junk
                assert len(e.stack) == len(want)
                assert all(_ext_eq(p, q) for p, q in zip(e.stack, want))


def test_no_environment_in_data_model():
    # configurations carry terms and names only: no binding maps anywhere
    for cls in (Plain, LetK, RecK, RecK2, MachineConfig):
        assert cls.__match_args__ == tuple(cls.__annotations__), cls
        for name, kind in cls.__annotations__.items():
            assert kind in ("Term", "str", "Stack"), (cls, name, kind)


def test_trace_reports_stack_depth():
    depths = []
    run(parse(f"{ADD} 1 1"), 100, on_step=lambda i, r, c: depths.append(len(c.stack)))
    assert max(depths) >= 2
    assert depths[-1] == 0
