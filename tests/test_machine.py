"""The stack machine: transitions, halting taxonomy, stack discipline."""

import dataclasses
import random

import pytest

from lrec.evaluation import eval_cbn
from lrec.machine import (ExtTerm, FuelExhausted, LetK, MachineConfig,
                          Plain, RecK, RecK2, Stuck, _step,
                          machine_force_numeral, run)
from lrec.parser import parse
from lrec.terms import (ContractViolation, Lam, Pair, Rec, App, Suc, Term,
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
    u, v, w = numeral(0), parse("\\x. S x"), parse("\\p. p")
    got = _step(Suc(Zero()), (RecK2(Zero(), u, v, w),))
    assert got is not None
    code, stack, rule = got
    assert rule == "succ"
    assert code is v
    assert len(stack) == 1 and isinstance(stack[0], Plain)
    pending = stack[0].term
    assert isinstance(pending, Rec)
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
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, str):
            if x != y:
                return False
        elif not alpha_eq(x, y):
            return False
    return True


def test_stack_append_property():
    # a transition is insensitive to extra entries below the live stack
    junk_pool = [
        Plain(numeral(9)),
        LetK("a", "b", Pair(Var("a"), Var("b"))),
        RecK(numeral(1), parse("\\x. S x"), parse("\\p. p")),
        RecK2(numeral(2), numeral(1), parse("\\x. S x"), parse("\\p. p")),
    ]
    rng = random.Random(7)
    for src in (f"{ADD} 2 3", "let <a, b> = <1, 2> in <b, a>", f"{MULT} 2 2"):
        code, stack = parse(src), ()
        for _ in range(200):
            got = _step(code, stack)
            if got is None:
                break
            after, after_stack, rule = got
            junk = tuple(rng.choices(junk_pool, k=rng.randrange(1, 3)))
            ext = _step(code, stack + junk)
            assert ext is not None
            ext_code, ext_stack, ext_rule = ext
            assert ext_rule == rule
            assert alpha_eq(ext_code, after)
            want = after_stack + junk
            assert len(ext_stack) == len(want)
            assert all(_ext_eq(p, q) for p, q in zip(ext_stack, want))
            code, stack = after, after_stack


def test_no_environment_in_data_model():
    # configurations carry terms and names only: no binding maps anywhere
    for cls in (Plain, LetK, RecK, RecK2, MachineConfig):
        for f in dataclasses.fields(cls):
            assert f.type in ("Term", "str", "Stack"), (cls, f.name, f.type)


def test_trace_reports_stack_depth():
    depths = []
    run(parse(f"{ADD} 1 1"), 100, on_step=lambda i, r, c: depths.append(len(c.stack)))
    assert max(depths) >= 2
    assert depths[-1] == 0
