"""Big-step CBN/CBV evaluation against integer oracles."""

import pytest

from lrec.evaluation import Stuck, eval_cbn, eval_cbv, force_numeral
from lrec.parser import parse
from lrec.reduction import FuelExhausted
from lrec.terms import (App, ContractViolation, Lam, Suc, Term, Var, alpha_eq,
                        numeral)

ID = "(\\i. i)"
ADD = "(\\m n. rec(<m, 0>, n, \\x. S x, \\p. p))"
MULT = f"(\\m n. rec(<m, 0>, 0, {ADD} n, \\p. p))"
LOOP = ("(\\x. rec(<2, 0>, \\a b. a b, \\y. y x, \\p. p))"
        " (\\x. rec(<2, 0>, \\a b. a b, \\y. y x, \\p. p))")


def test_identity_application():
    got = eval_cbn(parse(f"{ID} 0"), 100)
    assert isinstance(got, Term) and alpha_eq(got, numeral(0))
    got = eval_cbv(parse(f"{ID} 0"), 100)
    assert isinstance(got, Term) and alpha_eq(got, numeral(0))


def test_no_evaluation_under_suc():
    t = Suc(parse(f"{ID} 0"))
    for ev in (eval_cbn, eval_cbv):
        got = ev(t, 100)
        assert got is t


def test_addition_oracle():
    for m in range(6):
        for n in range(6):
            t = parse(f"{ADD} {m} {n}")
            assert force_numeral(t, 10_000) == m + n
            assert force_numeral(t, 10_000, cbv=True) == m + n


def test_multiplication_oracle():
    for m in range(5):
        for n in range(5):
            t = parse(f"{MULT} {m} {n}")
            assert force_numeral(t, 10_000) == m * n
            assert force_numeral(t, 10_000, cbv=True) == m * n


def test_fuel_exhaustion():
    assert isinstance(eval_cbn(parse(LOOP), 1000), FuelExhausted)
    assert isinstance(eval_cbv(parse(LOOP), 1000), FuelExhausted)
    assert isinstance(force_numeral(parse(LOOP), 1000), FuelExhausted)


def test_fuel_counts_rule_instances():
    # (\x.x) 0: premise Val, the App rule, then Val on the body
    t = parse(f"{ID} 0")
    assert isinstance(eval_cbn(t, 3), Term)
    assert isinstance(eval_cbn(t, 2), FuelExhausted)
    assert isinstance(eval_cbn(numeral(0), 1), Term)
    assert isinstance(eval_cbn(numeral(0), 0), FuelExhausted)


def test_stuck_on_ill_typed():
    applied_pair = parse("<0, 0> 1")
    got = eval_cbn(applied_pair, 100)
    assert isinstance(got, Stuck) and "non-function" in got.reason
    split_number = parse("let <a, b> = 2 in <a, b>")
    got = eval_cbn(split_number, 100)
    assert isinstance(got, Stuck) and "non-pair" in got.reason
    rec_on_lam = parse("rec(<\\x. x, 0>, 0, \\x. S x, \\p. p)")
    got = eval_cbn(rec_on_lam, 100)
    assert isinstance(got, Stuck) and "non-number" in got.reason


def test_open_input_faults():
    with pytest.raises(ContractViolation):
        eval_cbn(Var("x"), 10)
    with pytest.raises(ContractViolation):
        eval_cbv(App(Lam("x", Var("x")), Var("y")), 10)
    with pytest.raises(ContractViolation):
        force_numeral(Var("x"), 10)


def test_literal_let_agrees():
    t = parse("let <a, b> = <1, 2> in rec(<a, 0>, b, \\x. S x, \\p. p)")
    d = eval_cbn(t, 1000)
    lit = eval_cbn(t, 1000, literal_let=True)
    assert isinstance(d, Term) and isinstance(lit, Term)
    assert alpha_eq(d, lit)


def test_force_numeral_basics():
    assert force_numeral(numeral(7), 100) == 7
    assert force_numeral(parse("\\x. x"), 100) is None
    assert force_numeral(parse("<0, 0> 1"), 100) is None


def test_cbn_defers_argument_work():
    # CBN substitutes the argument unevaluated; forcing the result pays
    # for it afterwards, so the value under S is still a redex
    t = parse(f"(\\n. S n) ({ADD} 1 1)")
    got = eval_cbn(t, 100)
    assert isinstance(got, Suc)
    assert not alpha_eq(got, numeral(3))
    assert force_numeral(t, 100) == 3
    # CBV evaluates it first
    got_v = eval_cbv(t, 100)
    assert isinstance(got_v, Term) and alpha_eq(got_v, numeral(3))
