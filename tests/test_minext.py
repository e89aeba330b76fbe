"""The minimiser calculus: rules, typing, and agreement with the
recursor-based minimisation."""

import pytest

from lrec.evaluation import force_numeral
from lrec.minext import (check_mterm, lin_copy, lin_fst, lin_pred, mtype,
                         mu_enc, normalize_m)
from lrec.parser import parse
from lrec.reduction import FuelExhausted, Stepped, step_lo, step_root
from lrec.stdlib import identity, iter_enc, min_enc, pred_enc
from lrec.terms import (App, ContractViolation, Iter, Lam, Min, Pair, Rec,
                        Suc, Term, Var, Zero, alpha_eq, numeral,
                        numeral_value)
from lrec.types import Lolli, NAT, TypingError

F = 100_000


def mstep_root(t: Term) -> tuple[Term, str] | None:
    """One rule instance at the root of a minimiser-calculus term."""
    check_mterm(t)
    return step_root(t)


def mstep_lo(t: Term) -> Stepped | None:
    """One leftmost-outermost step under the minimiser rules."""
    check_mterm(t)
    return step_lo(t)


def mforce(t: Term, fuel: int = F):
    got = normalize_m(t, fuel)
    if isinstance(got, FuelExhausted):
        return got
    return numeral_value(got)


def test_min_zero_rule():
    t = Min(Zero(), numeral(5), Lam("x", Var("x")))
    got = mstep_root(t)
    assert got is not None and got[1] == "MinZero"
    assert alpha_eq(got[0], numeral(5))


def test_min_suc_rule_shape():
    f = Lam("x", Var("x"))
    t = Min(numeral(3), numeral(1), f)
    got = mstep_root(t)
    assert got is not None and got[1] == "MinSuc"
    # the scrutinee body is dropped, the counter advances and is reused
    assert alpha_eq(got[0], Min(App(f, numeral(2)), numeral(2), f))


def test_min_rules_block_on_open_parts():
    assert mstep_root(Min(Zero(), numeral(1), Var("f"))) is None
    assert mstep_root(Min(Suc(Var("t")), Zero(), Lam("x", Var("x")))) is None
    assert mstep_root(Min(numeral(1), Var("u"), Lam("x", Var("x")))) is None


def test_iter_rules():
    v = Lam("x", Suc(Var("x")))
    z = mstep_root(Iter(Zero(), numeral(4), v))
    assert z is not None and z[1] == "IterZero" and alpha_eq(z[0], numeral(4))
    s = mstep_root(Iter(numeral(1), numeral(4), v))
    assert s is not None and s[1] == "IterSuc"
    assert alpha_eq(s[0], App(v, Iter(Zero(), numeral(4), v)))
    assert mstep_root(Iter(numeral(1), Zero(), Var("v"))) is None


def test_beta_let_shared():
    t = parse("(\\x. x) 0", calculus="llcim")
    got = mstep_root(t)
    assert got is not None and got[1] == "Beta"
    t2 = parse("let <a, b> = <1, 2> in <b, a>", calculus="llcim")
    got2 = mstep_root(t2)
    assert got2 is not None and got2[1] == "Let"


def test_universe_guard():
    bad = Rec(Pair(Zero(), Zero()), Zero(), Lam("x", Var("x")),
              Lam("p", Var("p")))
    with pytest.raises(ContractViolation):
        mstep_root(bad)
    with pytest.raises(ContractViolation):
        mtype(Lam("y", App(Var("y"), bad)), [])
    with pytest.raises(ContractViolation):
        mu_enc(Lam("x", Rec(Pair(Var("x"), Zero()), Zero(),
                            identity(), identity())))


def test_mtype():
    assert mtype(Min(Zero(), Zero(), Lam("x", Var("x"))), []) == NAT
    with pytest.raises(TypingError):
        mtype(Min(Zero(), Zero(), Lam("x", Pair(Var("x"), Zero()))), [])
    assert mtype(Iter(numeral(2), Zero(), Lam("x", Suc(Var("x")))), []) == NAT
    with pytest.raises(TypingError):
        mtype(Iter(Lam("x", Var("x")), Zero(), Lam("x", Var("x"))), [])


def _constant_fn(c: int) -> Term:
    # f(x) = c: iterating the identity collapses onto the base
    return Lam("x", Iter(Var("x"), numeral(c), Lam("i", Var("i"))))


def _affine_fn(c: int) -> Term:
    # f(x) = max(c - x, 0)
    return Lam("x", Iter(Var("x"), numeral(c), lin_pred()))


def test_subject_reduction_across_min_rules():
    for k in (0, 1, 3):
        for u in (0, 2):
            t = Min(numeral(k), numeral(u), _constant_fn(1))
            assert mtype(t, []) == NAT
            got = mstep_root(t)
            assert got is not None
            assert mtype(got[0], []) == NAT


def test_lin_helpers():
    for n in range(5):
        got = normalize_m(App(lin_copy(), numeral(n)), F)
        assert alpha_eq(got, Pair(numeral(n), numeral(n)))
        assert mforce(App(lin_pred(), numeral(n))) == max(n - 1, 0)
    assert mforce(App(lin_fst(), Pair(numeral(3), numeral(7)))) == 3
    assert mtype(lin_pred(), []) == Lolli(NAT, NAT)


def test_mu_against_bruteforce():
    for c in range(4):
        fbar = _affine_fn(c)
        assert mtype(fbar, []) == Lolli(NAT, NAT)
        assert mforce(mu_enc(fbar)) == c  # first zero of max(c-x,0)
    assert mforce(mu_enc(_constant_fn(0))) == 0


def test_mu_diverges_on_positive_function():
    got = normalize_m(mu_enc(_constant_fn(1)), 2000)
    assert isinstance(got, FuelExhausted)


def test_mu_agrees_with_recursor_minimisation():
    # the same functions, one written with iter, one with rec
    for c in range(4):
        lhs = mforce(mu_enc(_affine_fn(c)))
        rec_fn = Lam("x", iter_enc(Var("x"), numeral(c), pred_enc()))
        rhs = force_numeral(min_enc(rec_fn), F)
        assert lhs == rhs == c


def test_mu_requires_closed_function():
    with pytest.raises(ContractViolation):
        mu_enc(Var("f"))


def test_normalize_m_trace():
    rules = []
    t = Min(Zero(), numeral(1), Lam("x", Var("x")))
    normalize_m(t, 10, on_step=lambda i, r, p, term: rules.append(r))
    assert rules == ["MinZero"]


def test_mstep_lo_descends_into_scrutinee():
    f = _constant_fn(0)
    t = Min(App(f, Zero()), Zero(), _constant_fn(0))
    s = mstep_lo(t)
    assert s is not None and s.path == "0"
