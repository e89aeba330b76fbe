"""Encodings against independent oracles (Python integer arithmetic,
brute-force minimisation, structural laws)."""

import pytest

from lrec.evaluation import eval_cbn, force_numeral
from lrec.parser import parse_type
from lrec.reduction import FuelExhausted, normalize, step_lo
from lrec.stdlib import (_PLAIN, add_enc, catalog_lookup, catalog_names,
                         cond_enc, copy_nat, delta, dup, erase_term,
                         factorial_enc, fix, fst_enc, identity, iszero_enc,
                         iter_enc, maker, min_enc, mult_enc, pred_enc,
                         snd_enc)
from lrec.terms import (App, ContractViolation, Lam, LetPair, Pair, Rec, Suc,
                        Term, Var, Zero, alpha_eq, check_linear, numeral,
                        pretty)
from lrec.types import Lolli, MetaVar, NAT, Tensor, check, infer

F = 100_000
NN = Tensor(NAT, NAT)


def ap(f: Term, *args: Term) -> Term:
    for a in args:
        f = App(f, a)
    return f


def loop_term() -> Term:
    return App(delta(), delta())


def test_iter_clauses():
    # iter 0 u v reduces to u; iter (S t) u v to v(iter t u v)
    for k in range(4):
        u = numeral(7)
        v = Lam("x", Suc(Suc(Var("x"))))
        lhs = normalize(iter_enc(numeral(k), u, v), F)
        rhs = u
        for _ in range(k):
            rhs = App(v, rhs)
        assert alpha_eq(lhs, normalize(rhs, F))


def test_iter_counts_applications():
    t = iter_enc(numeral(3), Zero(), Lam("x", Suc(Var("x"))))
    assert force_numeral(t, F) == 3


def test_iter_rejects_shared_variables():
    with pytest.raises(ContractViolation):
        iter_enc(Var("x"), Var("x"), identity())


def test_projections():
    for a in range(4):
        for b in range(4):
            p = Pair(numeral(a), numeral(b))
            assert force_numeral(App(fst_enc(), p), F) == a
            assert force_numeral(App(snd_enc(), p), F) == b
    assert check(fst_enc(), [], Lolli(NN, NAT))
    assert check(snd_enc(), [], Lolli(NN, NAT))


def test_copy():
    for n in range(5):
        got = normalize(App(copy_nat(), numeral(n)), F)
        assert alpha_eq(got, Pair(numeral(n), numeral(n)))
    assert check(copy_nat(), [], Lolli(NAT, NN))


def test_arithmetic_oracles():
    for m in range(5):
        for n in range(5):
            assert force_numeral(ap(add_enc(), numeral(m), numeral(n)), F) == m + n
            assert force_numeral(ap(mult_enc(), numeral(m), numeral(n)), F) == m * n
    arith = Lolli(NAT, Lolli(NAT, NAT))
    assert check(add_enc(), [], arith)
    assert check(mult_enc(), [], arith)


def test_pred_iszero_oracles():
    for n in range(6):
        assert force_numeral(App(pred_enc(), numeral(n)), F) == max(n - 1, 0)
        assert force_numeral(App(iszero_enc(), numeral(n)), F) == (0 if n == 0 else 1)
    assert check(pred_enc(), [], Lolli(NAT, NAT))
    assert check(iszero_enc(), [], Lolli(NAT, NAT))


def _affine_fn(target: int) -> Term:
    # f(k) = max(target - k, 0): apply pred k times to target
    return Lam("x", iter_enc(Var("x"), numeral(target), pred_enc()))


def test_minimisation_against_bruteforce():
    for target in range(4):
        fbar = _affine_fn(target)
        # brute-force oracle: least k with f(k) = 0
        expect = next(k for k in range(10) if max(target - k, 0) == 0)
        assert force_numeral(min_enc(fbar), F) == expect == target


def test_minimisation_constant_zero():
    consume = Lam("x", Rec(Pair(Var("x"), Zero()), Zero(),
                           identity(), identity()))
    assert force_numeral(min_enc(consume), F) == 0


def test_minimisation_diverges_without_zero():
    positive = Lam("x", Suc(Rec(Pair(Var("x"), Zero()), Zero(),
                                identity(), identity())))
    got = force_numeral(min_enc(positive), 3000)
    assert isinstance(got, FuelExhausted)


def test_min_requires_closed_function():
    with pytest.raises(ContractViolation):
        min_enc(Var("f"))


def test_min_types_at_nat():
    assert infer(min_enc(_affine_fn(2)), []) == NAT


def test_erase_zero_at_nat():
    got = normalize(erase_term(Zero(), NAT), F)
    assert alpha_eq(got, identity())


def test_erase_reduces_to_identity():
    cases = [
        (numeral(5), NAT),
        (Pair(numeral(2), numeral(3)), NN),
        (Lam("x", Suc(Var("x"))), Lolli(NAT, NAT)),
        (Pair(Lam("x", Var("x")), Zero()), Tensor(Lolli(NAT, NAT), NAT)),
    ]
    for t, a in cases:
        got = normalize(erase_term(t, a), F)
        assert alpha_eq(got, identity()), a


def test_maker_inhabits_its_type():
    types = ["Nat", "Nat * Nat", "Nat -o Nat", "(Nat -o Nat) -o Nat",
             "Nat * (Nat -o Nat)", "Nat -o Nat * Nat"]
    for src in types:
        a = parse_type(src)
        m = maker(a)
        assert not m.fv
        assert check_linear(m) == []
        assert check(m, [], a) == a
        got = normalize(erase_term(maker(a), a), F)
        assert alpha_eq(got, identity())


def test_erase_rejects_metavars():
    # every builder meets a type variable where its recursion reaches it,
    # at the top, in a Lolli's domain or codomain, or inside a Tensor
    builders = [lambda a: erase_term(Zero(), a), maker, dup, fix, cond_enc]
    types = [MetaVar(1), Lolli(MetaVar(0), NAT), Lolli(NAT, MetaVar(2)),
             Tensor(NAT, Tensor(MetaVar(3), NAT)),
             Lolli(Tensor(NAT, NAT), Tensor(MetaVar(4), NAT))]
    for build in builders:
        for a in types:
            with pytest.raises(ContractViolation,
                               match="^erasure and makers need a fully "
                                     "determined type$"):
                build(a)


def test_dup_copies():
    got = normalize(App(dup(NAT), numeral(2)), F)
    assert alpha_eq(got, Pair(numeral(2), numeral(2)))
    p = Pair(Zero(), numeral(1))
    got = normalize(App(dup(NN), p), F)
    assert alpha_eq(got, Pair(p, p))
    f = Lam("x", Suc(Var("x")))
    got = normalize(App(dup(Lolli(NAT, NAT)), f), F)
    assert alpha_eq(got, Pair(f, f))


def test_dup_type():
    for src in ("Nat", "Nat * Nat", "Nat -o Nat"):
        a = parse_type(src)
        assert check(dup(a), [], Lolli(a, Tensor(a, a)))


def test_fix_type():
    for src in ("Nat", "Nat -o Nat", "Nat * Nat"):
        a = parse_type(src)
        assert check(fix(a), [], Lolli(Lolli(a, a), a))


def test_fix_unfolds_once():
    f = Lam("x", Suc(Var("x")))
    t0 = App(fix(NAT), f)
    s1 = step_lo(t0)
    assert s1 is not None and s1.rule == "Beta"
    unrolled = s1.next  # rec(<1,0>, M, f, W)
    s2 = step_lo(unrolled)
    assert s2 is not None and s2.rule == "RecSuc"
    assert isinstance(s2.next, App)
    assert alpha_eq(s2.next.fun, f)
    arg = s2.next.arg
    for _ in range(2):  # the update rebuilds <1,0>: one Beta, one Let
        s = step_lo(arg)
        assert s is not None
        arg = s.next
    assert alpha_eq(arg, unrolled)


def test_fix_identity_diverges():
    got = normalize(App(fix(NAT), identity()), 200)
    assert isinstance(got, FuelExhausted)


def test_erasing_fix_diverges():
    t = erase_term(fix(NAT), Lolli(Lolli(NAT, NAT), NAT))
    assert isinstance(normalize(t, 1000), FuelExhausted)


def test_factorial_oracle():
    import math
    fact = factorial_enc()
    for n in range(6):
        assert force_numeral(App(fact, numeral(n)), F) == math.factorial(n)
    assert check(fact, [], Lolli(NAT, NAT))


def test_cond_discards_untaken_branch():
    c = cond_enc(NAT)
    got = eval_cbn(ap(c, numeral(0), numeral(4), loop_term()), F)
    assert isinstance(got, Term)
    assert force_numeral(ap(cond_enc(NAT), numeral(0), numeral(4), loop_term()), F) == 4
    assert force_numeral(ap(cond_enc(NAT), numeral(3), loop_term(), numeral(9)), F) == 9


def test_cond_type():
    for src in ("Nat", "Nat -o Nat"):
        a = parse_type(src)
        assert check(cond_enc(a), [],
                     Lolli(NAT, Lolli(a, Lolli(a, a))))


def test_delta_self_application_loops():
    assert isinstance(normalize(loop_term(), 100), FuelExhausted)


def test_catalog():
    for name in ("I", "fst", "snd", "copy", "add", "mult", "pred",
                 "iszero", "factorial", "delta"):
        t = catalog_lookup(name)
        assert t is not None and not t.fv and check_linear(t) == []
    for name in ("Y", "dup", "cond", "maker"):
        t = catalog_lookup(name, NAT)
        assert t is not None and not t.fv and check_linear(t) == []
    assert catalog_lookup("nope") is None
    assert catalog_lookup("Y") is None  # needs a type argument
    assert "factorial" in catalog_names() and "Y[T]" in catalog_names()


def test_plain_entries_are_built_once_and_shared():
    for name, builder in _PLAIN.items():
        t = catalog_lookup(name)
        assert catalog_lookup(name) is t, name
        assert pretty(t) == pretty(builder()), name


@pytest.mark.parametrize("name,builder,shape", [
    ("dup", dup, lambda a: Lolli(a, Tensor(a, a))),
    ("Y", fix, lambda a: Lolli(Lolli(a, a), a)),
    ("cond", cond_enc, lambda a: Lolli(NAT, Lolli(a, Lolli(a, a)))),
    ("maker", maker, lambda a: a)])
def test_typed_entries_are_built_per_type(name, builder, shape):
    built = []
    for a in (NAT, NN, Lolli(NAT, NN)):
        t = catalog_lookup(name, a)
        assert catalog_lookup(name, a) is not t
        assert pretty(t) == pretty(builder(a))
        assert check(t, [], shape(a)) == shape(a)
        built.append(pretty(t))
    assert len(set(built)) == 3
