"""Acceptance gate: one test per advertised guarantee.

Each test prints a PASS/FAIL line (visible under pytest -s) and covers
one numbered guarantee: rule fidelity, subject reduction, adequacy,
confluence, machine/CBN agreement, arithmetic, erasure, duplication,
minimisation, the fixpoint law, PCF end-to-end, divergence
preservation, and the CBN/CBV separation.
"""

import random
import sys
from pathlib import Path

from lrec import machine
from lrec.evaluation import eval_cbn, eval_cbv, eval_report, force_numeral
from lrec.gen import _Gen, random_closed
from lrec.machine import run
from lrec.minext import lin_pred, mu_enc, normalize_m
from lrec.parser import parse_defs
from lrec.pcf import NumConst, compile_pcf, parse_pcf, parse_pcf_defs, \
    pcf_check, pcf_eval
from lrec.reduction import FuelExhausted, normalize, step_at, step_random, \
    step_root
from lrec.stdlib import add_enc, delta, dup, erase_term, \
    fix, identity, iszero_enc, maker, min_enc, mult_enc, pred_enc
from lrec.terms import App, Iter, Lam, LetPair, Pair, Rec, Suc, Term, Var, \
    Zero, alpha_eq, numeral, numeral_value, pretty
from lrec.types import NAT, Lolli, MetaVar, Nat, Tensor, TypingError, \
    check, infer

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
FUEL = 100_000


class _gate:
    """Prints `criterion N PASS/FAIL: label` when the block exits."""

    def __init__(self, n: int, label: str):
        self.n = n
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, et, ev, tb):
        word = "FAIL" if et else "PASS"
        print(f"criterion {self.n:2d} {word}: {self.label}",
              file=sys.stderr)
        return False


def _lrec_corpus():
    for p in sorted(CORPUS.glob("*.lrec")):
        _, t = parse_defs(p.read_text(), "lrec")
        yield p.name, t


def _pcf_corpus():
    for p in sorted(CORPUS.glob("*.pcf")):
        _, t = parse_pcf_defs(p.read_text())
        yield p.name, t


def _shape_matches(t: Term, a) -> bool:
    if isinstance(a, MetaVar):
        return True
    if isinstance(a, Nat):
        return numeral_value(t) is not None
    if isinstance(a, Lolli):
        return isinstance(t, Lam)
    if isinstance(a, Tensor):
        return (isinstance(t, Pair) and _shape_matches(t.left, a.left)
                and _shape_matches(t.right, a.right))
    return False


# 1 ------------------------------------------------------------------

def test_criterion_01_reduction_rule_fixtures():
    with _gate(1, "each root rule fires and blocks per its side condition"):
        fixtures = [
            # (term, expected result or None when the rule must not fire)
            (App(Lam("x", Suc(Var("x"))), numeral(3)), numeral(4), "Beta"),
            (App(Lam("x", Var("x")), Var("y")), None, "Beta"),
            (LetPair(Pair(numeral(1), numeral(2)), "a", "b",
                     Pair(Var("b"), Var("a"))),
             Pair(numeral(2), numeral(1)), "Let"),
            (LetPair(Pair(Var("u"), numeral(2)), "a", "b",
                     Pair(Var("b"), Var("a"))), None, "Let"),
            (Rec(Pair(Zero(), numeral(5)), numeral(9), identity(),
                 identity()), numeral(9), "RecZero"),
            (Rec(Pair(Zero(), Var("n")), numeral(9), identity(),
                 identity()), None, "RecZero"),
            (Rec(Pair(Suc(numeral(2)), numeral(7)), Zero(),
                 Lam("x", Suc(Var("x"))), identity()),
             App(Lam("x", Suc(Var("x"))),
                 Rec(App(identity(), Pair(numeral(2), numeral(7))), Zero(),
                     Lam("x", Suc(Var("x"))), identity())), "RecSuc"),
            (Rec(Pair(Suc(numeral(2)), numeral(7)), Zero(),
                 Lam("x", App(Var("g"), Var("x"))), identity()),
             None, "RecSuc"),
        ]
        assert len(fixtures) == 8
        for t, expected, rule in fixtures:
            got = step_root(t)
            if expected is None:
                assert got is None, f"{rule} fired despite its side condition"
            else:
                assert got is not None, f"{rule} did not fire"
                assert got[1] == rule
                assert alpha_eq(got[0], expected)


# 2 ------------------------------------------------------------------

def test_criterion_02_subject_reduction():
    with _gate(2, "500 terms: every step within fuel 200 preserves the type"):
        rng = random.Random(1002)
        for _ in range(500):
            t, a = random_closed(rng)
            assert check(t, [], a) == a
            states: list[Term] = []
            normalize(t, 200, on_step=lambda c, r, p, after:
                      states.append(after))
            for s in states:
                assert check(s, [], a) == a, pretty(s)


# 3 ------------------------------------------------------------------

def test_criterion_03_adequacy_on_corpus():
    with _gate(3, "corpus normal forms have the shape their type dictates"):
        successes = 0
        for name, t in _lrec_corpus():
            try:
                a = infer(t, [])
            except TypingError:
                continue          # untyped divergence witnesses
            nf = normalize(t, FUEL)
            if isinstance(nf, FuelExhausted):
                continue
            successes += 1
            assert _shape_matches(nf, a), f"{name}: {pretty(nf)}"
        assert successes >= 10


# 4 ------------------------------------------------------------------

def test_criterion_04_confluence_spot_check():
    with _gate(4, "300 terms x 10 random strategies: one normal form"):
        rng = random.Random(1004)
        for i in range(300):
            t, _ = random_closed(rng)
            nfs: list[Term] = []
            lo = normalize(t, 10_000)
            if not isinstance(lo, FuelExhausted):
                nfs.append(lo)
            for _ in range(10):
                cur, steps = t, 0
                while steps < 2000:
                    s = step_random(cur, rng)
                    if s is None:
                        nfs.append(cur)
                        break
                    cur, steps = s.next, steps + 1
            for nf in nfs[1:]:
                assert alpha_eq(nfs[0], nf), f"two normal forms: {pretty(t)}"


# 5 ------------------------------------------------------------------

def test_criterion_05_machine_agrees_with_cbn():
    with _gate(5, "machine == CBN on the corpus plus 300 generated terms"):
        def agree(t: Term):
            ev = eval_report(t, FUEL)
            mc = run(t, FUEL)
            assert isinstance(ev, Term) == isinstance(mc, Term)
            if isinstance(ev, Term):
                assert alpha_eq(ev, mc)

        for name, t in _lrec_corpus():
            agree(t)
        rng = random.Random(1005)
        for _ in range(300):
            t, _ = random_closed(rng)
            agree(t)


# 6 ------------------------------------------------------------------

def test_criterion_06_arithmetic_against_integer_oracles():
    with _gate(6, "add/mult/pred/iszero match integers for m, n <= 8"):
        for m in range(9):
            for n in range(9):
                s = App(App(add_enc(), numeral(m)), numeral(n))
                assert force_numeral(s, FUEL) == m + n
                p = App(App(mult_enc(), numeral(m)), numeral(n))
                assert force_numeral(p, FUEL) == m * n
        for m in range(9):
            assert force_numeral(App(pred_enc(), numeral(m)), FUEL) == \
                max(m - 1, 0)
            assert force_numeral(App(iszero_enc(), numeral(m)), FUEL) == \
                (0 if m == 0 else 1)


# 7 ------------------------------------------------------------------

def _types_to_depth_3():
    d1 = [NAT]
    d2 = [Tensor(NAT, NAT), Lolli(NAT, NAT)]
    d3 = []
    for left in d1 + d2:
        for right in d1 + d2:
            if left == NAT and right == NAT:
                continue
            d3 += [Tensor(left, right), Lolli(left, right)]
    return d1 + d2 + d3


def test_criterion_07_erasure_consumes_makers_and_samples():
    with _gate(7, "erasure of makers and of sampled terms reaches I"):
        types = _types_to_depth_3()
        assert len(types) >= 14     # every type of depth <= 3
        for a in types:
            got = normalize(erase_term(maker(a), a), 10_000)
            assert alpha_eq(got, identity()), f"at {a!r}"
        ground = [NAT, Tensor(NAT, NAT), Tensor(NAT, Tensor(NAT, NAT)),
                  Tensor(Tensor(NAT, NAT), NAT),
                  Tensor(Tensor(NAT, NAT), Tensor(NAT, NAT))]
        rng = random.Random(1007)
        for a in ground:
            done = 0
            while done < 20:
                t = _Gen(rng).go(a, [], 2)
                if isinstance(normalize(t, 10_000), FuelExhausted):
                    continue
                got = normalize(erase_term(t, a), 10_000)
                assert alpha_eq(got, identity()), f"{pretty(t)} at {a!r}"
                done += 1


# 8 ------------------------------------------------------------------

def test_criterion_08_duplication_yields_a_pair_of_copies():
    with _gate(8, "dup t and <t, t> join for 50 samples over 5 types"):
        types = [NAT, Tensor(NAT, NAT), Tensor(NAT, Tensor(NAT, NAT)),
                 Tensor(Tensor(NAT, NAT), NAT),
                 Tensor(Tensor(NAT, NAT), Tensor(NAT, NAT))]
        rng = random.Random(1008)
        for a in types:
            done = 0
            while done < 10:
                t = _Gen(rng).go(a, [], 2)
                if isinstance(normalize(t, 10_000), FuelExhausted):
                    continue
                got = normalize(App(dup(a), t), 10_000)
                want = normalize(Pair(t, t), 10_000)
                assert alpha_eq(got, want), f"{pretty(t)} at {a!r}"
                done += 1


# 9 ------------------------------------------------------------------

def test_criterion_09_minimisation_both_encodings():
    with _gate(9, "min of max(k - x, 0) is k; a positive f never stops"):
        for k in range(6):
            frec = Lam("x", Rec(Pair(Var("x"), Zero()), numeral(k),
                                pred_enc(), identity()))
            assert force_numeral(min_enc(frec), FUEL) == k
            fm = Lam("x", Iter(Var("x"), numeral(k), lin_pred()))
            got = normalize_m(mu_enc(fm), FUEL)
            assert numeral_value(got) == k
        positive_rec = Lam("x", Rec(Pair(Var("x"), Zero()), numeral(1),
                                    identity(), identity()))
        assert isinstance(force_numeral(min_enc(positive_rec), 2000),
                          FuelExhausted)
        positive_m = Lam("x", Iter(Var("x"), numeral(1), identity()))
        assert isinstance(normalize_m(mu_enc(positive_m), 2000),
                          FuelExhausted)


# 10 -----------------------------------------------------------------

def test_criterion_10_fixpoint_unfolds_to_f_of_fix_f():
    with _gate(10, "Y f steps to f (Y f) for 10 closed f at 3 types"):
        rng = random.Random(1010)
        cases = []
        for a in (NAT, Lolli(NAT, NAT), Tensor(NAT, NAT)):
            cases.append((a, identity()))
            while len([c for c in cases if c[0] == a]) < 4 and len(cases) < 10:
                f = _Gen(rng).go(Lolli(a, a), [], 2)
                cases.append((a, f))
        assert len(cases) >= 10
        for a, f in cases[:10]:
            yf = App(fix(a), f)
            t1, r1 = step_at(yf, ())        # Beta exposes the recursor
            t2, r2 = step_at(t1, ())        # RecSuc re-arms it under f
            assert (r1, r2) == ("Beta", "RecSuc")
            t3, _ = step_at(t2, (1, 0))     # counter update, two steps
            t4, _ = step_at(t3, (1, 0))
            assert alpha_eq(t4, App(f, t1)), pretty(f)


# 11 -----------------------------------------------------------------

def test_criterion_11_pcf_compiles_and_agrees():
    with _gate(11, "compiled PCF matches the reference on every program"):
        names = []
        for name, prog in _pcf_corpus():
            assert pcf_check(prog, {}) is not None
            ref = pcf_eval(prog, 10_000_000)
            assert isinstance(ref, NumConst), name
            compiled = compile_pcf(prog, [])
            assert check(compiled, [], NAT) == NAT, name
            assert force_numeral(compiled, 10_000_000) == ref.n, name
            names.append((name, ref.n))
        assert len(names) >= 10
        assert ("fact.pcf", 120) in names       # Y-defined factorial of 5
        assert ("add34.pcf", 7) in names        # Y-defined addition


# 12 -----------------------------------------------------------------

def test_criterion_12_divergence_is_preserved_everywhere():
    with _gate(12, "four loops exhaust fuel under both strategies, "
                   "normalization, and the machine"):
        y_nat = fix(NAT)
        witnesses = [
            App(delta(), delta()),
            App(y_nat, identity()),
            erase_term(fix(NAT), Lolli(Lolli(NAT, NAT), NAT)),
            compile_pcf(parse_pcf("succ (Y[Nat] (fun x : Nat . x))"), []),
        ]
        for t in witnesses:
            assert isinstance(normalize(t, 1000), FuelExhausted)
            assert isinstance(eval_cbn(t, 1000), FuelExhausted)
            assert isinstance(eval_cbv(t, 1000), FuelExhausted)
            assert isinstance(run(t, 1000), machine.FuelExhausted)


# 13 -----------------------------------------------------------------

def test_criterion_13_cbn_cbv_separation():
    with _gate(13, "the separating term has a CBN value but no CBV one"):
        sep = App(
            Lam("x", Lam("y", App(Rec(Pair(Zero(), Zero()), identity(),
                                      erase_term(Var("x"), NAT), identity()),
                                  Var("y")))),
            App(fix(NAT), identity()))
        got = eval_cbn(sep, 1000)
        assert isinstance(got, Lam)
        assert isinstance(eval_cbv(sep, 1000), FuelExhausted)
