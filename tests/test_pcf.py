import math
import random
from pathlib import Path

import pytest

from lrec import pcf
from lrec.cli import _load_pcf
from lrec.evaluation import eval_cbn, force_numeral
from lrec.pcf import (NumConst, PApp, PConst, PLam, PVar, close_var,
                      compile_body, compile_pcf, parse_pcf, parse_pcf_defs,
                      pcf_check, pcf_eval, pcf_fv, pcf_is_value, pcf_pretty,
                      pcf_subst)
from lrec.parser import ParseError
from lrec.reduction import FuelExhausted, normalize
from lrec.stdlib import identity
from lrec.terms import (App, ContractViolation, Lam, LetPair, Pair, Rec, Suc,
                        Var, Zero, alpha_eq, check_linear, numeral, subst)
from lrec.types import Lolli, NAT, TypingError, check
from test_types import check_nonlinear

F = 100_000


def ev(src: str, fuel: int = F):
    return pcf_eval(parse_pcf(src), fuel)


def evn(src: str, fuel: int = F) -> int:
    v = ev(src, fuel)
    assert isinstance(v, NumConst)
    return v.n


# ---------------------------------------------------------------- parsing

def test_parse_shapes():
    assert parse_pcf("fun x : Nat . x") == PLam("x", NAT, PVar("x"))
    assert parse_pcf("f 1 2") == PApp(PApp(PVar("f"), NumConst(1)),
                                      NumConst(2))
    assert parse_pcf("cond[Nat]") == PConst("cond", NAT)
    assert parse_pcf("Y[Nat -> Nat]") == PConst("Y", Lolli(NAT, NAT))
    assert parse_pcf("Y[(Nat -> Nat) -> Nat]") == \
        PConst("Y", Lolli(Lolli(NAT, NAT), NAT))
    t = parse_pcf("fun f : Nat -> Nat . f 2")
    assert t == PLam("f", Lolli(NAT, NAT),
                     PApp(PVar("f"), NumConst(2)))
    # fun extends right; as an argument it needs parens
    assert parse_pcf("succ (fun x : Nat . x) 1") == \
        PApp(PApp(PConst("succ"), PLam("x", NAT, PVar("x"))), NumConst(1))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_pcf("Y 3")  # missing [type]
    with pytest.raises(ParseError):
        parse_pcf("fun cond : Nat . 1")
    with pytest.raises(ParseError):
        parse_pcf("fun x Nat . x")
    with pytest.raises(ParseError):
        parse_pcf("(fun x : Nat . x")
    with pytest.raises(ParseError):
        parse_pcf("1 2 )")


@pytest.mark.parametrize("text, message", [
    ("", "line 1, col 1: unexpected 'end of input'"),
    ("fun x : ", "line 1, col 9: expected a type, found 'end of input'"),
], ids=["empty", "no-type"])
def test_parse_errors_name_the_end_of_input(text, message):
    with pytest.raises(ParseError) as e:
        parse_pcf_defs(text)
    assert str(e.value) == message


def test_parse_defs():
    defs, prog = parse_pcf_defs("""
        two = 2;
        double = fun f : Nat -> Nat . fun x : Nat . f (f x);
        main = @double succ @two;
    """)
    assert set(defs) == {"two", "double", "main"}
    v = pcf_eval(prog, F)
    assert v == NumConst(4)
    _, bare = parse_pcf_defs("succ 0")
    assert bare == PApp(PConst("succ"), NumConst(0))
    with pytest.raises(ParseError):
        parse_pcf_defs("a = 1; a = 2;")
    with pytest.raises(ParseError):
        parse_pcf_defs("a = @nowhere;")


def test_pretty_round_trip():
    for src in ["fun x : Nat . succ (x 1)",
                "cond[Nat -> Nat] 0 succ pred 3",
                "Y[Nat] (fun x : Nat . x)"]:
        t = parse_pcf(src)
        assert parse_pcf(pcf_pretty(t)) == t


# ----------------------------------------------------------------- typing

def test_constant_types():
    assert pcf_check(PConst("succ"), {}) == Lolli(NAT, NAT)
    assert pcf_check(PConst("iszero"), {}) == Lolli(NAT, NAT)
    assert pcf_check(PConst("cond", NAT), {}) == \
        Lolli(NAT, Lolli(NAT, Lolli(NAT, NAT)))
    assert pcf_check(PConst("Y", NAT), {}) == Lolli(Lolli(NAT, NAT), NAT)


@pytest.mark.parametrize("name, a, message", [
    ("fix", None, "unknown PCF constant 'fix'"),
    ("succ", NAT, "succ takes no type argument"),
    ("cond", None, "cond needs a type argument"),
], ids=["unknown", "plain-given-a-type", "typed-without-one"])
def test_a_constant_is_checked_against_its_table(name, a, message):
    with pytest.raises(ContractViolation) as e:
        PConst(name, a)
    assert str(e.value) == message


def test_typing_terms():
    t = parse_pcf("fun f : Nat -> Nat . f (f 2)")
    assert pcf_check(t, {}) == Lolli(Lolli(NAT, NAT), NAT)
    assert pcf_check(parse_pcf("x"), {"x": NAT}) == NAT
    with pytest.raises(TypingError):
        pcf_check(parse_pcf("x"), {})
    with pytest.raises(TypingError):
        pcf_check(parse_pcf("1 2"), {})
    with pytest.raises(TypingError):
        # Y[Nat] wants Nat -> Nat, gets (Nat -> Nat) -> Nat
        pcf_check(parse_pcf("Y[Nat] (fun f : Nat -> Nat . f 0)"), {})


def test_a_binder_stays_in_its_scope():
    # pcf_check and compile_body extend the environment in place under a
    # binder; the shadowing y must not reach the argument, which sees the
    # outer y : Nat, and the caller's dict must come back unchanged
    src = "(fun y : Nat -> Nat . y 0) (fun z : Nat . y)"
    env = {"y": NAT}
    assert pcf_check(parse_pcf(src), env) == NAT
    with pytest.raises(TypingError):
        pcf_check(parse_pcf("fun y : Nat . y y"), env)
    assert env == {"y": NAT}
    out = compile_body(parse_pcf(src), env)
    assert env == {"y": NAT}
    want = compile_body(parse_pcf("fun z : Nat . y"), {"y": NAT})
    assert alpha_eq(out.arg, want)


# ------------------------------------------------------------- evaluation

def test_values():
    for src in ["0", "7", "succ", "cond[Nat]", "cond[Nat] 0",
                "cond[Nat] 0 1", "fun x : Nat . x", "Y[Nat]"]:
        assert pcf_is_value(parse_pcf(src))
    for src in ["succ 0", "cond[Nat] 0 1 2", "Y[Nat] (fun x : Nat . x)"]:
        assert not pcf_is_value(parse_pcf(src))


def test_eval_constants():
    assert evn("pred 0") == 0
    assert evn("pred 7") == 6
    assert evn("succ 4") == 5
    assert evn("iszero 0") == 0
    assert evn("iszero 9") == 1
    assert evn("(fun x : Nat . succ x) 3") == 4


def test_cond_leaves_untaken_branch_alone():
    omega = "Y[Nat] (fun x : Nat . x)"
    assert evn(f"cond[Nat] 0 42 ({omega})") == 42
    assert evn(f"cond[Nat] 3 ({omega}) 42") == 42
    assert isinstance(ev(omega, 1000), FuelExhausted)


def test_higher_order_cond_value():
    # a partially applied conditional is a value and can be applied later
    assert evn("(cond[Nat -> Nat] 0 succ pred) 3") == 4
    assert evn("(cond[Nat -> Nat] 1 succ pred) 3") == 2


# Call by name re-evaluates a duplicated argument at every use, so the
# flat recursions keep the expensive operand in a position that is read
# once per unfolding; their cost still grows factorially with n.
PCF_ARITH = """
    add = Y[Nat -> Nat -> Nat] (fun a : Nat -> Nat -> Nat .
          fun m : Nat . fun n : Nat . cond[Nat] m n (succ (a (pred m) n)));
    mult = Y[Nat -> Nat -> Nat] (fun a : Nat -> Nat -> Nat .
           fun m : Nat . fun n : Nat . cond[Nat] n 0 (@add m (a m (pred n))));
    fact = Y[Nat -> Nat] (fun f : Nat -> Nat . fun n : Nat .
           cond[Nat] n 1 (@mult (f (pred n)) n));
"""

# Products as function composition read every thunk linearly, which
# keeps the cost polynomial in the result; this is the formulation a
# CBN corpus can afford at n = 5.
PCF_CHURCH_FACT = """
    czero = fun f : Nat -> Nat . fun x : Nat . x;
    cone = fun f : Nat -> Nat . fun x : Nat . f x;
    cmult = fun c : (Nat -> Nat) -> Nat -> Nat .
            fun d : (Nat -> Nat) -> Nat -> Nat .
            fun f : Nat -> Nat . c (d f);
    toch = Y[Nat -> (Nat -> Nat) -> Nat -> Nat]
           (fun t : Nat -> (Nat -> Nat) -> Nat -> Nat . fun n : Nat .
            cond[(Nat -> Nat) -> Nat -> Nat] n @czero
            (fun f : Nat -> Nat . fun x : Nat . f (t (pred n) f x)));
    factch = Y[Nat -> (Nat -> Nat) -> Nat -> Nat]
             (fun g : Nat -> (Nat -> Nat) -> Nat -> Nat . fun n : Nat .
              cond[(Nat -> Nat) -> Nat -> Nat] n @cone
              (@cmult (@toch n) (g (pred n))));
    fact = fun n : Nat . @factch n succ 0;
"""


def test_eval_factorial_oracle():
    _, prog = parse_pcf_defs(PCF_ARITH + "main = @fact 3;")
    assert pcf_eval(prog, F) == NumConst(math.factorial(3))
    _, prog = parse_pcf_defs(PCF_CHURCH_FACT + "main = @fact 5;")
    assert pcf_eval(prog, F) == NumConst(math.factorial(5))


def test_eval_fuel_and_contracts():
    assert isinstance(ev("Y[Nat] (fun x : Nat . x)", 500), FuelExhausted)
    with pytest.raises(ContractViolation):
        pcf_eval(PVar("x"), 10)
    with pytest.raises(ContractViolation):
        pcf_subst(PVar("x"), "x", PVar("y"))  # open payload


@pytest.mark.parametrize("src, message", [
    ("succ (fun x : Nat . x)", "succ applied to a non-number value"),
    ("pred (fun x : Nat . x)", "pred applied to a non-number value"),
    ("iszero (fun x : Nat . x)", "iszero applied to a non-number value"),
    ("cond[Nat] (fun x : Nat . x) 1 2", "cond applied to a non-number value"),
    ("1 2", "applied a non-function value: 1"),
], ids=["succ", "pred", "iszero", "cond", "apply-number"])
def test_an_ill_typed_term_faults_at_run_time(src, message):
    # pcf_eval does not type-check first: on an ill-typed term it meets
    # the fault at run time and names it
    with pytest.raises(ContractViolation) as e:
        pcf_eval(parse_pcf(src), F)
    assert str(e.value) == message


def test_subst_shadowing():
    t = parse_pcf("fun x : Nat . x")
    assert pcf_subst(PApp(t, PVar("x")), "x", NumConst(1)) == \
        PApp(t, NumConst(1))


# ------------------------------------------------------------ compilation

def test_compile_numeral_and_succ_shape():
    assert alpha_eq(compile_body(NumConst(3), {}), numeral(3))
    want = Lam("n", Rec(Pair(Var("n"), Zero()), Suc(Zero()),
                        Lam("x", Suc(Var("x"))), identity()))
    assert alpha_eq(compile_body(PConst("succ"), {}), want)


def test_compiled_constants_work():
    for src, n in [("succ 4", 5), ("pred 0", 0), ("pred 7", 6),
                   ("iszero 0", 0), ("iszero 9", 1)]:
        t = compile_pcf(parse_pcf(src), [])
        assert force_numeral(t, F) == n


def test_compiled_constants_types():
    for src, want in [("succ", Lolli(NAT, NAT)), ("pred", Lolli(NAT, NAT)),
                      ("iszero", Lolli(NAT, NAT)),
                      ("cond[Nat]",
                       Lolli(NAT, Lolli(NAT, Lolli(NAT, NAT)))),
                      ("Y[Nat]", Lolli(Lolli(NAT, NAT), NAT))]:
        t = compile_pcf(parse_pcf(src), [])
        assert check(t, [], want) == want


def test_discarded_binder_wrapper():
    # fun x : Nat . 5 — x is consumed by erasers under a recursor on
    # zero, never by running it
    t = compile_pcf(parse_pcf("(fun x : Nat . 5) 3"), [])
    assert check_linear(t) == []
    assert force_numeral(t, F) == 5
    # the discarded argument may even be ill-behaved at runtime
    omega = "Y[Nat] (fun x : Nat . x)"
    t = compile_pcf(parse_pcf(f"(fun x : Nat . 5) ({omega})"), [])
    assert force_numeral(t, F) == 5


def test_discard_wrapper_keeps_divergence_of_body():
    # (fun x . fun y . y) applied to a diverging Nat: CBN discards it
    src = "(fun x : Nat . fun y : Nat . y) (Y[Nat] (fun z : Nat . z)) 8"
    assert evn(src) == 8
    t = compile_pcf(parse_pcf(src), [])
    assert force_numeral(t, F) == 8


def test_divergence_preserved():
    # succ applied to a divergent number must not compile to a value
    src = "succ (Y[Nat] (fun x : Nat . x))"
    assert isinstance(ev(src, 1000), FuelExhausted)
    t = compile_pcf(parse_pcf(src), [])
    assert isinstance(eval_cbn(t, 1000), FuelExhausted)
    assert isinstance(normalize(t, 1000), FuelExhausted)


def test_close_var_clauses():
    x = Var("x")
    assert close_var("x", x, NAT) is x
    t = App(x, numeral(2))
    got = close_var("x", t, Lolli(NAT, NAT))
    assert alpha_eq(got, t)  # x only on the left: shape preserved
    shared = App(x, App(Var("x"), numeral(1)))
    got = close_var("x", shared, Lolli(NAT, NAT))
    assert isinstance(got, LetPair)
    assert isinstance(got.scrut, App)
    assert isinstance(got.scrut.arg, Var) and got.scrut.arg.name == "x"
    assert sorted(got.fv) == ["x"]
    assert check_linear(got) == []
    with pytest.raises(ContractViolation):
        close_var("x", numeral(1), NAT)  # x not free
    with pytest.raises(ContractViolation):
        close_var("x", Pair(x, Var("x")), NAT)  # shared outside an App


def test_close_var_renames_each_side_apart():
    # x2 is a binder on the left and x1 one on the right, so the copies
    # of x are x11 and x21, and each side has only its copy free
    t = App(App(Var("x"), Lam("x2", Var("x2"))),
            Lam("x1", App(Var("x1"), Var("x"))))
    got = close_var("x", t, Lolli(NAT, NAT))
    assert (got.x, got.y) == ("x11", "x21")
    assert got.body.fun.fv == {"x11"}
    assert got.body.arg.fv == {"x21"}


def test_close_var_under_suc_and_lam():
    t = Suc(App(Var("f"), Zero()))
    got = close_var("f", t, Lolli(NAT, NAT))
    assert alpha_eq(got, t)
    t = Lam("y", App(Var("y"), App(Var("f"), Zero())))
    got = close_var("f", t, Lolli(NAT, NAT))
    assert alpha_eq(got, t)


def test_close_var_returns_a_single_use_term_unrebuilt():
    # x occurs once: the path down to it is walked, and nothing is rebuilt
    for t in (Suc(Var("x")),
              Lam("y", App(Var("y"), Suc(Var("x")))),
              LetPair(Var("p"), "a", "b",
                      App(Var("x"), Pair(Var("a"), Var("b")))),
              Rec(Pair(Var("x"), Zero()), Zero(), identity(), identity())):
        assert close_var("x", t, NAT) is t


def test_compile_open_term_stays_open_and_linear():
    t = parse_pcf("f (f 2)")
    env = [("f", Lolli(NAT, NAT))]
    out = compile_pcf(t, env)
    assert out.fv == frozenset({"f"})
    assert check_linear(out) == []
    a = check(out, [(x, b) for x, b in env], NAT)
    assert a == NAT
    # plugging a real function in gives the right number
    closed = subst(out, "f", compile_pcf(parse_pcf("succ"), []))
    assert force_numeral(closed, F) == 4


def test_compile_body_nonlinear_image_check():
    cases = [
        ("f (f 2)", [("f", Lolli(NAT, NAT))], NAT),
        ("cond[Nat] x x (succ x)", [("x", NAT)], NAT),
        ("fun y : Nat . g y", [("g", Lolli(NAT, NAT))],
         Lolli(NAT, NAT)),
    ]
    for src, env, want in cases:
        t = parse_pcf(src)
        body = compile_body(t, dict(env))
        tenv = [(x, a) for x, a in env]
        got = check_nonlinear(body, tenv, pcf_fv(t))
        assert got == want


def test_compile_addition_checks_and_runs():
    add = ("Y[Nat -> Nat -> Nat] (fun a : Nat -> Nat -> Nat . "
           "fun m : Nat . fun n : Nat . cond[Nat] m n (succ (a (pred m) n)))")
    t = compile_pcf(parse_pcf(add), [])
    want = Lolli(NAT, Lolli(NAT, NAT))
    assert check(t, [], want) == want
    assert check_linear(t) == []
    got = force_numeral(App(App(t, numeral(3)), numeral(4)), 1_000_000)
    assert got == 7


def test_compiled_factorial_small():
    _, prog = parse_pcf_defs(PCF_ARITH + "main = @fact 3;")
    t = compile_pcf(prog, [])
    assert check(t, [], NAT) == NAT
    assert force_numeral(t, 1_000_000) == 6


def test_simulation_on_ground_programs():
    programs = ["0", "succ (succ 0)", "pred 3", "iszero (pred 1)",
                "cond[Nat] (iszero 2) 9 (succ 1)",
                "(fun f : Nat -> Nat . f (f 2)) succ",
                "(fun x : Nat . 5) 3",
                "(cond[Nat -> Nat] 0 succ pred) 3"]
    for src in programs:
        t = parse_pcf(src)
        v = pcf_eval(t, F)
        assert isinstance(v, NumConst)
        assert force_numeral(compile_pcf(t, []), F) == v.n, src


# -------------------------------------------- compiler lemmas, randomised

ARITH = [PConst("succ"), PConst("pred"), PConst("iszero")]


def _rand_pcf(rng: random.Random, a, env: dict, depth: int):
    """Random well-typed PCF term of type a over env (Nat and Nat->Nat)."""
    here = [x for x, b in env.items() if b == a]
    if here and rng.random() < 0.4:
        return PVar(rng.choice(here))
    if a == NAT:
        if depth <= 0:
            return NumConst(rng.randrange(3))
        roll = rng.random()
        if roll < 0.25:
            return PApp(rng.choice(ARITH), _rand_pcf(rng, NAT, env, depth - 1))
        if roll < 0.5:
            return PApp(PApp(PApp(PConst("cond", NAT),
                                  _rand_pcf(rng, NAT, env, depth - 1)),
                             _rand_pcf(rng, NAT, env, depth - 1)),
                        _rand_pcf(rng, NAT, env, depth - 1))
        if roll < 0.75:
            f = _rand_pcf(rng, Lolli(NAT, NAT), env, depth - 1)
            return PApp(f, _rand_pcf(rng, NAT, env, depth - 1))
        return NumConst(rng.randrange(3))
    # a == Nat -> Nat
    if depth <= 0 or rng.random() < 0.5:
        return rng.choice(ARITH)
    b = f"y{rng.randrange(1000)}"
    return PLam(b, NAT, _rand_pcf(rng, NAT, {**env, b: NAT}, depth - 1))


def test_substitution_lemma_property():
    rng = random.Random(23)
    for _ in range(60):
        a = rng.choice([NAT, Lolli(NAT, NAT)])
        t = _rand_pcf(rng, NAT, {"x": a}, 3)
        u = NumConst(rng.randrange(4)) if a == NAT else \
            rng.choice([PConst("succ"), PConst("pred"),
                        PLam("w", NAT, PApp(PConst("succ"), PVar("w")))])
        lhs = compile_body(pcf_subst(t, "x", u), {})
        rhs = subst(compile_body(t, {"x": a}), "x", compile_body(u, {}))
        assert alpha_eq(lhs, rhs), pcf_pretty(t)


def test_bracket_abstraction_reduction_property():
    rng = random.Random(31)
    hits = 0
    for _ in range(60):
        a = rng.choice([NAT, Lolli(NAT, NAT)])
        t = _rand_pcf(rng, NAT, {"x": a}, 3)
        if "x" not in pcf_fv(t):
            continue
        body = compile_body(t, {"x": a})
        u = compile_body(
            NumConst(rng.randrange(4)) if a == NAT else PConst("succ"),
            {})
        lhs = normalize(subst(close_var("x", body, a), "x", u),
                        50_000)
        rhs = normalize(subst(body, "x", u), 50_000)
        if isinstance(lhs, FuelExhausted) or isinstance(rhs, FuelExhausted):
            continue
        hits += 1
        assert alpha_eq(lhs, rhs), pcf_pretty(t)
    assert hits >= 20


def test_completeness_direction_on_samples():
    # if the compiled term converges, the source converges to the same n
    rng = random.Random(47)
    for _ in range(40):
        t = _rand_pcf(rng, NAT, {}, 3)
        got = force_numeral(compile_pcf(t, []), F)
        if isinstance(got, FuelExhausted) or got is None:
            continue
        v = pcf_eval(t, F)
        assert isinstance(v, NumConst) and v.n == got, pcf_pretty(t)


# ------------------------------------------- free variables, one scope

def _old_pcf_fv(t):
    """pcf_fv as it was, with a bound set copied at every binder."""
    out: set[str] = set()
    stack = [(t, frozenset())]
    while stack:
        cur, bound = stack.pop()
        match cur:
            case PVar(name=n):
                if n not in bound:
                    out.add(n)
            case PLam(binder=b, body=u):
                stack.append((u, bound | {b}))
            case PApp(fun=f, arg=a):
                stack.append((f, bound))
                stack.append((a, bound))
            case _:
                pass
    return frozenset(out)


def _rand_raw(rng: random.Random, depth: int):
    """A random PCF term, untyped, over three names: binders shadow each
    other and names occur free."""
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        return rng.choice([PVar("x"), PVar("y"), PVar("z"), NumConst(1),
                           PConst("succ"), PConst("cond", NAT)])
    if roll < 0.6:
        return PLam(rng.choice("xyz"), NAT, _rand_raw(rng, depth - 1))
    return PApp(_rand_raw(rng, depth - 1), _rand_raw(rng, depth - 1))


def test_pcf_fv_matches_the_function_it_replaced():
    rng = random.Random(8)
    terms = [_rand_raw(rng, 6) for _ in range(400)]
    terms += [_rand_pcf(rng, NAT, {"a": NAT, "f": Lolli(NAT, NAT)}, 4)
              for _ in range(200)]
    n = 4000
    body = PVar("free")
    for i in range(n):
        body = PApp(body, PVar(f"x{i}"))
    for i in reversed(range(n)):
        body = PLam(f"x{i}", NAT, body)
    terms.append(body)  # 4,000 distinct binders, each used
    shadow = PApp(PVar("x"), PVar("y"))
    for i in range(n):
        shadow = PLam("x", NAT, PApp(shadow, PVar("x")))
    terms.append(PApp(shadow, PVar("x")))  # 4,000 binders of one name
    answers = []
    for t in terms:
        got = pcf_fv(t)
        assert got == _old_pcf_fv(t), pcf_pretty(t)
        answers.append(got)
    assert sum(1 for a in answers if a) > 100
    assert sum(1 for a in answers if not a) > 100
    assert answers[-2:] == [{"free"}, {"x", "y"}]


def test_compile_pcf_never_calls_pcf_fv(monkeypatch):
    calls = 0

    def counting(t):
        nonlocal calls
        calls += 1
        return pcf_fv(t)

    corpus = Path(__file__).resolve().parent.parent / "corpus"
    progs = [_load_pcf(str(p))[0] for p in sorted(corpus.glob("*.pcf"))]
    for k in (1, 5, 40):
        # fun nests whose binders are used, discarded and shadowed
        src = "".join(f"fun x{i % 3} : Nat . " for i in range(k))
        progs.append(parse_pcf(f"({src}succ x0) " + "2 " * k))
    monkeypatch.setattr(pcf, "pcf_fv", counting)
    for prog in progs:
        compile_pcf(prog, [])
    assert calls == 0
    monkeypatch.undo()
    assert force_numeral(compile_pcf(progs[-1], []), F) == 3
