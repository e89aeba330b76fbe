"""Tree-level operations: free variables, linearity, substitution,
alpha equivalence, numerals, tuple sugar; and the contract every engine
follows: a budget or a Fuel cell in, the bare result, FuelExhausted or
Stuck out."""

import random
from pathlib import Path

import pytest

from lrec import terms
from lrec.cli import _load, _load_pcf
from lrec.evaluation import eval_report, force_numeral
from lrec.gen import random_closed
from lrec.machine import MachineConfig, machine_force_numeral, run
from lrec.minext import lin_pred, normalize_m
from lrec.parser import parse
from lrec.pcf import NumConst, compile_pcf, parse_pcf, pcf_eval
from lrec.reduction import normalize
from lrec.terms import (App, ContractViolation, Fuel, FuelExhausted, Iter,
                        Lam, LetPair, Min, Pair, Rec, Stuck, Suc, Term, Var,
                        Zero, alpha_eq, check_linear, children, freshen,
                        mk_tuple, numeral, numeral_value, pretty, rebuild,
                        subst)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def lam(x, b):
    return Lam(x, b)


def test_a_node_takes_no_attribute_beyond_its_fields():
    x = Var("x")
    nodes = [Zero(), Suc(x), x, App(x, x), Lam("x", x), Pair(x, x),
             LetPair(x, "a", "b", x), Rec(x, x, x, x), Iter(x, x, x),
             Min(x, x, x)]
    assert {type(n) for n in nodes} == set(Term.__subclasses__())
    assert Term.__slots__ == ("fv", "linear")
    for node in nodes:
        assert not hasattr(node, "__dict__")
        for name in ("nf", "nfm", "memo", "redex_free"):
            with pytest.raises(AttributeError):
                setattr(node, name, True)


def test_free_vars():
    assert Var("x").fv == {"x"}
    assert lam("x", Var("x")).fv == set()
    assert lam("x", App(Var("x"), Var("y"))).fv == {"y"}
    t = LetPair(Var("p"), "a", "b", Pair(Var("a"), Var("b")))
    assert t.fv == {"p"}
    r = Rec(Var("s"), Var("u"), Var("v"), Var("w"))
    assert r.fv == {"s", "u", "v", "w"}


# --------------------------------------------------- shared free sets

def _old_fv(t: Term) -> frozenset[str]:
    """The free set as every constructor built it before sets were
    shared, from the children's sets."""
    match t:
        case Zero():
            return frozenset()
        case Var(name=n):
            return frozenset((n,))
        case Lam(binder=x, body=b):
            return b.fv - {x}
        case LetPair(scrut=s, x=x, y=y, body=b):
            return s.fv | (b.fv - {x, y})
    out = frozenset()
    for k in children(t):
        out = out | k.fv
    return out


def _front_end_terms() -> list[Term]:
    """Every corpus file as the command line reads it, PCF compiled, and
    the 2000-deep `@pred` nest."""
    out = []
    for f in sorted(CORPUS.iterdir()):
        if f.suffix == ".lrec":
            out.append(_load(str(f), "lrec")[0])
        elif f.suffix == ".pcf":
            out.append(compile_pcf(_load_pcf(str(f))[0], []))
    out.append(parse("@pred (" * 2000 + "0" + ")" * 2000, "lrec"))
    return out


def test_every_closed_node_shares_the_empty_set():
    closed = 0
    for t in _front_end_terms():
        for node in _nodes(t):
            if not node.fv:
                assert node.fv is terms.EMPTY, pretty(node)
                closed += 1
    assert closed > 10_000


def test_free_sets_equal_the_old_formula():
    rng = random.Random(5)
    ts = _front_end_terms() + [random_closed(rng)[0] for _ in range(500)]
    x, y = Var("x"), Var("y")
    # open and non-linear shapes, which the parser never builds
    ts += [App(x, x), App(x, y), Lam("z", x), Lam("x", App(x, y)),
           Pair(Zero(), x), LetPair(x, "a", "b", y),
           LetPair(y, "x", "b", App(x, Var("b"))), LetPair(x, "x", "x", x),
           Rec(x, Zero(), y, Zero()), Iter(Zero(), x, x),
           Min(x, Zero(), Lam("x", x))]
    nodes = 0
    for t in ts:
        for node in _nodes(t):
            assert node.fv == _old_fv(node), pretty(node)
            assert type(node.fv) is frozenset
            nodes += 1
    assert nodes > 50_000


def test_a_node_reuses_the_set_that_is_its_answer():
    x, c = Var("x"), Lam("z", Var("z"))
    assert c.fv is terms.EMPTY
    assert App(x, c).fv is x.fv and App(c, x).fv is x.fv
    assert Pair(c, x).fv is x.fv
    assert Lam("y", x).fv is x.fv
    assert LetPair(x, "a", "b", Zero()).fv is x.fv
    assert Rec(Zero(), c, x, Zero()).fv is x.fv
    assert Iter(Zero(), Zero(), x).fv is x.fv
    assert Min(x, Zero(), c).fv is x.fv
    assert Lam("x", x).fv is terms.EMPTY
    assert LetPair(Zero(), "x", "y", Pair(x, Var("y"))).fv is terms.EMPTY


def test_check_linear_accepts():
    assert check_linear(lam("x", Var("x"))) == []
    assert check_linear(numeral(7)) == []
    ok = LetPair(Pair(Zero(), Zero()), "a", "b", App(lam("x", Var("x")), Pair(Var("a"), Var("b"))))
    assert check_linear(ok) == []


def test_check_linear_rejects_duplication():
    bad = lam("x", App(Var("x"), Var("x")))
    out = check_linear(bad)
    assert len(out) == 1
    assert out[0].kind == "shared"
    assert out[0].names == {"x"}


def test_check_linear_rejects_dropping():
    bad = lam("x", Zero())
    out = check_linear(bad)
    assert [v.kind for v in out] == ["unused"]


def test_check_linear_letpair():
    assert check_linear(LetPair(Var("p"), "x", "x", Var("x")))  # dup pattern
    unused = LetPair(Var("p"), "x", "y", Var("x"))
    assert any(v.kind == "unused" and v.names == {"y"} for v in check_linear(unused))
    sharing = LetPair(Var("p"), "x", "y", Pair(Pair(Var("x"), Var("y")), Var("p")))
    assert any(v.kind == "shared" and v.names == {"p"} for v in check_linear(sharing))


def test_violation_paths():
    bad = lam("z", Pair(Var("z"), App(lam("x", Zero()), Var("z"))))
    out = check_linear(bad)
    kinds = {(v.path, v.kind) for v in out}
    assert ("0", "shared") in kinds  # z shared across the pair
    assert any(v.kind == "unused" and v.names == {"x"} for v in out)


class _Fields:
    """Stands for a node of any class: each field is a variable of its name."""

    def __getattr__(self, name):
        return Var(name)


# the classes whose parts must share no variable; LetPair has its own
# case, since its body holds what its pattern binds
_SPLIT = [cls for cls, parts in terms._CHILDREN.items()
          if cls is not LetPair and len(parts(_Fields())) > 1]


def test_the_label_table_covers_the_classes_with_parts():
    assert set(terms._PARTS) == set(_SPLIT)


@pytest.mark.parametrize("cls", _SPLIT, ids=lambda cls: cls.__name__)
def test_a_shared_variable_is_reported_with_the_labels_of_its_parts(cls):
    # a class without labels would not be linear with no violation listed
    # to say why
    labels = terms._PARTS[cls]
    n = len(terms._CHILDREN[cls](_Fields()))
    assert len(labels) == n
    t = cls(Var("z"), *(Var(f"x{i}") for i in range(1, n - 1)), Var("z"))
    assert t.linear is False
    assert terms._violations(t) == [terms.Violation(
        "", f"variable(s) z occur in both {labels[0]} and {labels[-1]}",
        "shared", frozenset({"z"}))]


def test_subst_closed_payload():
    t = App(Var("f"), numeral(2))
    got = subst(t, "f", lam("x", Suc(Var("x"))))
    assert alpha_eq(got, App(lam("x", Suc(Var("x"))), numeral(2)))
    assert got.fv == set()


def test_subst_variable_payload():
    t = Pair(Var("x"), Zero())
    assert alpha_eq(subst(t, "x", Var("y")), Pair(Var("y"), Zero()))


def test_subst_rejects_open_payload():
    with pytest.raises(ContractViolation):
        subst(Var("x"), "x", App(Var("f"), Var("g")))


def test_subst_no_op_when_absent():
    t = lam("x", Var("x"))
    assert subst(t, "z", numeral(3)) is t


def test_subst_fv_identity():
    t = App(Var("x"), Var("y"))
    s = numeral(4)
    got = subst(t, "x", s)
    assert got.fv == (t.fv - {"x"}) | s.fv


def test_alpha_eq_basics():
    assert alpha_eq(lam("x", Var("x")), lam("y", Var("y")))
    assert not alpha_eq(lam("x", Var("x")), lam("x", Suc(Var("x"))))
    assert alpha_eq(Var("x"), Var("x"))
    assert not alpha_eq(Var("x"), Var("y"))
    # free vars must match by name, bound by position
    assert not alpha_eq(lam("x", Var("y")), lam("x", Var("z")))


def test_alpha_eq_letpair_and_rec():
    a = LetPair(Var("p"), "x", "y", Pair(Var("x"), Var("y")))
    b = LetPair(Var("p"), "u", "v", Pair(Var("u"), Var("v")))
    c = LetPair(Var("p"), "u", "v", Pair(Var("v"), Var("u")))
    assert alpha_eq(a, b)
    assert not alpha_eq(a, c)
    r1 = Rec(Pair(Zero(), Zero()), Zero(), lam("x", Suc(Var("x"))), lam("p", Var("p")))
    r2 = Rec(Pair(Zero(), Zero()), Zero(), lam("y", Suc(Var("y"))), lam("q", Var("q")))
    assert alpha_eq(r1, r2)


def test_alpha_eq_is_equivalence_on_samples():
    samples = [
        numeral(3),
        lam("x", Var("x")),
        lam("f", lam("x", App(Var("f"), Var("x")))),
        LetPair(Pair(Zero(), Zero()), "a", "b", Pair(Var("b"), Var("a"))),
    ]
    for t in samples:
        assert alpha_eq(t, t)
        assert alpha_eq(t, freshen(t))
        assert alpha_eq(freshen(t), t)
    for i, t in enumerate(samples):
        for j, u in enumerate(samples):
            if i != j:
                assert not alpha_eq(t, u)


# alpha_eq keeps one scoped dict per side; the function it replaced,
# which copied both dicts at every binder, is kept here verbatim as the
# reference
def _old_alpha_eq(t: Term, u: Term) -> bool:
    """Equality up to consistent renaming of bound variables."""
    fresh = 0
    work: list[tuple[Term, Term, dict, dict]] = [(t, u, {}, {})]
    while work:
        a, b, ea, eb = work.pop()
        if type(a) is not type(b):
            return False
        match a:
            case Zero():
                continue
            case Var(name=na):
                la, lb = ea.get(na), eb.get(b.name)
                if la is None and lb is None:
                    if na != b.name:
                        return False
                elif la != lb:
                    return False
            case Suc():
                # walk chains in lockstep without touching the worklist
                x, y = a, b
                while isinstance(x, Suc) and isinstance(y, Suc):
                    x, y = x.body, y.body
                work.append((x, y, ea, eb))
            case Lam(binder=xa, body=ba):
                fresh += 1
                work.append((ba, b.body, {**ea, xa: fresh}, {**eb, b.binder: fresh}))
            case App():
                work.append((a.fun, b.fun, ea, eb))
                work.append((a.arg, b.arg, ea, eb))
            case Pair():
                work.append((a.left, b.left, ea, eb))
                work.append((a.right, b.right, ea, eb))
            case LetPair():
                work.append((a.scrut, b.scrut, ea, eb))
                fresh += 2
                work.append((a.body, b.body,
                             {**ea, a.x: fresh - 1, a.y: fresh},
                             {**eb, b.x: fresh - 1, b.y: fresh}))
            case Rec():
                work.append((a.scrut, b.scrut, ea, eb))
                work.append((a.base, b.base, ea, eb))
                work.append((a.step, b.step, ea, eb))
                work.append((a.update, b.update, ea, eb))
            case Iter():
                work.append((a.count, b.count, ea, eb))
                work.append((a.base, b.base, ea, eb))
                work.append((a.step, b.step, ea, eb))
            case Min():
                work.append((a.scrut, b.scrut, ea, eb))
                work.append((a.counter, b.counter, ea, eb))
                work.append((a.fn, b.fn, ea, eb))
            case _:
                return False
    return True


def _renamed(t: Term, new) -> Term:
    """t with every binder b renamed to new(b) and its occurrences
    following it; when new merges names, the result may capture."""
    env: dict[str, str] = {}

    def go(n: Term) -> Term:
        cls = type(n)
        if cls is Var:
            return Var(env.get(n.name, n.name))
        if cls in (Lam, LetPair):
            olds = [n.binder] if cls is Lam else [n.x, n.y]
            scrut = go(n.scrut) if cls is LetPair else None
            saved = dict(env)
            env.update((b, new(b)) for b in olds)
            body = go(n.body)
            env.clear()
            env.update(saved)
            if cls is Lam:
                return Lam(new(n.binder), body)
            return LetPair(scrut, new(n.x), new(n.y), body)
        kids = children(n)
        return rebuild(n, [go(k) for k in kids]) if kids else n

    return go(t)


def _nodes(t: Term) -> list[Term]:
    out, work = [], [t]
    while work:
        node = work.pop()
        out.append(node)
        work.extend(reversed(children(node)))
    return out


def _alpha_pairs():
    rng = random.Random(1997)
    made = [random_closed(rng)[0] for _ in range(200)]
    made += [Iter(numeral(2), Lam("x", Var("x")), Lam("y", Var("y"))),
             Min(App(Lam("f", Var("f")), Zero()), Zero(), Lam("n", Var("n"))),
             LetPair(Pair(Zero(), Zero()), "a", "a", Var("a")),
             Lam("x", Lam("x", Var("x"))), Lam("x", Lam("y", Var("x")))]
    for k, t in enumerate(made):
        variants = [t, freshen(t), made[k - 1],
                    _renamed(t, lambda b: b + "'"),
                    _renamed(t, lambda b: "v"),
                    _renamed(t, lambda b: b[:1])]
        for u in variants:
            yield t, u
            yield u, t
        # open subterms at one position: bound names become free
        ns, vs = _nodes(t), _nodes(variants[3])
        for i in rng.sample(range(len(ns)), min(6, len(ns))):
            yield ns[i], vs[i]
            yield ns[i], ns[i]


def _nest(names: list[str], body: Term) -> Term:
    for x in reversed(names):
        body = Lam(x, body)
    return body


def _chain(names: list[str], uses: list[str]) -> Term:
    """\\n0. u0 (\\n1. u1 (... 0)) for binders n and uses u; each λ's
    free variables stay few however deep the nest."""
    body: Term = Zero()
    for x, u in zip(reversed(names), reversed(uses)):
        body = Lam(x, App(Var(u), body))
    return body


def _deep_pairs(n: int = 4000):
    xs = [f"x{i}" for i in range(n)]
    ys = [f"y{i}" for i in range(n)]
    swapped = ys[:-2] + [ys[-1], ys[-2]]
    yield _chain(xs, xs), _chain(ys, ys)
    yield _chain(xs, xs), _chain(ys, swapped)
    yield _nest(["x"] * n, Var("x")), _nest(ys, Var(ys[-1]))
    yield _nest(["x"] * n, Var("x")), _nest(ys, Var(ys[0]))
    yield _nest(xs, Suc(Var("x0"))), _nest(ys, Suc(Var("y0")))
    lets, lets2 = Pair(Var("a"), Var("b")), Pair(Var("b"), Var("a"))
    for _ in range(n):
        lets = LetPair(Pair(Zero(), Zero()), "a", "b", lets)
        lets2 = LetPair(Pair(Zero(), Zero()), "b", "a", lets2)
    yield lets, lets2
    yield lets, _renamed(lets, lambda b: b + "1")


def test_alpha_eq_matches_the_function_it_replaced():
    answers = []
    for a, b in list(_alpha_pairs()) + list(_deep_pairs()):
        got = alpha_eq(a, b)
        assert got == _old_alpha_eq(a, b), (pretty(a), pretty(b))
        answers.append(got)
    assert answers.count(True) > 100 and answers.count(False) > 100
    assert answers[-7:] == [True, False, True, False, True, True, True]


def test_numeral_roundtrip():
    for n in (0, 1, 2, 17, 100, 10_000):
        assert numeral_value(numeral(n)) == n
    assert numeral_value(Var("x")) is None
    assert numeral_value(Suc(Var("x"))) is None


def test_a_numeral_is_a_natural():
    with pytest.raises(ValueError):
        numeral(-1)


def test_mk_tuple_shape():
    a, b, c = Var("a"), Var("b"), Var("c")
    t = mk_tuple([a, b, c])
    assert isinstance(t, Pair) and t.left is a
    assert isinstance(t.right, Pair) and t.right.left is b and t.right.right is c
    assert alpha_eq(mk_tuple([a, b]), Pair(a, b))
    with pytest.raises(ContractViolation):
        mk_tuple([a])


def test_freshen_distinct_binders():
    t = App(lam("x", Var("x")), lam("x", Var("x")))
    f = freshen(t)
    assert alpha_eq(t, f)
    binders = []
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Lam):
            binders.append(node.binder)
            stack.append(node.body)
        elif isinstance(node, App):
            stack.extend([node.fun, node.arg])
    assert len(binders) == len(set(binders))


def test_pretty_numerals_and_sucs():
    assert pretty(numeral(3)) == "3"
    assert pretty(Suc(Suc(Var("x")))) == "S S x"
    assert pretty(lam("x", Suc(Var("x")))) == "\\x. S x"
    assert pretty(App(Var("f"), Suc(Var("x")))) == "f S x"


# the printer is one iterative walk; the recursive one it replaced is
# kept here verbatim as the reference
def _old_pretty(t: Term, level: int = 0) -> str:
    # level 0: full term, 1: application operand/operator, 2: atom slot
    match t:
        case Zero():
            return "0"
        case Var(name=n):
            return n
        case Suc():
            sucs = 0
            inner = t
            while isinstance(inner, Suc):
                inner = inner.body
                sucs += 1
            if isinstance(inner, Zero):
                return str(sucs)
            head = "S " * sucs
            return f"{head}{_old_pretty(inner, 2)}"
        case Lam():
            binders = []
            body = t
            while isinstance(body, Lam):
                binders.append(body.binder)
                body = body.body
            s = f"\\{' '.join(binders)}. {_old_pretty(body, 0)}"
            return f"({s})" if level > 0 else s
        case App(fun=f, arg=a):
            s = f"{_old_pretty(f, 1)} {_old_pretty(a, 2)}"
            return f"({s})" if level > 1 else s
        case Pair(left=l, right=r):
            return f"<{_old_pretty(l, 0)}, {_old_pretty(r, 0)}>"
        case LetPair(scrut=sc, x=x, y=y, body=b):
            s = f"let <{x}, {y}> = {_old_pretty(sc, 0)} in {_old_pretty(b, 0)}"
            return f"({s})" if level > 0 else s
        case Rec(scrut=sc, base=u, step=v, update=w):
            parts = ", ".join(_old_pretty(p, 0) for p in (sc, u, v, w))
            return f"rec({parts})"
        case Iter(count=c, base=u, step=v):
            parts = ", ".join(_old_pretty(p, 0) for p in (c, u, v))
            return f"iter({parts})"
        case Min(scrut=sc, counter=u, fn=f):
            parts = ", ".join(_old_pretty(p, 0) for p in (sc, u, f))
            return f"min({parts})"
    raise AssertionError(f"unhandled node {type(t).__name__}")


def test_pretty_matches_the_printer_it_replaced():
    rng = random.Random(11)
    ts = _front_end_terms()[:-1] + [random_closed(rng)[0]
                                    for _ in range(3000)]
    normalize(parse("@pred 6", "lrec"), 10_000,
              on_step=lambda i, rule, path, term: ts.append(term))
    x, y = Var("x"), Var("y")
    ts += [App(lin_pred(), numeral(4)), Suc(App(x, y)), Suc(lam("x", x)), App(x, Suc(y)),
           App(App(lam("a", Var("a")), App(x, y)), LetPair(
               Var("p"), "a", "b", Pair(Var("a"), Var("b")))),
           App(x, LetPair(y, "a", "b", Var("a"))), lam("x", lam("y", x)),
           Min(Zero(), x, App(lam("q", Var("q")), Suc(y))),
           Iter(numeral(3), lam("x", x), Rec(x, y, Zero(), numeral(2)))]
    for t in ts:
        assert pretty(t) == _old_pretty(t)


def test_pretty_prints_a_deep_spine_without_recursing():
    # one name throughout: distinct ones would give each node a set of
    # its own, quadratic memory in all
    x = Var("x")
    t = x
    for _ in range(50_000):
        t = App(t, x)
    assert pretty(t) == " ".join(["x"] * 50_001)
    t = Var("y")
    for i in range(50_000):
        t = App(Var("f"), t)
    assert pretty(t) == "f (" * 49_999 + "f y" + ")" * 49_999


def test_every_engine_rejects_a_negative_budget():
    with pytest.raises(ContractViolation):
        Fuel(-1)
    for engine in (normalize, normalize_m, eval_report, force_numeral, run,
                   machine_force_numeral):
        with pytest.raises(ContractViolation):
            engine(numeral(1), -1)
    with pytest.raises(ContractViolation):
        pcf_eval(NumConst(1), -1)


ADD23 = "(\\m n. rec(<m, 0>, n, \\x. S x, \\p. p)) 2 3"


def _cbv(t, fuel):
    return eval_report(t, fuel, cbv=True)


HOOKED = (run, normalize, normalize_m)  # they take on_step(i, ...)

# (engine, input, its result, the count the engine reported when it
# still counted for itself: eval_report's tuple, the last on_step index;
# None where it reported none, as for readback)
CONTRACT = [
    ("eval cbn", eval_report, lambda: parse(ADD23),
     "S rec((\\p. p) <1, 0>, 3, \\x. S x, \\p. p)", 10),
    ("eval cbv", _cbv, lambda: parse(ADD23), "5", 28),
    ("machine", run, lambda: parse(ADD23),
     "S rec((\\p. p) <1, 0>, 3, \\x. S x, \\p. p)", 8),
    ("normalize", normalize, lambda: parse(ADD23), "5", 9),
    ("normalize_m", normalize_m, lambda: App(lin_pred(), numeral(2)), "1",
     29),
    ("force_numeral", force_numeral, lambda: parse(ADD23), 5, None),
    ("machine_force_numeral", machine_force_numeral, lambda: parse(ADD23),
     5, None),
    ("pcf_eval", pcf_eval,
     lambda: parse_pcf("(fun x : Nat . succ (succ x)) 3"), NumConst(5), None),
]


def _shown(out):
    return pretty(out) if isinstance(out, Term) else out


@pytest.mark.parametrize("name,engine,make,result,count", CONTRACT,
                         ids=[c[0] for c in CONTRACT])
def test_every_engine_leaves_its_count_in_the_cell(name, engine, make,
                                                   result, count):
    cell, seen = Fuel(1000), []
    hook = ({"on_step": lambda i, *rest: seen.append(i)}
            if engine in HOOKED else {})
    assert _shown(engine(make(), cell, **hook)) == result
    used = 1000 - cell.remaining
    if count is not None:
        assert used == count
    if engine in HOOKED:
        assert seen[-1] == len(seen) == used
    # the count is the least budget that suffices
    assert _shown(engine(make(), used)) == result
    t = make()
    short = engine(t, used - 1)
    assert isinstance(short, FuelExhausted)
    # a readback reports what drive does: the evaluators' input, the
    # machine's configuration, wherever under the S's it stopped
    if engine is force_numeral:
        assert short.at is t
    elif engine is machine_force_numeral:
        assert isinstance(short.at, MachineConfig)
    assert isinstance(engine(make(), Fuel(0)), FuelExhausted)


@pytest.mark.parametrize("engine", [eval_report, _cbv, run],
                         ids=["eval cbn", "eval cbv", "machine"])
def test_applying_a_number_is_stuck(engine):
    # eval: rule Val on the head, then stuck; machine: app, then stuck
    cell = Fuel(10)
    assert isinstance(engine(parse("0 0"), cell), Stuck)
    assert 10 - cell.remaining == 1
