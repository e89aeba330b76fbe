"""Freshening and bracket abstraction against their quadratic originals.

`terms.freshen` starts each base name's suffix probe where the last pick
left it, and `pcf.close_var` builds the name sets of its rebuilt sides
bottom-up instead of re-walking both sides at every shared application.
Neither may change a single name. The reference copies below are the
earlier code, kept verbatim: `_ref_freshen` probes `name_1, name_2, …`
from 1 for every binder, and `_ref_close_var` collects both sides' names
with `_ref_all_names` and renames with the `occurs`-guarded `_ref_rename`.
Every output is compared as printed text, so a different name anywhere
fails.
"""

import hashlib
import random
from pathlib import Path

import pytest

from lrec import parser, pcf
from lrec.cli import _load
from lrec.gen import random_closed
from lrec.parser import parse
from lrec.pcf import (NumConst, PApp, PConst, PLam, PVar, compile_pcf,
                      parse_pcf, parse_pcf_defs, pcf_check)
from lrec.stdlib import dup
from lrec.terms import (App, ContractViolation, Iter, Lam, LetPair, Min, Pair,
                        Rec, Suc, Term, Var, Zero, _subst, children,
                        fresh_name, freshen, mk_tuple, pretty)
from lrec.types import NAT, Lolli

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
NAT_NAT = Lolli(NAT, NAT)


# ------------------------------------------------------- reference copies

def _ref_freshen(t: Term) -> Term:
    used = set(t.fv)

    def pick(name: str) -> str:
        if name not in used:
            used.add(name)
            return name
        i = 1
        while f"{name}_{i}" in used:
            i += 1
        new = f"{name}_{i}"
        used.add(new)
        return new

    def go(node: Term, env: dict[str, str]) -> Term:
        match node:
            case Zero():
                return node
            case Var(name=n):
                return Var(env[n]) if n in env else node
            case Suc():
                depth = 0
                inner = node
                while isinstance(inner, Suc):
                    inner = inner.body
                    depth += 1
                inner = go(inner, env)
                for _ in range(depth):
                    inner = Suc(inner)
                return inner
            case App(fun=f, arg=a):
                return App(go(f, env), go(a, env))
            case Lam(binder=x, body=b):
                nx = pick(x)
                return Lam(nx, go(b, {**env, x: nx}))
            case Pair(left=l, right=r):
                return Pair(go(l, env), go(r, env))
            case LetPair(scrut=s, x=x, y=y, body=b):
                ns = go(s, env)
                nx, ny = pick(x), pick(y)
                return LetPair(ns, nx, ny, go(b, {**env, x: nx, y: ny}))
            case Rec(scrut=s, base=u, step=v, update=w):
                return Rec(go(s, env), go(u, env), go(v, env), go(w, env))
            case Iter(count=c, base=u, step=v):
                return Iter(go(c, env), go(u, env), go(v, env))
            case Min(scrut=s, counter=u, fn=f):
                return Min(go(s, env), go(u, env), go(f, env))
        raise AssertionError(f"unhandled node {type(node).__name__}")

    return go(t, {})


def _ref_occurs(t: Term, name: str) -> bool:
    work = [t]
    while work:
        node = work.pop()
        match node:
            case Var(name=n) if n == name:
                return True
            case Lam(binder=b) if b == name:
                return True
            case LetPair(x=x, y=y) if name in (x, y):
                return True
        work.extend(children(node))
    return False


def _ref_rename(t: Term, x: str, y: str) -> Term:
    if _ref_occurs(t, y):
        raise ContractViolation(f"rename target {y} already occurs in the term")
    return _subst(t, x, Var(y))


def _ref_all_names(t: Term) -> set[str]:
    out: set[str] = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Var):
            out.add(cur.name)
        elif isinstance(cur, Lam):
            out.add(cur.binder)
        elif isinstance(cur, LetPair):
            out.update((cur.x, cur.y))
        stack.extend(children(cur))
    return out


def _ref_close_var(x, t, a):
    if x not in t.fv:
        raise ContractViolation(f"{x} is not free in the term")
    match t:
        case Var():
            return t
        case Suc(body=u):
            return Suc(_ref_close_var(x, u, a))
        case Lam(binder=b, body=u):
            return Lam(b, _ref_close_var(x, u, a))
        case App(fun=s, arg=u):
            in_s, in_u = x in s.fv, x in u.fv
            if in_s and in_u:
                left = _ref_close_var(x, s, a)
                right = _ref_close_var(x, u, a)
                names = _ref_all_names(left) | _ref_all_names(right) | {x}
                x1 = fresh_name(names, x + "1")
                x2 = fresh_name(names | {x1}, x + "2")
                return LetPair(App(dup(a), Var(x)), x1, x2,
                               App(_ref_rename(left, x, x1),
                                   _ref_rename(right, x, x2)))
            if in_s:
                return App(_ref_close_var(x, s, a), u)
            return App(s, _ref_close_var(x, u, a))
        case Pair(left=l, right=r):
            if x in l.fv and x in r.fv:
                raise ContractViolation(f"{x} shared across a pair")
            if x in l.fv:
                return Pair(_ref_close_var(x, l, a), r)
            return Pair(l, _ref_close_var(x, r, a))
        case LetPair(scrut=s, x=p, y=q, body=b):
            in_b = x in b.fv and x not in (p, q)
            if x in s.fv and in_b:
                raise ContractViolation(f"{x} shared across a let")
            if in_b:
                return LetPair(s, p, q, _ref_close_var(x, b, a))
            return LetPair(_ref_close_var(x, s, a), p, q, b)
        case Rec(scrut=s, base=u, step=v, update=w):
            parts = [s, u, v, w]
            hits = [i for i, part in enumerate(parts) if x in part.fv]
            if len(hits) != 1:
                raise ContractViolation(f"{x} shared across a recursor")
            parts[hits[0]] = _ref_close_var(x, parts[hits[0]], a)
            return Rec(*parts)
    raise ContractViolation(
        f"cannot abstract {x} out of a {type(t).__name__} node")


# ------------------------------------------------------------- inputs

def _nest(depth: int) -> str:
    return "@pred (" * depth + "0" + ")" * depth


def _uses(k: int) -> str:
    """The benchmark's shape: a PCF program that uses f k times."""
    return ("(fun f : Nat -> Nat . " + "f (" * k + "0" + ")" * k
            + ") succ\n")


class _Programs:
    """Seeded, well-typed PCF terms over Nat and Nat -> Nat. Binders come
    from a pool of four names, so inner binders often shadow outer ones,
    and variables are drawn often, so most are used several times."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.shadowed = 0

    def bind(self, env, name, a):
        self.shadowed += name in env
        return {**env, name: a}

    def nat(self, env, depth):
        rng = self.rng
        names = [n for n, a in env.items() if a == NAT]
        pick = rng.random()
        if depth <= 0 or pick < 0.25:
            if names and rng.random() < 0.8:
                return PVar(rng.choice(names))
            return NumConst(rng.randint(0, 2))
        if pick < 0.6:
            return PApp(self.fun(env, depth - 1), self.nat(env, depth - 1))
        if pick < 0.75:
            return PApp(PApp(PApp(PConst("cond", NAT),
                                  self.nat(env, depth - 1)),
                             self.nat(env, depth - 1)),
                        self.nat(env, depth - 1))
        # a bound name, possibly shadowing: (fun n : a . body) arg
        name, a = rng.choice((("x", NAT), ("y", NAT),
                              ("f", NAT_NAT), ("g", NAT_NAT)))
        arg = (self.nat if a == NAT else self.fun)(env, depth - 1)
        body = self.nat(self.bind(env, name, a), depth - 1)
        return PApp(PLam(name, a, body), arg)

    def fun(self, env, depth):
        rng = self.rng
        names = [n for n, a in env.items() if a == NAT_NAT]
        if depth <= 0 or rng.random() < 0.4:
            if names and rng.random() < 0.8:
                return PVar(rng.choice(names))
            return rng.choice((PConst("succ"), PConst("pred")))
        name = rng.choice(("x", "y"))
        return PLam(name, NAT,
                    self.nat(self.bind(env, name, NAT), depth - 1))


def _seeded_programs(n: int):
    """(closed program, open body, its environment) per seed."""
    env = [("f", NAT_NAT), ("g", NAT_NAT), ("x", NAT)]
    gen = _Programs(random.Random(5))
    out = []
    for _ in range(n):
        body = gen.nat(dict(env), 6)
        closed = PLam("f", NAT_NAT, PLam("g", NAT_NAT, PLam("x", NAT, body)))
        closed = PApp(PApp(PApp(closed, PConst("succ")), PConst("pred")),
                      NumConst(2))
        pcf_check(closed, {})
        out.append((closed, body, env))
    return out, gen.shadowed


@pytest.fixture
def reference(monkeypatch):
    """Run fn with the parser's freshen and the compiler's close_var
    replaced by the reference copies."""
    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(parser, "freshen", _ref_freshen)
            m.setattr(pcf, "close_var", _ref_close_var)
            return fn(*args)
    return run


# -------------------------------------------------------------- freshen

def test_corpus_parses_to_the_same_text(reference):
    files = sorted(CORPUS.glob("*.lrec"))
    assert files
    for f in files:
        want = pretty(reference(_load, str(f), "lrec")[0])
        assert pretty(_load(str(f), "lrec")[0]) == want, f.name


def test_pred_nests_parse_to_the_same_text(reference):
    # every depth up to 60, then two deep ones: the reference is
    # quadratic (about 2 s at depth 300)
    for depth in [*range(1, 61), 120, 300]:
        src = _nest(depth)
        want = pretty(reference(parse, src, "lrec"))
        assert pretty(parse(src, "lrec")) == want, depth


def test_generated_terms_freshen_to_the_same_text():
    rng = random.Random(11)
    for _ in range(300):
        t, _ = random_closed(rng, rng.randint(1, 5))
        # three copies side by side make every binder name clash
        for u in (t, mk_tuple([t, t, t]), App(Lam("v0", t), t)):
            assert pretty(freshen(u)) == pretty(_ref_freshen(u))


def test_nest_2000_prints_as_before():
    """The 2000-deep nest prints exactly as under the quadratic freshen
    (hash recorded with it, which took 60 s; this takes about 1 s)."""
    text = pretty(parse(_nest(2000), "lrec"))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "387718cf61773d6dc4e0a79891051f961c2605e1ee40101098726ad8547a5624"


# -------------------------------------------------------------- close_var

def test_corpus_compiles_to_the_same_text(reference):
    files = sorted(CORPUS.glob("*.pcf"))
    assert files
    for f in files:
        _, prog = parse_pcf_defs(f.read_text())
        want = pretty(reference(compile_pcf, prog, []))
        assert pretty(compile_pcf(prog, [])) == want, f.name


def test_every_clause_matches_the_reference():
    """Each clause of close_var, its faults included, on hand-built
    terms: the printed result or the message must be the reference's."""
    x, y, z = Var("x"), Var("y"), Var("z")
    twice = App(x, App(x, Zero()))
    cases = [
        x, Suc(twice), Lam("y", App(y, twice)), App(twice, z),
        App(z, twice), Pair(Zero(), twice), Pair(twice, Zero()),
        # a binder named x, and names x1, x2 already bound on one side
        App(x, App(Lam("x", x), x)),
        App(App(x, Lam("x1", Var("x1"))), Lam("x2", App(Var("x2"), x))),
        LetPair(Pair(Zero(), Zero()), "p", "q", App(Var("p"), twice)),
        LetPair(twice, "x", "q", App(x, Var("q"))),
        Rec(Pair(Zero(), Zero()), Zero(), Lam("y", twice), Lam("y", y)),
        Zero(), Pair(x, x), LetPair(x, "p", "q", x),
        Rec(x, x, Zero(), Zero()), Iter(x, Zero(), Zero()),
        Min(Zero(), Zero(), x),
    ]
    a = NAT_NAT

    def outcome(fn, t):
        try:
            return pretty(fn("x", t, a))
        except ContractViolation as e:
            return f"fault: {e}"

    for t in cases:
        assert outcome(pcf.close_var, t) == outcome(_ref_close_var, t)


def test_uses_compile_to_the_same_text(reference):
    # every k up to 40, then every 10th: the reference is cubic
    for k in [*range(1, 41), *range(50, 121, 10)]:
        prog = parse_pcf(_uses(k))
        want = pretty(reference(compile_pcf, prog, []))
        assert pretty(compile_pcf(prog, [])) == want, k


def test_seeded_programs_compile_to_the_same_text(reference):
    programs, shadowed = _seeded_programs(200)
    assert shadowed > 100  # inner binders shadow outer ones
    splits = 0
    for closed, body, env in programs:
        for prog, e in ((closed, []), (body, env)):
            want = pretty(reference(compile_pcf, prog, e))
            got = pretty(compile_pcf(prog, e))
            assert got == want, want
        splits += want.count("let <")
    assert splits > 500  # shared variables are split many times


def test_close_var_walks_linearly_in_the_uses(monkeypatch):
    """The nodes close_var walks for names grow linearly with the number
    of uses of a variable; re-walking both sides of every shared
    application made the count quadratic."""
    walked = [0]

    def counting(t):
        walked[0] += 1
        return children(t)

    monkeypatch.setattr(pcf, "children", counting)

    def walk(k):
        walked[0] = 0
        compile_pcf(parse_pcf(_uses(k)), [])
        return walked[0]

    assert walk(80) <= 2.5 * walk(40)
