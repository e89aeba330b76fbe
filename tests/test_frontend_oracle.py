"""The one-pass front end against verbatim copies of the code it replaced.

`lex` is one compiled regex loop; `check_linear` reads the `linear`
flag each node sets when it is built, and walks only when that flag is
False, into the subterms whose flag is False; `freshen` and inference keep
one scoped environment instead of copying it at every binder; `_unify`
dispatches on type instead of comparing whole type trees. Below are the
earlier `lex`, `check_linear`, `freshen`, unifier and constraint
generator (with the `infer` and `check` that drive it), copied
unchanged. Every input goes through both sides: the tokens, the
violation lists, the freshened text, the inferred types and every error
message must agree.

The new lexer differs on purpose in two places, and the comparison
allows exactly those: a numeral is a run of decimal digits, so a
non-decimal digit such as "²" is an unexpected character instead of a
numeral that int() later rejects; and the end-of-input column counts
the characters of a trailing `--` comment.
"""

import random
from dataclasses import dataclass
from pathlib import Path

import pytest

from lrec import parser, terms, types
from lrec.cli import _load_pcf, main
from lrec.gen import random_closed
from lrec.parser import ParseError, parse, parse_defs
from lrec.pcf import compile_pcf
from lrec.stdlib import pred_enc
from lrec.terms import (App, Iter, Lam, LetPair, Min, Pair, Rec, Suc, Term,
                        Var, Violation, Zero, children, mk_tuple, numeral,
                        pretty)
from lrec.types import (EnvDomainError, LinType, Lolli, MetaVar, NAT, Tensor,
                        TypeEnv, TypingError, _env_map, _meta_ids, _UnifyError,
                        type_pretty)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


# ------------------------------------------- the replaced code, verbatim

@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_PUNCT = {
    "\\": "lambda", "λ": "lambda", ".": "dot", "<": "langle", ">": "rangle",
    ",": "comma", "(": "lparen", ")": "rparen", "=": "eq", ";": "semi",
    "@": "at", "[": "lbracket", "]": "rbracket", ":": "colon", "*": "star",
    "⊗": "star", "⊸": "lolli",
}


def _ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _ident_char(c: str) -> bool:
    return c.isalnum() or c in "_'"


def lex(src: str) -> list[Token]:
    out: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        if src.startswith("-o", i):
            out.append(Token("lolli", "-o", line, col))
            i += 2
            col += 2
            continue
        if src.startswith("->", i):
            out.append(Token("arrow", "->", line, col))
            i += 2
            col += 2
            continue
        if c in _PUNCT:
            out.append(Token(_PUNCT[c], c, line, col))
            i += 1
            col += 1
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            out.append(Token("nat", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if _ident_start(c):
            j = i
            while j < n and _ident_char(src[j]):
                j += 1
            out.append(Token("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    out.append(Token("eof", "", line, col))
    return out


def _disjointness(parts: list[tuple[str, Term]], path: str, out: list[Violation]):
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            shared = parts[i][1].fv & parts[j][1].fv
            if shared:
                names = ", ".join(sorted(shared))
                out.append(Violation(
                    path,
                    f"variable(s) {names} occur in both {parts[i][0]} and {parts[j][0]}",
                    "shared", frozenset(shared),
                ))


def check_linear(t: Term) -> list[Violation]:
    """Every constraint of the term grammar, at every subterm.

    Returns the empty list when the term is syntactically linear.
    """
    out: list[Violation] = []
    work: list[tuple[Term, str]] = [(t, "")]
    while work:
        node, path = work.pop()
        match node:
            case Lam(binder=x, body=b):
                if x not in b.fv:
                    out.append(Violation(
                        path, f"binder {x} unused in the body", "unused", frozenset((x,))))
            case App(fun=f, arg=a):
                _disjointness([("operator", f), ("operand", a)], path, out)
            case Pair(left=l, right=r):
                _disjointness([("left component", l), ("right component", r)], path, out)
            case LetPair(scrut=s, x=x, y=y, body=b):
                if x == y:
                    out.append(Violation(
                        path, f"pattern binds {x} twice", "dup-pattern", frozenset((x,))))
                for v in (x, y):
                    if v not in b.fv:
                        out.append(Violation(
                            path, f"pattern variable {v} unused in the body",
                            "unused", frozenset((v,))))
                shared = s.fv & (b.fv - {x, y})
                if shared:
                    names = ", ".join(sorted(shared))
                    out.append(Violation(
                        path,
                        f"variable(s) {names} occur in both scrutinee and body",
                        "shared", frozenset(shared)))
            case Rec(scrut=s, base=u, step=v, update=w):
                _disjointness(
                    [("scrutinee", s), ("base", u), ("step", v), ("update", w)], path, out)
            case Iter(count=c, base=u, step=v):
                _disjointness([("count", c), ("base", u), ("step", v)], path, out)
            case Min(scrut=s, counter=u, fn=f):
                _disjointness([("scrutinee", s), ("counter", u), ("function", f)], path, out)
        kids = children(node)
        for i in range(len(kids) - 1, -1, -1):
            work.append((kids[i], f"{path}.{i}".lstrip(".")))
    return out


def freshen(t: Term) -> Term:
    """An alpha-variant whose binders are pairwise distinct and distinct
    from every free variable."""
    used = set(t.fv)
    # `used` only grows, so a base's suffixes below its last pick stay taken
    start: dict[str, int] = {}  # per base name, the next suffix to try

    def pick(name: str) -> str:
        if name not in used:
            used.add(name)
            return name
        i = start.get(name, 1)
        while f"{name}_{i}" in used:
            i += 1
        new = f"{name}_{i}"
        used.add(new)
        start[name] = i + 1
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


def _resolve(a: LinType, sub: dict[int, LinType]) -> LinType:
    while isinstance(a, MetaVar) and a.id in sub:
        a = sub[a.id]
    return a


def _occurs(i: int, a: LinType, sub: dict[int, LinType]) -> bool:
    work = [a]
    while work:
        t = _resolve(work.pop(), sub)
        match t:
            case MetaVar(id=j):
                if j == i:
                    return True
            case Lolli(dom=d, cod=c):
                work += (d, c)
            case Tensor(left=l, right=r):
                work += (l, r)
    return False


def _unify(a: LinType, b: LinType, sub: dict[int, LinType]):
    work = [(a, b)]
    while work:
        x, y = work.pop()
        x, y = _resolve(x, sub), _resolve(y, sub)
        if x == y:
            continue
        match x, y:
            case (MetaVar(id=i), _):
                if _occurs(i, y, sub):
                    raise _UnifyError(x, y)
                sub[i] = y
            case (_, MetaVar(id=i)):
                if _occurs(i, x, sub):
                    raise _UnifyError(y, x)
                sub[i] = x
            case (Lolli(), Lolli()):
                work.append((x.dom, y.dom))
                work.append((x.cod, y.cod))
            case (Tensor(), Tensor()):
                work.append((x.left, y.left))
                work.append((x.right, y.right))
            case _:
                raise _UnifyError(x, y)


def _zonk(a: LinType, sub: dict[int, LinType]) -> LinType:
    a = _resolve(a, sub)
    match a:
        case Lolli(dom=d, cod=c):
            return Lolli(_zonk(d, sub), _zonk(c, sub))
        case Tensor(left=l, right=r):
            return Tensor(_zonk(l, sub), _zonk(r, sub))
        case _:
            return a


class _Gen:
    def __init__(self):
        self.sub: dict[int, LinType] = {}
        self.next_meta = 0

    def fresh(self) -> MetaVar:
        m = MetaVar(self.next_meta)
        self.next_meta += 1
        return m

    def want(self, a: LinType, b: LinType, rule: str, at: Term):
        try:
            _unify(a, b, self.sub)
        except _UnifyError as e:
            za, zb = _zonk(e.a, self.sub), _zonk(e.b, self.sub)
            raise TypingError(
                f"rule ({rule}): cannot unify {type_pretty(za)} with "
                f"{type_pretty(zb)} in {pretty(at)}") from None

    def go(self, t: Term, env: dict[str, LinType]) -> LinType:
        match t:
            case Var(name=n):
                try:
                    return env[n]
                except KeyError:
                    raise TypingError(f"unbound variable {n}") from None
            case Zero():
                return NAT
            case Suc():
                inner = t
                while isinstance(inner, Suc):
                    inner = inner.body
                self.want(self.go(inner, env), NAT, "Succ", t)
                return NAT
            case Lam(binder=x, body=b):
                a = self.fresh()
                return Lolli(a, self.go(b, {**env, x: a}))
            case App(fun=f, arg=u):
                tf = self.go(f, env)
                tu = self.go(u, env)
                out = self.fresh()
                self.want(tf, Lolli(tu, out), "App", t)
                return out
            case Pair(left=l, right=r):
                return Tensor(self.go(l, env), self.go(r, env))
            case LetPair(scrut=s, x=x, y=y, body=b):
                a1, a2 = self.fresh(), self.fresh()
                self.want(self.go(s, env), Tensor(a1, a2), "Let", t)
                return self.go(b, {**env, x: a1, y: a2})
            case Rec(scrut=s, base=u, step=v, update=w):
                self.want(self.go(s, env), Tensor(NAT, NAT), "Rec", t)
                a = self.go(u, env)
                self.want(self.go(v, env), Lolli(a, a), "Rec", t)
                nn = Tensor(NAT, NAT)
                self.want(self.go(w, env), Lolli(nn, nn), "Rec", t)
                return a
            case Iter(count=c, base=u, step=v):
                self.want(self.go(c, env), NAT, "Iter", t)
                a = self.go(u, env)
                self.want(self.go(v, env), Lolli(a, a), "Iter", t)
                return a
            case Min(scrut=s, counter=u, fn=f):
                self.want(self.go(s, env), NAT, "Min", t)
                self.want(self.go(u, env), NAT, "Min", t)
                self.want(self.go(f, env), Lolli(NAT, NAT), "Min", t)
                return NAT
        raise AssertionError(f"unhandled node {type(t).__name__}")


def infer(t: Term, env: TypeEnv) -> LinType:
    """The type of t under env, or a TypingError.

    env must list exactly the free variables of t; underconstrained
    positions come back as MetaVars.
    """
    bad = check_linear(t)
    if bad:
        raise TypingError(f"term is not linear: {bad[0]}")
    emap = _env_map(env)
    if set(emap) != set(t.fv):
        extra = sorted(set(emap) - set(t.fv))
        missing = sorted(set(t.fv) - set(emap))
        parts = []
        if missing:
            parts.append(f"missing {', '.join(missing)}")
        if extra:
            parts.append(f"unused {', '.join(extra)}")
        raise EnvDomainError(
            f"environment domain must equal the free variables: {'; '.join(parts)}")
    gen = _Gen()
    return _zonk(gen.go(t, emap), gen.sub)


def check(t: Term, env: TypeEnv, a: LinType) -> LinType:
    """Check t against a; returns the instantiated type (a with any of
    its MetaVars resolved), or raises TypingError."""
    bad = check_linear(t)
    if bad:
        raise TypingError(f"term is not linear: {bad[0]}")
    emap = _env_map(env)
    if set(emap) != set(t.fv):
        raise EnvDomainError(
            "environment domain must equal the free variables")
    gen = _Gen()
    # keep caller MetaVars distinct from generated ones
    ids = _meta_ids(a)
    if ids:
        gen.next_meta = max(ids) + 1
    got = gen.go(t, emap)
    gen.want(got, a, "Check", t)
    return _zonk(a, gen.sub)


# ------------------------------------------------------------- inputs

def _raw_corpus_terms() -> list[Term]:
    """Each corpus .lrec program as parsed, before freshening: library
    terms from the catalog reuse binder names across definitions."""
    return [parse_defs(f.read_text(), "lrec")[1]
            for f in sorted(CORPUS.glob("*.lrec"))]


def _compiled_corpus() -> list[Term]:
    return [compile_pcf(_load_pcf(str(f))[0], [])
            for f in sorted(CORPUS.glob("*.pcf"))]


def _generated(n: int = 300) -> list[Term]:
    rng = random.Random(23)
    out = []
    for _ in range(n):
        t, _ = random_closed(rng, rng.randint(1, 5))
        out.append(t)
    return out


def _hand_built() -> list[Term]:
    """Non-linear, shadowed and open terms, one constraint at a time and
    several at once."""
    x, y, z, p = Var("x"), Var("y"), Var("z"), Var("p")
    lam = Lam
    return [
        lam("x", x), lam("x", App(x, x)), lam("x", Zero()), lam("x", lam("x", x)),
        App(lam("x", x), lam("x", x)), Pair(x, x), Pair(lam("x", x), x),
        App(x, lam("x", x)), App(lam("x", x), x),
        LetPair(p, "x", "x", x), LetPair(p, "x", "y", x),
        LetPair(p, "x", "y", Pair(y, x)), LetPair(p, "x", "y", Pair(Pair(x, y), p)),
        LetPair(Pair(x, y), "x", "y", Pair(x, y)),
        LetPair(p, "x", "x", Zero()),
        Rec(Pair(x, Zero()), x, lam("y", y), lam("y", y)),
        Rec(Pair(Zero(), Zero()), Zero(), lam("y", Suc(Suc(y))), lam("y", y)),
        Rec(x, y, z, Pair(x, Pair(y, z))),
        Iter(x, x, lam("y", y)), Iter(numeral(2), Zero(), lam("y", Suc(y))),
        Min(x, Zero(), x), Min(Zero(), numeral(1), lam("y", y)),
        lam("x", lam("y", lam("z", App(App(z, x), Pair(y, y))))),
        Suc(Suc(App(x, x))), numeral(5), Suc(x),
        # one name bound in disjoint scopes: linear, certified as written
        Pair(lam("x", x), lam("x", x)), App(lam("y", y), lam("y", Suc(y))),
        mk_tuple([lam("x", lam("x", x)), lam("x", Zero()), App(x, x)]),
    ]


def _inputs() -> list[Term]:
    base = _raw_corpus_terms() + _compiled_corpus() + _hand_built()
    gen = _generated()
    # three copies side by side make every binder name clash
    clashes = [u for t in gen[:60] for u in (mk_tuple([t, t, t]),
                                              App(Lam("v0", t), t))]
    return base + gen + clashes


@pytest.fixture(scope="module")
def inputs():
    return _inputs()


def _env(t: Term) -> TypeEnv:
    """Free variables at alternating ground and unknown types."""
    return [(n, NAT if i % 2 else MetaVar(100 + i))
            for i, n in enumerate(sorted(t.fv))]


def _outcome(fn, *args) -> str:
    try:
        return "ok: " + type_pretty(fn(*args))
    except (TypingError, EnvDomainError) as e:
        return f"{type(e).__name__}: {e}"


# --------------------------------------------------------------- lexer

def _tokens(fn, src: str):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in fn(src)]
    except ParseError as e:
        return f"ParseError: {e}"


def _expected(src: str):
    """The old lexer's answer with the two fixes applied."""
    try:
        toks = lex(src)
    except ParseError as e:
        toks, err = None, f"ParseError: {e}"
    # the first non-decimal digit of an old numeral is now unexpected;
    # the old lexer read it before any later error
    for t in (toks if toks is not None else _partial(src)):
        if t.kind == "nat" and not t.text.isdecimal():
            k = next(i for i, c in enumerate(t.text) if not c.isdecimal())
            c = t.text[k]
            return f"ParseError: line {t.line}, col {t.col + k}: unexpected character {c!r}"
    if toks is None:
        return err
    out = [(t.kind, t.text, t.line, t.col) for t in toks]
    # the end-of-input column counts a trailing comment
    out[-1] = ("eof", "", out[-1][2], len(src.rsplit("\n", 1)[-1]) + 1)
    return out


def _partial(src: str) -> list:
    """The old lexer's tokens before its error."""
    for end in range(len(src), -1, -1):
        try:
            return lex(src[:end])
        except ParseError:
            continue
    return []


SOUP = ["\\", "λ", ".", "<", ">", ",", "(", ")", "=", ";", "@", "[", "]",
        ":", "*", "⊗", "⊸", "-o", "->", "-", "--", "x", "x'", "_y1", "Nat",
        "let", "in", "rec", "S", "12", "007", "٣4", "²", "½", "Ⅻ", "é",
        "λx", "xλ", "x²", "\t", " ", "  ", "\n", "\r\n", "-- note\n",
        "-- tail", "\x0b", "'", "#", " ", "0x", "9'"]


def _soups(n: int = 400) -> list[str]:
    rng = random.Random(7)
    return ["".join(rng.choice(SOUP) for _ in range(rng.randint(0, 14)))
            for _ in range(n)]


def test_corpus_and_soups_lex_as_before():
    sources = [f.read_text() for f in sorted(CORPUS.iterdir())
               if f.suffix in (".lrec", ".pcf")]
    sources += [pretty(t) for t in _generated(100)] + _soups()
    for src in sources:
        assert _tokens(parser.lex, src) == _expected(src), src


def test_every_character_lexes_as_before():
    """Every 37th code point, alone, after a letter and before a digit:
    the regex classes agree with the str predicates the old lexer used."""
    for cp in range(0, 0x110000, 37):
        if 0xD800 <= cp <= 0xDFFF:
            continue
        c = chr(cp)
        for src in (c, "a" + c, c + "1"):
            assert _tokens(parser.lex, src) == _expected(src), hex(cp)


def test_the_two_fixes():
    assert _tokens(parser.lex, "(\\x. x -- trailing comment")[-1] == \
        ("eof", "", 1, 27)
    assert lex("(\\x. x -- trailing comment")[-1].col == 8
    assert _tokens(parser.lex, "1²") == \
        "ParseError: line 1, col 2: unexpected character '²'"
    assert [t.text for t in lex("1²")] == ["1²", ""]


# --------------------------------------------------------- check_linear

def test_violations_match(inputs):
    certified = reused = 0
    for t in inputs:
        want = check_linear(t)
        assert terms.check_linear(t) == want, pretty(t)
        # the flag is exact: it alone decides every input
        assert t.linear == (terms._violations(t) == []) == (want == []), pretty(t)
        if not want:
            certified += 1
            # a linear term that reuses names certifies as written
            reused += pretty(terms.freshen(t)) != pretty(t)
    # both outcomes are exercised, and linear terms that reuse names
    assert certified > 100 and len(inputs) - certified > 20 and reused > 100


def test_non_linear_input_reports_every_violation():
    t = Lam("x", Lam("y", Rec(Pair(Var("z"), Var("z")), Var("z"), Zero(),
                              LetPair(Var("q"), "a", "a", Zero()))))
    got = terms.check_linear(t)
    assert got == check_linear(t)
    assert [(v.path, v.kind) for v in got] == [
        ("", "unused"), ("0", "unused"), ("0.0", "shared"),
        ("0.0.0", "shared"), ("0.0.3", "dup-pattern"), ("0.0.3", "unused"),
        ("0.0.3", "unused")]


# -------------------------------------------------------------- freshen

def test_freshened_text_matches(inputs):
    for t in inputs:
        assert pretty(terms.freshen(t)) == pretty(freshen(t))


# ------------------------------------------------------------ inference

def test_inferred_types_and_errors_match(inputs):
    kinds = set()
    for t in inputs:
        for env in (_env(t), [], _env(t) + [("unused", NAT)]):
            want = _outcome(infer, t, env)
            assert _outcome(types.infer, t, env) == want, pretty(t)
            kinds.add(want.split(":")[0])
    assert kinds == {"ok", "TypingError", "EnvDomainError"}


def test_checked_types_and_errors_match(inputs):
    targets = [NAT, MetaVar(0), Lolli(MetaVar(3), MetaVar(3)),
               Lolli(NAT, Lolli(NAT, NAT)), Tensor(MetaVar(1), NAT)]
    for t in inputs[:200]:
        for a in targets:
            env = _env(t)
            assert _outcome(types.check, t, env, a) == \
                _outcome(check, t, env, a), pretty(t)


def _random_type(rng: random.Random, depth: int) -> LinType:
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return MetaVar(rng.randrange(6)) if rng.random() < 0.6 else NAT
    if roll < 0.7:
        return Lolli(_random_type(rng, depth - 1), _random_type(rng, depth - 1))
    return Tensor(_random_type(rng, depth - 1), _random_type(rng, depth - 1))


def _unified(fn, pairs):
    sub: dict = {}
    try:
        for a, b in pairs:
            fn(a, b, sub)
    except _UnifyError as e:
        return sub, (e.a, e.b)
    return sub, None


def test_unifier_binds_and_fails_as_before():
    """Sequences of unifications over shared metavariables: the same
    bindings in the same substitution, and the same failing pair."""
    rng = random.Random(3)
    outcomes = set()
    for _ in range(3000):
        pairs = [(_random_type(rng, 3), _random_type(rng, 3))
                 for _ in range(rng.randint(1, 4))]
        want = _unified(_unify, pairs)
        assert _unified(types._unify, pairs) == want, pairs
        outcomes.add(want[1] is None)
    assert outcomes == {True, False}


# ------------------------------------------------------------ the guard

def _nest(depth: int) -> str:
    return "@pred (" * depth + "0" + ")" * depth


def test_well_formed_input_never_takes_the_full_walk(monkeypatch, tmp_path, capsys):
    """Checking the corpus and the 2000-deep nest reads each term's flag:
    the walk that lists violations never runs."""
    walks = [0]
    full = terms._violations

    def counting(t):
        walks[0] += 1
        return full(t)

    monkeypatch.setattr(terms, "_violations", counting)
    nest = tmp_path / "nest.lrec"
    nest.write_text(_nest(2000))
    for f in [*sorted(CORPUS.glob("*.lrec")), nest]:
        main(["check", str(f)])
    capsys.readouterr()
    assert walks[0] == 0
    # the counter is live: a shadowed nest goes through the full walk
    with pytest.raises(parser.LinearityError):
        parse("\\x. \\x. x")
    assert walks[0] == 1


def test_the_walk_visits_only_the_path_to_a_violation(monkeypatch):
    """The 2000-deep nest with (\\x. x x) 0 at the bottom: the walk enters
    each node down to the shared x and no linear subterm beside it."""
    x = Var("x")
    bottom = App(Lam("x", App(x, x)), Zero())
    t = bottom
    for _ in range(2000):
        t = App(pred_enc(), t)
    path = []
    node = t
    while node is not bottom:
        path.append(node)
        node = node.arg
    path += [bottom, bottom.fun, bottom.fun.body]
    seen = []
    full = terms.children

    def recording(node):
        seen.append(node)
        return full(node)

    monkeypatch.setattr(terms, "children", recording)
    got = terms.check_linear(t)
    assert len(seen) == len(path) == 2003
    assert all(a is b for a, b in zip(seen, path))
    assert got == [terms.Violation(
        "1." * 2000 + "0.0", "variable(s) x occur in both operator and operand",
        "shared", frozenset({"x"}))]
