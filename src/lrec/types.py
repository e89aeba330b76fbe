"""Linear types and inference.

Terms carry no annotations, so checking is inference: syntax-directed
constraint generation followed by first-order unification over the
three type formers. Linearity makes context splitting deterministic
(each part of a node gets exactly the variables it uses), so splits are
read off the cached free-variable sets and never searched.

Both entry points, infer and check, reject a non-linear term before
typing it. Constraint generation keeps one environment, binding each
binder on the way down and restoring what it shadowed on the way up.
"""

from __future__ import annotations

from .terms import (App, Iter, Lam, LetPair, Min, Pair, Rec, Suc, Record,
                    Term, Var, Zero, check_linear, pretty, restore_scope)


class LinType(Record):
    __slots__ = ()


class Nat(LinType):
    __slots__ = ()


class Lolli(LinType):
    __slots__ = ("dom", "cod")
    dom: LinType
    cod: LinType

    def __init__(self, dom: LinType, cod: LinType):
        self.dom = dom
        self.cod = cod


class Tensor(LinType):
    __slots__ = ("left", "right")
    left: LinType
    right: LinType

    def __init__(self, left: LinType, right: LinType):
        self.left = left
        self.right = right


class MetaVar(LinType):
    __slots__ = ("id",)
    id: int

    def __init__(self, id: int):
        self.id = id


NAT = Nat()


class TypingError(Exception):
    pass


class EnvDomainError(TypingError):
    pass


class _UnifyError(Exception):
    def __init__(self, a: LinType, b: LinType):
        self.a = a
        self.b = b


def type_pretty(a: LinType, ground: bool = False, arrow: str = "-o") -> str:
    """Concrete type syntax. MetaVars print as ?a, ?b, ... in order of
    first appearance; ground=True shows them as Nat instead. PCF prints
    its types with arrow="->"."""
    seen: dict[int, int] = {}

    def name(i: int) -> str:
        if i not in seen:
            seen[i] = len(seen)
        k = seen[i]
        return chr(ord("a") + k % 26) + ("" if k < 26 else str(k // 26))

    def go(t: LinType, level: int) -> str:
        # level 0: full type, 1: lolli domain, 2: tensor left
        match t:
            case Nat():
                return "Nat"
            case MetaVar(id=i):
                return "Nat" if ground else f"?{name(i)}"
            case Lolli(dom=d, cod=c):
                s = f"{go(d, 1)} {arrow} {go(c, 0)}"
                return f"({s})" if level > 0 else s
            case Tensor(left=l, right=r):
                s = f"{go(l, 2)} * {go(r, 1)}"
                return f"({s})" if level > 1 else s
        raise AssertionError(f"unhandled type {t!r}")

    return go(a, 0)


# --------------------------------------------------------------------------
# unification


def _resolve(a: LinType, sub: dict[int, LinType]) -> LinType:
    while type(a) is MetaVar and a.id in sub:
        a = sub[a.id]
    return a


def _occurs(i: int, a: LinType, sub: dict[int, LinType]) -> bool:
    work = [a]
    while work:
        t = _resolve(work.pop(), sub)
        cls = type(t)
        if cls is MetaVar:
            if t.id == i:
                return True
        elif cls is Lolli:
            work += (t.dom, t.cod)
        elif cls is Tensor:
            work += (t.left, t.right)
    return False


def _unify(a: LinType, b: LinType, sub: dict[int, LinType]):
    # equal subtrees are walked, not compared whole first: walking them
    # binds nothing, and pairs leave the stack in descent order, so the
    # substitution and the first failing pair are a whole-tree test's
    work = [(a, b)]
    while work:
        x, y = work.pop()
        x, y = _resolve(x, sub), _resolve(y, sub)
        if x is y:
            continue
        cx, cy = type(x), type(y)
        if cx is MetaVar:
            if cy is MetaVar and x.id == y.id:
                continue
            if _occurs(x.id, y, sub):
                raise _UnifyError(x, y)
            sub[x.id] = y
        elif cy is MetaVar:
            if _occurs(y.id, x, sub):
                raise _UnifyError(y, x)
            sub[y.id] = x
        elif cx is not cy:
            raise _UnifyError(x, y)
        elif cx is Lolli:
            work.append((x.dom, y.dom))
            work.append((x.cod, y.cod))
        elif cx is Tensor:
            work.append((x.left, y.left))
            work.append((x.right, y.right))
        # else Nat against Nat: nothing to do


def _zonk(a: LinType, sub: dict[int, LinType]) -> LinType:
    a = _resolve(a, sub)
    cls = type(a)
    if cls is Lolli:
        return Lolli(_zonk(a.dom, sub), _zonk(a.cod, sub))
    if cls is Tensor:
        return Tensor(_zonk(a.left, sub), _zonk(a.right, sub))
    return a


# --------------------------------------------------------------------------
# constraint generation

TypeEnv = list  # list of (name, LinType) pairs, ordered


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
        """The type of t; env maps the variables in scope to their types.
        A binder is bound in env for its body and then restored, so a
        successful call leaves env as it found it."""
        cls = type(t)
        if cls is Var:  # bound: _domain gave env t's free variables
            return env[t.name]
        if cls is App:
            tf = self.go(t.fun, env)
            tu = self.go(t.arg, env)
            out = self.fresh()
            self.want(tf, Lolli(tu, out), "App", t)
            return out
        if cls is Lam:
            x = t.binder
            a = self.fresh()
            outer = env.get(x)
            env[x] = a
            body = self.go(t.body, env)
            restore_scope(env, x, outer)
            return Lolli(a, body)
        if cls is Zero:
            return NAT
        if cls is Suc:
            inner = t.body
            while type(inner) is Suc:
                inner = inner.body
            self.want(self.go(inner, env), NAT, "Succ", t)
            return NAT
        if cls is Pair:
            return Tensor(self.go(t.left, env), self.go(t.right, env))
        if cls is LetPair:
            x, y = t.x, t.y
            a1, a2 = self.fresh(), self.fresh()
            self.want(self.go(t.scrut, env), Tensor(a1, a2), "Let", t)
            outer_x, outer_y = env.get(x), env.get(y)
            env[x] = a1
            env[y] = a2
            body = self.go(t.body, env)
            restore_scope(env, y, outer_y)
            restore_scope(env, x, outer_x)
            return body
        if cls is Rec:
            self.want(self.go(t.scrut, env), Tensor(NAT, NAT), "Rec", t)
            a = self.go(t.base, env)
            self.want(self.go(t.step, env), Lolli(a, a), "Rec", t)
            nn = Tensor(NAT, NAT)
            self.want(self.go(t.update, env), Lolli(nn, nn), "Rec", t)
            return a
        if cls is Iter:
            self.want(self.go(t.count, env), NAT, "Iter", t)
            a = self.go(t.base, env)
            self.want(self.go(t.step, env), Lolli(a, a), "Iter", t)
            return a
        if cls is Min:
            self.want(self.go(t.scrut, env), NAT, "Min", t)
            self.want(self.go(t.counter, env), NAT, "Min", t)
            self.want(self.go(t.fn, env), Lolli(NAT, NAT), "Min", t)
            return NAT
        raise AssertionError(f"unhandled node {cls.__name__}")


def _env_map(env: TypeEnv) -> dict[str, LinType]:
    out: dict[str, LinType] = {}
    for name, a in env:
        if name in out:
            raise TypingError(f"environment lists {name} twice")
        out[name] = a
    return out


def _domain(t: Term, env: TypeEnv) -> dict[str, LinType]:
    """env as a map, once t is linear and env binds exactly its free
    variables; else the TypingError that says what is wrong. infer and
    check both start here."""
    bad = check_linear(t)
    if bad:
        raise TypingError(f"term is not linear: {bad[0]}")
    emap = _env_map(env)
    if set(emap) != t.fv:
        parts = [f"{what} {', '.join(sorted(names))}" for what, names in
                 (("missing", t.fv - set(emap)), ("unused", set(emap) - t.fv))
                 if names]
        raise EnvDomainError(
            f"environment domain must equal the free variables: {'; '.join(parts)}")
    return emap


def infer(t: Term, env: TypeEnv) -> LinType:
    """The type of t under env, or a TypingError.

    env must list exactly the free variables of t; underconstrained
    positions come back as MetaVars.
    """
    emap = _domain(t, env)
    gen = _Gen()
    return _zonk(gen.go(t, emap), gen.sub)


def check(t: Term, env: TypeEnv, a: LinType) -> LinType:
    """Check t against a; returns the instantiated type (a with any of
    its MetaVars resolved), or raises TypingError."""
    emap = _domain(t, env)
    gen = _Gen()
    # keep caller MetaVars distinct from generated ones
    ids = _meta_ids(a)
    if ids:
        gen.next_meta = max(ids) + 1
    got = gen.go(t, emap)
    gen.want(got, a, "Check", t)
    return _zonk(a, gen.sub)


def _meta_ids(a: LinType) -> set[int]:
    out: set[int] = set()
    work = [a]
    while work:
        t = work.pop()
        match t:
            case MetaVar(id=i):
                out.add(i)
            case Lolli(dom=d, cod=c):
                work += (d, c)
            case Tensor(left=l, right=r):
                work += (l, r)
    return out
