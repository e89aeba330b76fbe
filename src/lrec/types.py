"""Linear types and inference.

Terms carry no annotations, so checking is inference: syntax-directed
constraint generation followed by first-order unification over the
three type formers. Linearity makes context splitting deterministic
(each part of a node gets exactly the variables it uses), so splits are
read off the cached free-variable sets and never searched.

check_nonlinear relaxes linearity for a chosen set of variables, which
may then be shared between the parts of a split or dropped entirely.
Everything else is checked as usual. It exists to validate compiler
intermediates whose source-language variables are not linear.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (App, Iter, Lam, LetPair, Min, Pair, Rec, Suc, Term, Var,
                    Zero, check_linear, pretty)


class LinType:
    __slots__ = ()


@dataclass(frozen=True)
class Nat(LinType):
    pass


@dataclass(frozen=True)
class Lolli(LinType):
    dom: LinType
    cod: LinType


@dataclass(frozen=True)
class Tensor(LinType):
    left: LinType
    right: LinType


@dataclass(frozen=True)
class MetaVar(LinType):
    id: int


NAT = Nat()


class TypingError(Exception):
    pass


class EnvDomainError(TypingError):
    pass


class _UnifyError(Exception):
    def __init__(self, a: LinType, b: LinType):
        self.a = a
        self.b = b


def type_pretty(a: LinType, ground: bool = False) -> str:
    """Concrete type syntax. MetaVars print as ?a, ?b, ... in order of
    first appearance; ground=True shows them as Nat instead."""
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
                s = f"{go(d, 1)} -o {go(c, 0)}"
                return f"({s})" if level > 0 else s
            case Tensor(left=l, right=r):
                s = f"{go(l, 2)} * {go(r, 1)}"
                return f"({s})" if level > 1 else s
        raise AssertionError(f"unhandled type {t!r}")

    return go(a, 0)


# --------------------------------------------------------------------------
# unification


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


def _env_map(env: TypeEnv) -> dict[str, LinType]:
    out: dict[str, LinType] = {}
    for name, a in env:
        if name in out:
            raise TypingError(f"environment lists {name} twice")
        out[name] = a
    return out


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


def check_nonlinear(t: Term, env: TypeEnv, x_set: frozenset[str] | set[str]) -> LinType:
    """Type t while letting the variables in x_set be shared or dropped.

    All other variables (including every binder) stay linear. Used to
    validate compiler output, whose source-level variables occur any
    number of times.
    """
    for v in check_linear(t):
        if v.kind == "shared":
            offending = v.names - x_set
            if offending:
                names = ", ".join(sorted(offending))
                raise TypingError(f"variable(s) {names} duplicated: {v}")
        else:
            raise TypingError(f"term is not linear: {v}")
    emap = _env_map(env)
    missing = set(t.fv) - set(emap)
    if missing:
        raise EnvDomainError(
            f"environment missing {', '.join(sorted(missing))}")
    dropped = set(emap) - set(t.fv) - set(x_set)
    if dropped:
        names = ", ".join(sorted(dropped))
        raise TypingError(f"variable(s) {names} dropped but not exempt")
    gen = _Gen()
    return _zonk(gen.go(t, emap), gen.sub)
