"""Closed reduction, small step.

Every rule carries a closedness side condition, checked on the cached
free-variable sets. A redex whose side condition fails is simply not a
redex: leftmost-outermost search skips it and keeps going.

Reduction is allowed under binders, so normal forms are genuine normal
forms, not weak ones. Fuel counts root-rule applications; traversal is
free. Subterms proved redex-free are flagged (terms are immutable, and
reducibility of a subterm does not depend on its context), which keeps
repeated leftmost searches from rescanning finished regions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from .terms import (App, ContractViolation, Fuel, FuelExhausted, Iter, Lam,
                    LetPair, Min, OutOfFuel, Pair, Rec, Suc, Term, Zero,
                    children, subst)


@dataclass(frozen=True)
class Stepped:
    next: Term
    rule: str
    path: str  # dot-separated child indices, "" for the root


RootStep = Callable[[Term], Optional[tuple[Term, str]]]


def step_root(t: Term) -> tuple[Term, str] | None:
    """One rule instance at the root, or None (no match, or a side
    condition fails)."""
    match t:
        case App(fun=Lam(binder=x, body=b), arg=v) if not v.fv:
            return subst(b, x, v), "Beta"
        case LetPair(scrut=Pair(left=a, right=b2), x=x, y=y, body=v) \
                if not a.fv and not b2.fv:
            return subst(subst(v, x, a), y, b2), "Let"
        case Rec(scrut=Pair(left=Zero(), right=t2), base=u, step=v, update=w) \
                if not (t2.fv | v.fv | w.fv):
            return u, "RecZero"
        case Rec(scrut=Pair(left=Suc(body=tn), right=t2), base=u, step=v, update=w) \
                if not (v.fv | w.fv):
            return App(v, Rec(App(w, Pair(tn, t2)), u, v, w)), "RecSuc"
    return None


def _replace(t: Term, i: int, new: Term) -> Term:
    match t, i:
        case Suc(), 0:
            return Suc(new)
        case App(arg=a), 0:
            return App(new, a)
        case App(fun=f), 1:
            return App(f, new)
        case Lam(binder=x), 0:
            return Lam(x, new)
        case Pair(right=r), 0:
            return Pair(new, r)
        case Pair(left=l), 1:
            return Pair(l, new)
        case LetPair(x=x, y=y, body=b), 0:
            return LetPair(new, x, y, b)
        case LetPair(scrut=s, x=x, y=y), 1:
            return LetPair(s, x, y, new)
        case Rec(base=u, step=v, update=w), 0:
            return Rec(new, u, v, w)
        case Rec(scrut=s, step=v, update=w), 1:
            return Rec(s, new, v, w)
        case Rec(scrut=s, base=u, update=w), 2:
            return Rec(s, u, new, w)
        case Rec(scrut=s, base=u, step=v), 3:
            return Rec(s, u, v, new)
        case Iter(base=u, step=v), 0:
            return Iter(new, u, v)
        case Iter(count=c, step=v), 1:
            return Iter(c, new, v)
        case Iter(count=c, base=u), 2:
            return Iter(c, u, new)
        case Min(counter=u, fn=f), 0:
            return Min(new, u, f)
        case Min(scrut=s, fn=f), 1:
            return Min(s, new, f)
        case Min(scrut=s, counter=u), 2:
            return Min(s, u, new)
    raise ContractViolation(f"no child {i} in {type(t).__name__}")


def _step_lo(t: Term, root_fn: RootStep, flag: str) -> Stepped | None:
    if getattr(t, flag, False):
        return None
    r = root_fn(t)
    if r is not None:
        return Stepped(r[0], r[1], "")
    if isinstance(t, Suc):
        # S chains can be very tall; peel them without recursing
        chain: list[Term] = []
        inner: Term = t
        while isinstance(inner, Suc) and not getattr(inner, flag, False):
            chain.append(inner)
            inner = inner.body
        sub = None if isinstance(inner, Suc) else _step_lo(inner, root_fn, flag)
        if sub is None:
            for node in chain:
                setattr(node, flag, True)
            return None
        nt = sub.next
        for _ in range(len(chain)):
            nt = Suc(nt)
        path = ("0." * len(chain) + sub.path).rstrip(".")
        return Stepped(nt, sub.rule, path)
    for i, kid in enumerate(children(t)):
        sub = _step_lo(kid, root_fn, flag)
        if sub is not None:
            path = f"{i}.{sub.path}" if sub.path else str(i)
            return Stepped(_replace(t, i, sub.next), sub.rule, path)
    setattr(t, flag, True)
    return None


def step_lo(t: Term) -> Stepped | None:
    """The leftmost-outermost step: the root first, then children in
    textual order, reducing under binders."""
    return _step_lo(t, step_root, "nf")


OnStep = Callable[[int, str, str, Term], None]


def _normalize_with(t: Term, fuel: int, root_fn: RootStep, flag: str,
                    on_step: OnStep | None) -> Term | FuelExhausted:
    cell = Fuel(fuel)
    try:
        while True:
            s = _step_lo(t, root_fn, flag)
            if s is None:
                return t
            cell.tick()
            t = s.next
            if on_step is not None:
                on_step(fuel - cell.remaining, s.rule, s.path, t)
    except OutOfFuel:
        return FuelExhausted(t)


def normalize(t: Term, fuel: int, on_step: OnStep | None = None) -> Term | FuelExhausted:
    """Leftmost-outermost reduction to normal form, at most fuel steps."""
    return _normalize_with(t, fuel, step_root, "nf", on_step)


def enumerate_redexes(t: Term, root_fn: RootStep = step_root,
                      flag: str = "nf") -> list[tuple[int, ...]]:
    """Positions (as child-index paths) of every enabled redex."""
    out: list[tuple[int, ...]] = []
    work: list[tuple[Term, tuple[int, ...]]] = [(t, ())]
    while work:
        node, path = work.pop()
        if getattr(node, flag, False):
            continue
        if root_fn(node) is not None:
            out.append(path)
        kids = children(node)
        for i in range(len(kids) - 1, -1, -1):
            work.append((kids[i], path + (i,)))
    out.sort()
    return out


def step_at(t: Term, path: tuple[int, ...],
            root_fn: RootStep = step_root) -> tuple[Term, str]:
    if not path:
        r = root_fn(t)
        if r is None:
            raise ContractViolation("no redex at the given position")
        return r
    new, rule = step_at(children(t)[path[0]], path[1:], root_fn)
    return _replace(t, path[0], new), rule


def step_random(t: Term, rng: random.Random | int) -> Stepped | None:
    """One step at a uniformly chosen enabled redex; None on normal forms."""
    if isinstance(rng, int):
        rng = random.Random(rng)
    paths = enumerate_redexes(t)
    if not paths:
        return None
    path = rng.choice(paths)
    new, rule = step_at(t, path)
    return Stepped(new, rule, ".".join(map(str, path)))
