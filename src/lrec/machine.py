"""A stack machine on linear environments: the evaluators' loop,
`evaluation.whnf`, on the machine's engine row.

A configuration is the current code plus a stack whose entries are
either pending arguments or one of three markers: a pending pair split,
a recursor waiting for its scrutinee pair, and a recursor that has the
second component in hand and is waiting for the first to become a
number. The code and every entry are closures (see `terms`). The stack
is the CBN evaluator's frames: an APP, LET or REC frame, and a HEAD
frame for the last marker. The transitions are the loop's pushes
(app, let, rec) and pops (abs, pair1, pair2, zero, succ); `MACHINE`
charges one unit for each, nothing for reaching a value, and reports a
stop at the configuration before the transition, taken before any cell
is cleared. A lookup is not a transition. Outcomes, fuel and numeral
readback are the engines' shared ones (see `terms`).

The observable `MachineConfig`, whose code and top-first tuple of
markers hold terms rebuilt by `terms.unload`, is made only when someone
looks: an `on_step` observer, which converts only the top entry after a
transition, and the configuration a run stops at, which is also how the
normaliser's loop (`reduction.NORMALIZER`) reports a stop. That loop
alone runs the minimiser calculus, so two more markers stand for its
ITER and MIN frames: an iterator (`IterK`) or a minimiser (`MinK`)
waiting for its count or scrutinee to become a number. The machine
itself has no transition for an Iter or Min node and is stuck there.
"""

from __future__ import annotations

from .evaluation import APP, HEAD, ITER, LET, REC, top_frame, whnf
from .terms import (App, Fuel, FuelExhausted, Lam, LetPair, OutOfFuel, Outcome,
                    Rec, Record, Stuck, Term, Zero, children, drive,
                    read_numeral, require_closed, unload)


class ExtTerm(Record):
    __slots__ = ()


class Plain(ExtTerm):
    __slots__ = ("term",)
    term: Term


class LetK(ExtTerm):
    __slots__ = ("x", "y", "body")
    x: str
    y: str
    body: Term


class RecK(ExtTerm):
    __slots__ = ("base", "step", "update")
    base: Term
    step: Term
    update: Term


class RecK2(ExtTerm):
    __slots__ = ("second", "base", "step", "update")
    second: Term
    base: Term
    step: Term
    update: Term


class IterK(ExtTerm):
    __slots__ = ("base", "step")
    base: Term
    step: Term


class MinK(ExtTerm):
    __slots__ = ("counter", "fn")
    counter: Term
    fn: Term


Stack = tuple  # of ExtTerm, top first


class MachineConfig(Record):
    __slots__ = ("code", "stack")
    code: Term
    stack: Stack


def _config(code: Term, env, stack) -> MachineConfig:
    return MachineConfig(unload(code, env), _observe(stack))


def _frame(kind, p, penv, q, qenv) -> ExtTerm:
    """A frame of `evaluation.top_frame` as the marker it is."""
    if kind == APP:
        return Plain(unload(p, penv))
    if kind == LET:  # x and y stay free in the body
        body = unload(Lam(p.x, Lam(p.y, p.body)), penv).body.body
        return LetK(p.x, p.y, body)
    parts = [unload(k, penv) for k in children(p)[1:]]
    if kind == REC:
        return RecK(*parts)
    if kind == HEAD:
        return RecK2(unload(q, qenv), *parts)
    return (IterK if kind == ITER else MinK)(*parts)


def _observe(stack) -> Stack:
    """The loop's stack as a top-first tuple of ExtTerm."""
    out = []
    while stack is not None:
        frame, stack = top_frame(stack)
        out.append(_frame(*frame))
    return tuple(out)


_PUSHES = {App: "app", LetPair: "let", Rec: "rec"}
_POPS = {APP: "abs", LET: "pair1", REC: "pair2", HEAD: "succ"}
_NEW_TOP = {"app", "let", "rec", "pair2", "succ"}


def _follow(seen: Stack, stack, cls, kind) -> tuple[str, Stack]:
    """The transition a step from a cls node took, popping a kind frame
    if cls is a value's, and `seen`, the observed stack before it, made
    `stack`'s: only a new top is converted."""
    if cls in _PUSHES:
        rule = _PUSHES[cls]
    else:
        rule = "zero" if kind == HEAD and cls is Zero else _POPS[kind]
        seen = seen[1:]
    if rule in _NEW_TOP:
        seen = (_frame(*top_frame(stack)[0]),) + seen
    return rule, seen


MACHINE = (0, 1,  # see evaluation.EVALUATOR
           lambda code, env, stack: OutOfFuel(_config(code, env, stack)),
           lambda reason, code, env, stack: Stuck("no transition applies",
                                                  _config(code, env, stack)),
           False)


def _run(code: Term, fuel: Fuel, on_step=None) -> Term:
    observe = None
    if on_step is not None:
        budget, seen = fuel.remaining, ()

        def observe(remaining, code, env, stack, cls, kind):
            nonlocal seen
            rule, seen = _follow(seen, stack, cls, kind)
            on_step(budget - remaining, rule,
                    MachineConfig(unload(code, env), seen))
    return unload(*whnf(code, fuel, MACHINE, observe=observe))


def run(t: Term, fuel: int | Fuel, on_step=None) -> Outcome:
    """Drive (t, []) until no transition applies or fuel runs out.
    on_step(i, rule, config) observes each transition, for tracing."""
    require_closed(t)
    return drive(_run, t, fuel, on_step)


def machine_force_numeral(t: Term, fuel: int | Fuel) -> int | FuelExhausted | None:
    """Numeral readback: run, then keep running on the body of each S.
    Fuel is shared across the whole readback; an exhausted one reports
    the configuration where it stopped, as `run` does."""
    return read_numeral(t, fuel, lambda u, cell: whnf(u, cell, MACHINE))
