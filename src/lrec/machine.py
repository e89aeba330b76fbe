"""A stack machine on linear environments.

A configuration is the current code plus a stack whose entries are
either pending arguments or one of three markers: a pending pair split,
a recursor waiting for its scrutinee pair, and a recursor that has the
second component in hand and is waiting for the first to become a
number. The code and every entry are closures, a term under the
environment that binds its free variables (see `terms`).

Nothing is substituted: (abs) and (pair1) bind closures in cells, and a
variable's one lookup, which is not a transition, moves its closure out
and clears the cell. (succ) builds the next recursor with `terms.recur`,
which shares the cells under the step and update it reuses. One fuel
unit per transition. The outcomes, the fuel cell, the engine contract
(`terms.drive`) and numeral readback are the shared ones, so an
exhausted readback reports the configuration where it stopped.

The running stack is a cons list, so a push or a pop costs the same at
any depth, and `_machine` picks each transition by the type of the code
and of the top cell. The observable form of a configuration,
`MachineConfig`, whose code and top-first tuple of markers hold terms
rebuilt by `terms.unload`, is made only when someone looks: for an
`on_step` observer, and for the configuration a `Stuck` or an exhausted
run stops at.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (VALUES, App, Fuel, FuelExhausted, Lam, LetPair, OutOfFuel,
                    Outcome, Pair, Rec, Stuck, Suc, Term, Var, Zero, bind,
                    drive, read_numeral, recur, require_closed, take, unload)


class ExtTerm:
    __slots__ = ()


@dataclass(frozen=True)
class Plain(ExtTerm):
    term: Term


@dataclass(frozen=True)
class LetK(ExtTerm):
    x: str
    y: str
    body: Term


@dataclass(frozen=True)
class RecK(ExtTerm):
    base: Term
    step: Term
    update: Term


@dataclass(frozen=True)
class RecK2(ExtTerm):
    second: Term
    base: Term
    step: Term
    update: Term


Stack = tuple  # of ExtTerm, top first


@dataclass(frozen=True)
class MachineConfig:
    code: Term
    stack: Stack


# The running stack is a cons list of cells (frame, p, penv, q, qenv,
# rest), None when empty. `frame` is the ExtTerm class the cell stands
# for and p, q are closures, a term and its environment: Plain's term;
# the LetPair or Rec node whose parts LetK and RecK hold; for RecK2 the
# Rec node and the second component.
_BOTTOM = (None,) * 6  # what an empty stack's top reads as


def _config(code: Term, env, stack) -> MachineConfig:
    return MachineConfig(unload(code, env), _observe(stack))


def _frame(cell) -> ExtTerm:
    frame, p, penv, q, qenv, _ = cell
    if frame is Plain:
        return Plain(unload(p, penv))
    if frame is LetK:  # x and y stay free in the body
        body = unload(Lam(p.x, Lam(p.y, p.body)), penv).body.body
        return LetK(p.x, p.y, body)
    parts = (unload(p.base, penv), unload(p.step, penv),
             unload(p.update, penv))
    if frame is RecK:
        return RecK(*parts)
    return RecK2(unload(q, qenv), *parts)


def _observe(stack) -> Stack:
    """The cons stack as a top-first tuple of ExtTerm."""
    out = []
    while stack is not None:
        out.append(_frame(stack))
        stack = stack[5]
    return tuple(out)


def _follow(seen: Stack, old, new) -> Stack:
    """`seen`, the observed form of cons stack `old`, after a transition
    to `new`: every transition pushes a cell, pops one or replaces the
    top, so only the top is converted."""
    if new is not None and new[5] is old:
        return (_frame(new),) + seen
    if old is not None and new is old[5]:
        return seen[1:]
    return (_frame(new),) + seen[1:]


def _machine(code: Term, fuel: Fuel, on_step=None):
    """Drive (code, []), code a term or a closure, until it halts on a
    value with an empty stack; return that closure. Raises Stuck or
    OutOfFuel, both carrying the configuration reached. The hot loop
    counts in a local and settles with the cell on exit; it looks
    variables up and binds them as terms.take and terms.bind do."""
    code, env = code if type(code) is tuple else (code, None)
    stack, seen = None, ()
    budget = remaining = fuel.remaining
    try:
        while True:
            cls = type(code)
            if cls is Var:  # a lookup, not a transition
                e, name = env, code.name
                while e[0] != name:
                    e = e[3]
                code, env = e[1], e[2]
                if not e[4]:
                    e[1] = e[2] = None
                continue
            if stack is None and cls in VALUES:
                return code, env
            if remaining == 0:  # seen before a transition's side effects
                at = _config(code, env, stack)
            nenv = env
            if cls is App:
                nxt, rule = code.fun, "app"
                rest = (Plain, code.arg, env, None, None, stack)
            elif cls is LetPair:
                nxt, rule = code.scrut, "let"
                rest = (LetK, code, env, None, None, stack)
            elif cls is Rec:
                nxt, rule = code.scrut, "rec"
                rest = (RecK, code, env, None, None, stack)
            else:
                frame, p, penv, q, qenv, rest = stack or _BOTTOM
                if cls is Lam and frame is Plain:
                    if type(p) is Var:
                        p, penv = take(p.name, penv)
                    nxt, rule = code.body, "abs"
                    nenv = [code.binder, p, penv if p.fv else None, env, False]
                elif cls is Pair and frame is LetK:
                    nxt, rule = p.body, "pair1"
                    nenv = bind(p.y, code.right, env,
                                bind(p.x, code.left, env, penv))
                elif cls is Pair and frame is RecK:
                    nxt, rule = code.left, "pair2"
                    rest = (RecK2, p, penv, code.right, env, rest)
                elif cls is Zero and frame is RecK2:
                    nxt, nenv, rule = p.base, penv, "zero"
                elif cls is Suc and frame is RecK2:
                    nxt, nenv, pending, penv = recur(p, penv, code.body, env,
                                                     q, qenv)
                    rule = "succ"
                    rest = (Plain, pending, penv, None, None, rest)
                else:
                    raise Stuck("no transition applies",
                                _config(code, env, stack))
            if remaining == 0:
                raise OutOfFuel(at)
            remaining -= 1
            if on_step is not None:
                seen = _follow(seen, stack, rest)
                on_step(budget - remaining, rule,
                        MachineConfig(unload(nxt, nenv), seen))
            code, env, stack = nxt, nenv, rest
    finally:
        fuel.remaining = remaining


def _run(code: Term, fuel: Fuel, on_step=None) -> Term:
    return unload(*_machine(code, fuel, on_step))


def run(t: Term, fuel: int | Fuel, on_step=None) -> Outcome:
    """Drive (t, []) until no transition applies or fuel runs out.
    on_step(i, rule, config) observes each transition, for tracing."""
    require_closed(t)
    return drive(_run, t, fuel, on_step)


def machine_force_numeral(t: Term, fuel: int | Fuel) -> int | FuelExhausted | None:
    """Numeral readback: run, then keep running on the body of each S.
    Fuel is shared across the whole readback; an exhausted one reports
    the configuration where it stopped, as `run` does."""
    return read_numeral(t, fuel, _machine)
