"""An environment-free stack machine.

A configuration is the current code plus a stack whose entries are
either plain terms (pending arguments) or one of three markers: a
pending pair split, a recursor waiting for its scrutinee pair, and a
recursor that has the second component in hand and is waiting for the
first to become a number.

Closedness does the work an environment usually does: every term that
reaches the stack is closed (a pending split body is closed up to its
two pattern variables), so (abs) and (pair1) can substitute directly.
One fuel unit per transition. The outcomes, the fuel cell, the engine
contract (`terms.drive`) and numeral readback are the shared ones.

The running stack is a cons list, so a push or a pop costs the same at
any depth, and `_run` picks each transition by the type of the code and
of the top cell, in one table. The observable form of a configuration,
`MachineConfig`, whose stack is a top-first tuple of markers, is built
only when someone looks: for an `on_step` observer, and for the
configuration a `Stuck` or an exhausted run stops at.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (VALUES, App, Fuel, FuelExhausted, Lam, LetPair,
                    OutOfFuel, Outcome, Pair, Rec, Stuck, Suc, Term, Zero,
                    drive, read_numeral, require_closed, subst)


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


# The running stack is a cons list of cells (frame, p, q, rest), None
# when empty. `frame` is the ExtTerm class the cell stands for and p, q
# hold its parts: Plain's term; the LetPair or Rec node whose parts
# LetK and RecK hold; for RecK2 the Rec node and the second component.
_BOTTOM = (None, None, None, None)  # what an empty stack's top reads as


def _frame(cell) -> ExtTerm:
    frame, p, q, _ = cell
    if frame is Plain:
        return Plain(p)
    if frame is LetK:
        return LetK(p.x, p.y, p.body)
    if frame is RecK:
        return RecK(p.base, p.step, p.update)
    return RecK2(q, p.base, p.step, p.update)


def _observe(stack) -> Stack:
    """The cons stack as a top-first tuple of ExtTerm."""
    out = []
    while stack is not None:
        out.append(_frame(stack))
        stack = stack[3]
    return tuple(out)


def _follow(seen: Stack, old, new) -> Stack:
    """`seen`, the observed form of cons stack `old`, after a transition
    to `new`: every transition pushes a cell, pops one or replaces the
    top, so only the top is converted."""
    if new is not None and new[3] is old:
        return (_frame(new),) + seen
    if old is not None and new is old[3]:
        return seen[1:]
    return (_frame(new),) + seen[1:]


def _run(code: Term, fuel: Fuel, on_step=None) -> Term:
    """Drive (code, []) until it halts on a value with an empty stack.
    Raises Stuck or OutOfFuel, both carrying the configuration reached.
    The hot loop counts in a local and settles with the cell on exit."""
    stack, seen = None, ()
    budget = remaining = fuel.remaining
    try:
        while True:
            cls = type(code)
            if cls is App:
                nxt, rule = code.fun, "app"
                rest = (Plain, code.arg, None, stack)
            elif cls is LetPair:
                nxt, rule = code.scrut, "let"
                rest = (LetK, code, None, stack)
            elif cls is Rec:
                nxt, rule = code.scrut, "rec"
                rest = (RecK, code, None, stack)
            else:
                frame, p, q, rest = stack or _BOTTOM
                if cls is Lam and frame is Plain:
                    nxt, rule = subst(code.body, code.binder, p), "abs"
                elif cls is Pair and frame is LetK:
                    nxt = subst(subst(p.body, p.x, code.left), p.y, code.right)
                    rule = "pair1"
                elif cls is Pair and frame is RecK:
                    nxt, rule = code.left, "pair2"
                    rest = (RecK2, p, code.right, rest)
                elif cls is Zero and frame is RecK2:
                    nxt, rule = p.base, "zero"
                elif cls is Suc and frame is RecK2:
                    pending = Rec(App(p.update, Pair(code.body, q)),
                                  p.base, p.step, p.update)
                    nxt, rule = p.step, "succ"
                    rest = (Plain, pending, None, rest)
                elif stack is None and cls in VALUES:
                    return code
                else:
                    raise Stuck("no transition applies",
                                MachineConfig(code, _observe(stack)))
            if remaining == 0:
                raise OutOfFuel(MachineConfig(code, _observe(stack)))
            remaining -= 1
            if on_step is not None:
                seen = _follow(seen, stack, rest)
                on_step(budget - remaining, rule, MachineConfig(nxt, seen))
            code, stack = nxt, rest
    finally:
        fuel.remaining = remaining


def run(t: Term, fuel: int | Fuel, on_step=None) -> Outcome:
    """Drive (t, []) until no transition applies or fuel runs out.
    on_step(i, rule, config) observes each transition, for tracing."""
    require_closed(t)
    return drive(_run, t, fuel, on_step)


def machine_force_numeral(t: Term, fuel: int | Fuel) -> int | FuelExhausted | None:
    """Numeral readback: run, then keep running on the body of each S.
    Fuel is shared across the whole readback."""
    return read_numeral(t, fuel, _run)
