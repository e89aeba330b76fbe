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
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (App, Fuel, FuelExhausted, Lam, LetPair, OutOfFuel,
                    Outcome, Pair, Rec, Stuck, Suc, Term, Zero, drive,
                    is_value, read_numeral, require_closed, subst)


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


def _step(code: Term, stack: Stack) -> tuple[Term, Stack, str] | None:
    match code:
        case App(fun=f, arg=a):
            return f, (Plain(a),) + stack, "app"
        case Lam(binder=x, body=b) if stack and isinstance(stack[0], Plain):
            return subst(b, x, stack[0].term), stack[1:], "abs"
        case LetPair(scrut=s, x=x, y=y, body=b):
            return s, (LetK(x, y, b),) + stack, "let"
        case Pair(left=l, right=r) if stack and isinstance(stack[0], LetK):
            k = stack[0]
            return subst(subst(k.body, k.x, l), k.y, r), stack[1:], "pair1"
        case Rec(scrut=s, base=u, step=v, update=w):
            return s, (RecK(u, v, w),) + stack, "rec"
        case Pair(left=l, right=r) if stack and isinstance(stack[0], RecK):
            k = stack[0]
            return l, (RecK2(r, k.base, k.step, k.update),) + stack[1:], "pair2"
        case Zero() if stack and isinstance(stack[0], RecK2):
            return stack[0].base, stack[1:], "zero"
        case Suc(body=n) if stack and isinstance(stack[0], RecK2):
            k = stack[0]
            pending = Rec(App(k.update, Pair(n, k.second)), k.base, k.step, k.update)
            return k.step, (Plain(pending),) + stack[1:], "succ"
    return None


def _run(code: Term, fuel: Fuel, on_step=None) -> Term:
    """Drive (code, []) until it halts on a value with an empty stack.
    Raises Stuck or OutOfFuel, both carrying the configuration reached.
    The hot loop counts in a local and settles with the cell on exit."""
    stack: Stack = ()
    budget = remaining = fuel.remaining
    try:
        while True:
            got = _step(code, stack)
            if got is None:
                if is_value(code) and not stack:
                    return code
                raise Stuck("no transition applies", MachineConfig(code, stack))
            if remaining == 0:
                raise OutOfFuel(MachineConfig(code, stack))
            remaining -= 1
            code, stack, rule = got
            if on_step is not None:
                on_step(budget - remaining, rule, MachineConfig(code, stack))
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
