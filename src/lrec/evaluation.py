"""Big-step evaluation of closed terms, CBN and CBV.

Both evaluators share one derivation loop, which needs no Python
recursion. The premises in tail position (function bodies, chosen
branches, the Rec continuation) are iterated; the others (an
application's operator, CBV's argument, the scrutinee of a split or a
recursor, and the number in a recursor's scrutinee) push a frame on an
explicit stack, which their value pops. This is the evaluator
defunctionalised (Ager, Biernacki, Danvy and Midtgaard, "A functional
correspondence between evaluators and abstract machines", PPDP 2003),
so derivation depth is bounded by memory, not by the interpreter stack.

Fuel is one `terms.Fuel` budget for the whole derivation, one unit per
rule instance: Val when a value is reached, including one that a frame
then consumes; App once the operator is a λ, before CBV evaluates the
argument; Let once the scrutinee is a pair; Rec1 or Rec2 once the
number is 0 or S. The loop counts in a local and leaves the rest in the
cell when it returns or raises. Constructor mismatches (applying a
pair, splitting a number) are data errors, reported as the shared
`terms.Stuck` outcome; an open input is a caller bug and faults. The
entry points follow the engines' contract (see `terms`): a budget or a
cell in, the bare value or the outcome out.
"""

from __future__ import annotations

from .terms import (VALUES, App, ContractViolation, Fuel, FuelExhausted, Lam,
                    LetPair, OutOfFuel, Outcome, Pair, Rec, Stuck, Suc, Term,
                    Zero, drive, read_numeral, require_closed, subst)


# Frames of the premises that are not in tail position, on a cons list
# of cells (kind, p, q, rest): an application's operator under way
# (p: the argument), a CBV argument under way (p: the operator's value),
# a split or a recursor's scrutinee under way (p: the node), and the
# number in a recursor's scrutinee under way (p: the recursor, q: the
# scrutinee's right component).
_APP, _ARG, _LET, _REC, _HEAD = range(5)


def _eval(t: Term, fuel: Fuel, cbv: bool, literal_let: bool) -> Term:
    frames = None
    remaining = fuel.remaining
    try:
        while True:
            cls = type(t)
            if cls in VALUES:
                if remaining == 0:
                    raise OutOfFuel()
                remaining -= 1  # rule Val
                if frames is None:
                    return t
                kind, p, q, frames = frames
                if kind == _APP:
                    if cls is not Lam:
                        raise Stuck("applied a non-function", t)
                    if remaining == 0:
                        raise OutOfFuel()
                    remaining -= 1  # rule App
                    if cbv:
                        frames = (_ARG, t, None, frames)
                        t = p
                    else:
                        t = subst(t.body, t.binder, p)
                elif kind == _ARG:
                    t = subst(p.body, p.binder, t)
                elif kind == _LET:
                    if cls is not Pair:
                        raise Stuck("split a non-pair", t)
                    if remaining == 0:
                        raise OutOfFuel()
                    remaining -= 1  # rule Let
                    if literal_let:
                        t = App(App(Lam(p.x, Lam(p.y, p.body)), t.left),
                                t.right)
                    else:
                        t = subst(subst(p.body, p.x, t.left), p.y, t.right)
                elif kind == _REC:
                    if cls is not Pair:
                        raise Stuck("recursed on a non-pair", t)
                    frames = (_HEAD, p, t.right, frames)
                    t = t.left
                else:
                    if cls is not Zero and cls is not Suc:
                        raise Stuck("recursed on a non-number", t)
                    if remaining == 0:
                        raise OutOfFuel()
                    remaining -= 1  # rule Rec1 or Rec2
                    if cls is Zero:
                        t = p.base
                    else:
                        t = App(p.step, Rec(App(p.update, Pair(t.body, q)),
                                            p.base, p.step, p.update))
            elif cls is App:
                frames = (_APP, t.arg, None, frames)
                t = t.fun
            elif cls is LetPair:
                frames = (_LET, t, None, frames)
                t = t.scrut
            elif cls is Rec:
                frames = (_REC, t, None, frames)
                t = t.scrut
            else:
                raise ContractViolation(
                    f"cannot evaluate a {cls.__name__} node")
    finally:
        fuel.remaining = remaining


def eval_report(t: Term, fuel: int | Fuel, cbv: bool = False,
                literal_let: bool = False) -> Outcome:
    """The value of t, or where it ran out of fuel or got stuck. Given a
    Fuel cell, the cell is left holding what remains."""
    require_closed(t)
    return drive(_eval, t, fuel, cbv, literal_let)


def eval_cbn(t: Term, fuel: int | Fuel, literal_let: bool = False) -> Outcome:
    """Call by name: App substitutes the unevaluated argument."""
    return eval_report(t, fuel, False, literal_let)


def eval_cbv(t: Term, fuel: int | Fuel, literal_let: bool = False) -> Outcome:
    """Call by value: App evaluates the argument before substituting.
    Everything else, including Rec, is unchanged from CBN."""
    return eval_report(t, fuel, True, literal_let)


def force_numeral(t: Term, fuel: int | Fuel,
                  cbv: bool = False) -> int | FuelExhausted | None:
    """Evaluate hereditarily under S until 0: the numeral denoted by t.
    None when some whnf along the way is not a number."""
    return read_numeral(t, fuel, lambda u, cell: _eval(u, cell, cbv, False))
