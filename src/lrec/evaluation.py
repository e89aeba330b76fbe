"""Big-step evaluation of closed terms, CBN and CBV, on environments.

Both evaluators share one derivation loop, which needs no Python
recursion. The premises in tail position (function bodies, chosen
branches, the Rec continuation) are iterated; the others (an
application's operator, CBV's argument, the scrutinee of a split or a
recursor, and the number in a recursor's scrutinee) push a frame on an
explicit stack, which their value pops. This is the evaluator
defunctionalised (Ager, Biernacki, Danvy and Midtgaard, "A functional
correspondence between evaluators and abstract machines", PPDP 2003),
so derivation depth is bounded by memory, not by the interpreter stack.

The loop substitutes nothing. It evaluates a term under a linear
environment (see `terms`): where a rule substitutes (App's argument,
CBV's value, Let's two components), it binds a closure in a cell, and a
variable's one lookup moves the closure out and clears the cell. Rec2
goes through `terms.recur`, which marks the cells under the step and
update shared, since the recursor uses them again. Terms are rebuilt by
`terms.unload` only where they are seen: the value returned and a
Stuck's `at`. Numeral readback keeps the body of each S as a closure;
an exhausted one reports its input term, as `eval_report` does.

Fuel is one `terms.Fuel` budget for the whole derivation, one unit per
rule instance: Val when a value is reached, including one that a frame
then consumes; App once the operator is a λ, before CBV evaluates the
argument; Let once the scrutinee is a pair; Rec1 or Rec2 once the
number is 0 or S. A lookup is not a rule and costs nothing. The loop
counts in a local and leaves the rest in the cell when it returns or
raises. Constructor mismatches (applying a pair, splitting a number)
are data errors, reported as the shared `terms.Stuck` outcome; an open
input is a caller bug and faults. The entry points follow the engines'
contract (see `terms`): a budget or a cell in, the bare value or the
outcome out.
"""

from __future__ import annotations

from .terms import (VALUES, App, ContractViolation, Fuel, FuelExhausted, Lam,
                    LetPair, OutOfFuel, Outcome, Pair, Rec, Stuck, Suc, Term,
                    Var, Zero, bind, drive, read_numeral, recur,
                    require_closed, take, unload)


# Frames of the premises that are not in tail position, on a cons list
# of cells (kind, p, penv, rest), where p under penv is a closure: an
# application's operator under way (p: the argument), a CBV argument
# under way (p: the operator's value), a split or a recursor's
# scrutinee under way (p: the node), and the number in a recursor's
# scrutinee under way (p: the recursor, on a cell that holds the
# scrutinee's right component).
_APP, _ARG, _LET, _REC, _HEAD = range(5)

_VALUES = frozenset(VALUES)  # a set tests a class faster than a tuple


def _whnf(t: Term, fuel: Fuel, cbv: bool, literal_let: bool):
    """The value of t, a term or a closure, as a closure. The loop looks
    variables up and binds them as terms.take and terms.bind do, inline
    where it is hot."""
    t, env = t if type(t) is tuple else (t, None)
    frames = None
    remaining = fuel.remaining
    try:
        while True:
            cls = type(t)
            if cls is Var:
                e, name = env, t.name
                while e[0] != name:
                    e = e[3]
                t, env = e[1], e[2]
                if not e[4]:
                    e[1] = e[2] = None
            elif cls in _VALUES:
                if remaining == 0:
                    raise OutOfFuel()
                remaining -= 1  # rule Val
                if frames is None:
                    return t, env
                kind, p, penv, frames = frames
                if kind == _APP:
                    if cls is not Lam:
                        raise Stuck("applied a non-function", unload(t, env))
                    if remaining == 0:
                        raise OutOfFuel()
                    remaining -= 1  # rule App
                    if cbv:
                        frames = (_ARG, t, env, frames)
                        t, env = p, penv
                    else:
                        if type(p) is Var:
                            p, penv = take(p.name, penv)
                        env = [t.binder, p, penv if p.fv else None, env, False]
                        t = t.body
                elif kind == _ARG:
                    env = [p.binder, t, env if t.fv else None, penv, False]
                    t = p.body
                elif kind == _LET:
                    if cls is not Pair:
                        raise Stuck("split a non-pair", unload(t, env))
                    if remaining == 0:
                        raise OutOfFuel()
                    remaining -= 1  # rule Let
                    if literal_let:  # (\x. \y. body) left right
                        frames = (_APP, t.left, env,
                                  (_APP, t.right, env, frames))
                        t, env = Lam(p.x, Lam(p.y, p.body)), penv
                    else:
                        env = bind(p.y, t.right, env,
                                   bind(p.x, t.left, env, penv))
                        t = p.body
                elif kind == _REC:
                    if cls is not Pair:
                        raise Stuck("recursed on a non-pair", unload(t, env))
                    frames = (_HEAD, p, penv, (_HEAD, t.right, env, frames))
                    t = t.left
                else:
                    _, q, qenv, frames = frames
                    if cls is not Zero and cls is not Suc:
                        raise Stuck("recursed on a non-number", unload(t, env))
                    if remaining == 0:
                        raise OutOfFuel()
                    remaining -= 1  # rule Rec1 or Rec2
                    if cls is Zero:
                        t, env = p.base, penv
                    else:  # v applied to the next recursor
                        t, env, p, penv = recur(p, penv, t.body, env, q, qenv)
                        frames = (_APP, p, penv, frames)
            elif cls is App:
                frames = (_APP, t.arg, env, frames)
                t = t.fun
            elif cls is LetPair:
                frames = (_LET, t, env, frames)
                t = t.scrut
            elif cls is Rec:
                frames = (_REC, t, env, frames)
                t = t.scrut
            else:
                raise ContractViolation(
                    f"cannot evaluate a {cls.__name__} node")
    finally:
        fuel.remaining = remaining


def _eval(t: Term, fuel: Fuel, cbv: bool, literal_let: bool) -> Term:
    return unload(*_whnf(t, fuel, cbv, literal_let))


def eval_report(t: Term, fuel: int | Fuel, cbv: bool = False,
                literal_let: bool = False) -> Outcome:
    """The value of t, or where it ran out of fuel or got stuck. Given a
    Fuel cell, the cell is left holding what remains."""
    require_closed(t)
    return drive(_eval, t, fuel, cbv, literal_let)


def eval_cbn(t: Term, fuel: int | Fuel, literal_let: bool = False) -> Outcome:
    """Call by name: App binds the unevaluated argument."""
    return eval_report(t, fuel, False, literal_let)


def eval_cbv(t: Term, fuel: int | Fuel, literal_let: bool = False) -> Outcome:
    """Call by value: App evaluates the argument before binding it.
    Everything else, including Rec, is unchanged from CBN."""
    return eval_report(t, fuel, True, literal_let)


def force_numeral(t: Term, fuel: int | Fuel, cbv: bool = False,
                  literal_let: bool = False) -> int | FuelExhausted | None:
    """Evaluate hereditarily under S until 0: the numeral denoted by t.
    None when some whnf along the way is not a number; FuelExhausted at t.
    cbv and literal_let choose the evaluator as for `eval_report`."""
    return read_numeral(t, fuel,
                        lambda u, cell: _whnf(u, cell, cbv, literal_let))
