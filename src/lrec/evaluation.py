"""Big-step evaluation of closed terms, CBN and CBV, on the one
environment loop that also runs the stack machine.

The loop needs no Python recursion. The premises in tail position
(function bodies, chosen branches, the Rec continuation) are iterated;
the others (an application's operator, CBV's argument, the scrutinee
of a split or a recursor, and the number in a recursor's scrutinee)
push a frame, which their value pops. That is the evaluator
defunctionalised, and so a stack machine (Ager, Biernacki, Danvy and
Midtgaard, PPDP 2003): the machine (see `machine`) is this loop on
another engine row, the costs of a value and a push plus how a stopped
run is reported, and an untraced `reduction.normalize` runs each closed
subterm on a third, which reports a stop as the machine does. The loop
tests costs, never the engine. `top_frame` reads its stack, for the
machine's configurations.

The loop substitutes nothing. It runs a term under a linear environment
(see `terms`): where a rule substitutes, it binds a closure in a cell,
and a variable's one lookup moves the closure out and clears the cell.
Rec2 goes through `terms.recur`, which shares the cells under the step
and update it reuses. `terms.unload` rebuilds a term only where one is
seen: the value, and where a run stops.

The evaluators charge one unit of one `terms.Fuel` per rule instance:
Val when a value is reached, before a frame tests it; App once the
operator is a λ, before CBV evaluates the argument; Let once the
scrutinee is a pair; Rec1 or Rec2 once the number is 0 or S. A lookup
costs nothing. A constructor mismatch (applying a pair, splitting a
number) is the shared `terms.Stuck` outcome; an open input, or a node of
the minimiser calculus, is a caller bug and faults. An exhausted run
carries nothing, so `drive` reports the input. The entry points follow
the engines' contract (see `terms`).
"""

from __future__ import annotations

from .terms import (VALUES, App, ContractViolation, Fuel, FuelExhausted, Lam,
                    LetPair, OutOfFuel, Outcome, Pair, Rec, Stuck, Suc, Term,
                    Var, Zero, bind, drive, read_numeral, recur,
                    require_closed, take, unload)

# Frames, on a cons list of cells (kind, p, penv, rest), p under penv a
# closure: an operator under way (p: the argument), a CBV argument under
# way (p: the λ), a split's or a recursor's scrutinee under way (p: the
# node), and the number in a recursor's scrutinee under way (p: the
# recursor, on a cell holding the scrutinee's right component).
APP, ARG, LET, REC, HEAD = _KINDS = range(5)

_VALUES = frozenset(VALUES)  # a set tests a class faster than a tuple
_CLASSES = (Var, Lam, Pair, Zero, Suc, App, LetPair, Rec)


def top_frame(stack):
    """The top frame of a stack `whnf` built, as (kind, p, penv, q, qenv),
    where (q, qenv) is the right component a HEAD frame holds (None,
    None elsewhere), and the stack below it."""
    kind, p, penv, below = stack
    if kind == HEAD:
        _, q, qenv, below = below
        return (kind, p, penv, q, qenv), below
    return (kind, p, penv, None, None), below


def _stuck(reason: str | None, t: Term, env, stack):
    if reason is None:  # a node no rule evaluates
        return ContractViolation(f"cannot evaluate a {type(t).__name__} node")
    return Stuck(reason, unload(t, env))


# An engine row: the fuel a value and a push cost, then exhausted(t, env,
# stack) and stuck(reason, t, env, stack), the exception to raise at
# (t, env) over the stack before the transition. The pop of an APP, LET
# or HEAD frame costs 1, of a REC frame what a push does, of CBV's ARG
# frame nothing.
EVALUATOR = (1, 0, lambda t, env, stack: OutOfFuel(), _stuck)


def whnf(t: Term, fuel: Fuel, engine: tuple = EVALUATOR, cbv: bool = False,
         literal_let: bool = False, observe=None):
    """The value of t, a term or a closure, as a closure, charged as the
    engine row says: a pop after its frame is tested and before any cell
    is cleared. observe(remaining, t, env, stack, cls, kind), if given,
    sees each push and each rule's pop: cls is the class of the node the
    step began at and, if that is a value's, kind the frame it popped.
    The loop looks variables up and binds them as terms.take and
    terms.bind do, inline where it is hot."""
    val, push, exhausted, stuck = engine
    t, env = t if type(t) is tuple else (t, None)
    frames = kind = None
    remaining = fuel.remaining
    # names read at every step, as locals: they are faster than globals
    Var_, Lam_, Pair_, Zero_, Suc_, App_, LetPair_, Rec_ = _CLASSES
    values, (APP, ARG, LET, REC, HEAD) = _VALUES, _KINDS
    try:
        while True:
            cls = type(t)
            if cls is Var_:
                e, name = env, t.name
                while e[0] != name:
                    e = e[3]
                t, env = e[1], e[2]
                if not e[4]:
                    e[1] = e[2] = None
                continue
            if cls in values:
                if remaining < val:
                    raise exhausted(t, env, frames)
                remaining -= val  # rule Val
                if frames is None:
                    return t, env
                top = frames
                kind, p, penv, frames = top
                if kind == APP:
                    if cls is not Lam_:
                        raise stuck("applied a non-function", t, env, top)
                    if remaining < 1:
                        raise exhausted(t, env, top)
                    remaining -= 1  # rule App
                    if cbv:
                        frames = (ARG, t, env, frames)
                        t, env = p, penv
                    else:
                        if type(p) is Var_:
                            p, penv = take(p.name, penv)
                        env = [t.binder, p, penv if p.fv else None, env, False]
                        t = t.body
                elif kind == REC:
                    if cls is not Pair_:
                        raise stuck("recursed on a non-pair", t, env, top)
                    if remaining < push:
                        raise exhausted(t, env, top)
                    remaining -= push
                    frames = (HEAD, p, penv, (HEAD, t.right, env, frames))
                    t = t.left
                elif kind == HEAD:
                    if cls is not Zero_ and cls is not Suc_:
                        raise stuck("recursed on a non-number", t, env, top)
                    if remaining < 1:
                        raise exhausted(t, env, top)
                    remaining -= 1  # rule Rec1 or Rec2
                    _, q, qenv, frames = frames
                    if cls is Zero_:
                        t, env = p.base, penv
                    else:  # v applied to the next recursor
                        t, env, p, penv = recur(p, penv, t.body, env, q, qenv)
                        frames = (APP, p, penv, frames)
                elif kind == LET:
                    if cls is not Pair_:
                        raise stuck("split a non-pair", t, env, top)
                    if remaining < 1:
                        raise exhausted(t, env, top)
                    remaining -= 1  # rule Let
                    if literal_let:  # (\x. \y. body) left right
                        frames = (APP, t.left, env,
                                  (APP, t.right, env, frames))
                        t, env = Lam(p.x, Lam(p.y, p.body)), penv
                    else:
                        env = bind(p.y, t.right, env,
                                   bind(p.x, t.left, env, penv))
                        t = p.body
                else:  # ARG, a CBV argument's value: no rule
                    env = [p.binder, t, env if t.fv else None, penv, False]
                    t = p.body
                    continue
            elif cls is App_:
                if push:
                    if remaining < push:
                        raise exhausted(t, env, frames)
                    remaining -= push
                frames, t = (APP, t.arg, env, frames), t.fun
            elif cls is LetPair_ or cls is Rec_:
                if push:
                    if remaining < push:
                        raise exhausted(t, env, frames)
                    remaining -= push
                frames = (LET if cls is LetPair_ else REC, t, env, frames)
                t = t.scrut
            else:
                raise stuck(None, t, env, frames)
            if observe is not None:
                observe(remaining, t, env, frames, cls, kind)
    finally:
        fuel.remaining = remaining


def _eval(t: Term, fuel: Fuel, cbv: bool, literal_let: bool) -> Term:
    return unload(*whnf(t, fuel, EVALUATOR, cbv, literal_let))


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
    return read_numeral(t, fuel, lambda u, cell: whnf(u, cell, EVALUATOR,
                                                      cbv, literal_let))
