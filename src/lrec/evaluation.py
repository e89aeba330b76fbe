"""Big-step evaluation of closed terms, CBN and CBV.

Both evaluators share one derivation loop: the premises that occur in
tail position (function bodies, chosen branches, the Rec continuation)
are iterated rather than recursed, so Python stack depth tracks only
the non-tail premises (evaluating heads and scrutinees).

Fuel is one `terms.Fuel` cell for the whole derivation, ticked once
per rule instance, including the axiom that returns a value unchanged.
Constructor mismatches (applying a pair, splitting a number) are data
errors, reported as the shared `terms.Stuck` outcome; an open input is
a caller bug and faults. The entry points follow the engines' contract
(see `terms`): a budget or a cell in, the bare value or the outcome out.
"""

from __future__ import annotations

from .terms import (App, ContractViolation, Fuel, FuelExhausted, Lam, LetPair,
                    Outcome, Pair, Rec, Stuck, Suc, Term, Zero, drive,
                    is_value, read_numeral, require_closed, subst)


def _eval(t: Term, fuel: Fuel, cbv: bool, literal_let: bool) -> Term:
    while True:
        if is_value(t):
            fuel.tick()  # rule Val
            return t
        match t:
            case App(fun=f, arg=a):
                fv = _eval(f, fuel, cbv, literal_let)
                if not isinstance(fv, Lam):
                    raise Stuck("applied a non-function", fv)
                fuel.tick()  # rule App
                if cbv:
                    a = _eval(a, fuel, cbv, literal_let)
                t = subst(fv.body, fv.binder, a)
            case LetPair(scrut=s, x=x, y=y, body=b):
                sv = _eval(s, fuel, cbv, literal_let)
                if not isinstance(sv, Pair):
                    raise Stuck("split a non-pair", sv)
                fuel.tick()  # rule Let
                if literal_let:
                    t = App(App(Lam(x, Lam(y, b)), sv.left), sv.right)
                else:
                    t = subst(subst(b, x, sv.left), y, sv.right)
            case Rec(scrut=s, base=u, step=v, update=w):
                sv = _eval(s, fuel, cbv, literal_let)
                if not isinstance(sv, Pair):
                    raise Stuck("recursed on a non-pair", sv)
                head = _eval(sv.left, fuel, cbv, literal_let)
                if isinstance(head, Zero):
                    fuel.tick()  # rule Rec1
                    t = u
                elif isinstance(head, Suc):
                    fuel.tick()  # rule Rec2
                    t = App(v, Rec(App(w, Pair(head.body, sv.right)), u, v, w))
                else:
                    raise Stuck("recursed on a non-number", head)
            case _:
                raise ContractViolation(
                    f"cannot evaluate a {type(t).__name__} node")


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
