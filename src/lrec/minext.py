"""The minimiser calculus: linear lambda terms with a bounded iterator
and an unbounded search operator instead of the recursor.

Terms live in a separate universe (no recursor); the shared node
classes carry both, so entry points guard the constructor set once and
the rules keep it closed. Evaluation is leftmost-outermost closed
reduction; there is no dedicated big-step evaluator for this calculus.
"""

from __future__ import annotations

from .reduction import _normalize_with, step_root
from .terms import (App, ContractViolation, Fuel, FuelExhausted, Iter, Lam,
                    LetPair, Min, Pair, Rec, Suc, Term, Var, Zero, children)
from .types import LinType, infer


def check_mterm(t: Term):
    """Fault when the term uses the recursor."""
    work = [t]
    while work:
        node = work.pop()
        if isinstance(node, Rec):
            raise ContractViolation(
                "the recursor is not part of the minimiser calculus")
        work.extend(children(node))


def _mroot(t: Term) -> tuple[Term, str] | None:
    cls = type(t)
    if cls is Iter:
        n, v = t.count, t.step
        if not v.fv:
            if type(n) is Zero:
                return t.base, "IterZero"
            if type(n) is Suc:
                return App(v, Iter(n.body, t.base, v)), "IterSuc"
    elif cls is Min:
        n, u, f = t.scrut, t.counter, t.fn
        if type(n) is Zero:
            if not f.fv:
                return u, "MinZero"
        elif type(n) is Suc and not (f.fv or n.body.fv or u.fv):
            # the search continues: drop the witness body, try the next
            # counter value (which the closedness lets us use twice)
            return Min(App(f, Suc(u)), Suc(u), f), "MinSuc"
    else:
        return step_root(t)  # Beta and Let; the recursor never occurs here
    return None


def mstep_root(t: Term) -> tuple[Term, str] | None:
    check_mterm(t)
    return _mroot(t)


def normalize_m(t: Term, fuel: int | Fuel,
                on_step=None) -> Term | FuelExhausted:
    check_mterm(t)
    return _normalize_with(t, fuel, _mroot, on_step)


def mtype(t: Term, env: list) -> LinType:
    """Inference over the minimiser calculus: the shared rules plus
    Iter at (Nat, A, A -o A) -> A and Min at (Nat, Nat, Nat -o Nat) -> Nat."""
    check_mterm(t)
    return infer(t, env)


def mu_enc(fbar: Term) -> Term:
    """Unbounded minimisation of a closed Nat -o Nat function."""
    check_mterm(fbar)
    if fbar.fv:
        raise ContractViolation(f"fbar must be closed: free {sorted(fbar.fv)}")
    return Min(App(fbar, Zero()), Zero(), fbar)


# -- small iterator-built helpers (the calculus has no recursor, so the
# -- usual consume/copy tricks are rebuilt from iter)

def _erase_nat(t: Term) -> Term:
    # iter t I I collapses to the identity, consuming t
    return Iter(t, Lam("z", Var("z")), Lam("i", Var("i")))


def lin_copy() -> Term:
    step = Lam("p", LetPair(Var("p"), "a", "b",
                            Pair(Suc(Var("a")), Suc(Var("b")))))
    return Lam("n", Iter(Var("n"), Pair(Zero(), Zero()), step))


def lin_fst() -> Term:
    return Lam("p", LetPair(Var("p"), "a", "b",
                            App(_erase_nat(Var("b")), Var("a"))))


def lin_pred() -> Term:
    # iterate <a,b> -> <b, S b> from <0,0>, then take the first part
    rebuild = Lam("p", LetPair(Var("p"), "a", "b",
                               App(_erase_nat(Var("a")),
                                   LetPair(App(lin_copy(), Var("b")), "c", "d",
                                           Pair(Var("c"), Suc(Var("d")))))))
    return Lam("n", App(lin_fst(),
                        Iter(Var("n"), Pair(Zero(), Zero()), rebuild)))
