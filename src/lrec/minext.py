"""The minimiser calculus: linear lambda terms with a bounded iterator
and an unbounded search operator instead of the recursor.

Terms live in a separate universe (no recursor); the shared node
classes carry both, so this module's entry points guard the constructor
set once and the rules keep it closed. What is here is that guard
(check_mterm), the typing entry (mtype) and the encodings built from
iter and min. The rules themselves, IterZero/IterSuc and MinZero/MinSuc,
live in reduction.step_root beside Beta and Let, which pick them by the
node's class. Evaluation is leftmost-outermost closed reduction
(normalize_m); there is no dedicated big-step evaluator for this
calculus.
"""

from __future__ import annotations

from .reduction import _normalize_with
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


def normalize_m(t: Term, fuel: int | Fuel,
                on_step=None) -> Term | FuelExhausted:
    """reduction's leftmost-outermost normaliser on a guarded term, on
    the zipper alone: the environment loop has no Iter or Min rule."""
    check_mterm(t)
    return _normalize_with(t, fuel, on_step, closed=False)


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
