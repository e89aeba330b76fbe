"""Programs the recursor can express: iteration, projections, copying,
arithmetic, minimisation, type-directed erasure and duplication, a
fixpoint combinator, and the conditional.

Builders return fresh closed terms. A closed term may be spliced into
several positions of one result (the identity, a caller's function, a
duplicator): linearity constrains variables only, and a closed subterm
contributes none. That splicing is the calculus's sole copying
mechanism at construction time.

The type-directed builders need a fully determined type: erase_term and
maker fault on the first type variable (MetaVar) their recursion meets,
and dup, fix and cond_enc go through them, so none walks its type first.
"""

from __future__ import annotations

from .terms import (App, ContractViolation, Iter, Lam, LetPair, Pair, Rec,
                    Suc, Term, Var, Zero, _PARTS, _disjointness, namer,
                    numeral)
from .types import NAT, LinType, Lolli, Nat, Tensor


def identity() -> Term:
    return Lam("x", Var("x"))


def iter_enc(t: Term, u: Term, v: Term) -> Term:
    """Bounded iteration: rec counts the first component down while the
    identity update leaves the (unused) second component alone."""
    bad: list[tuple] = []
    _disjointness(_PARTS[Iter], (t, u, v), bad)
    if bad:
        raise ContractViolation(bad[0][0])
    return Rec(Pair(t, Zero()), u, v, identity())


def fst_enc() -> Term:
    # the discarded component fuels a vacuous recursion down to the base
    return Lam("x", LetPair(Var("x"), "a", "b",
                            Rec(Pair(Var("b"), Zero()), Var("a"),
                                identity(), identity())))


def snd_enc() -> Term:
    return Lam("x", LetPair(Var("x"), "a", "b",
                            Rec(Pair(Var("a"), Zero()), Var("b"),
                                identity(), identity())))


def copy_nat() -> Term:
    """Nat to Nat*Nat by rebuilding the number twice, one S per step."""
    step = Lam("y", LetPair(Var("y"), "a", "b",
                            Pair(Suc(Var("a")), Suc(Var("b")))))
    return Lam("x", Rec(Pair(Var("x"), Zero()), Pair(Zero(), Zero()),
                        step, identity()))


def add_enc() -> Term:
    return Lam("m", Lam("n", Rec(Pair(Var("m"), Zero()), Var("n"),
                                 Lam("x", Suc(Var("x"))), identity())))


def mult_enc() -> Term:
    return Lam("m", Lam("n", iter_enc(Var("m"), Zero(),
                                      App(add_enc(), Var("n")))))


def pred_enc(copy: Term | None = None) -> Term:
    """Iterate <t,u> -> <u,S u> from <0,0>: after n steps, <n-1, n>.
    `copy` splits u in two, copy_nat() unless given (PCF uses dup)."""
    step = Lam("x", LetPair(App(copy or copy_nat(), App(snd_enc(), Var("x"))),
                            "t", "u", Pair(Var("t"), Suc(Var("u")))))
    return Lam("n", App(fst_enc(), Rec(Pair(Var("n"), Zero()),
                                       Pair(Zero(), Zero()), step,
                                       identity())))


def iszero_enc(copy: Term | None = None) -> Term:
    """Iterate <t,u> -> <u,u> from <0, S 0>: stays <1,1> after one step.
    `copy` splits u in two, copy_nat() unless given (PCF uses dup)."""
    step = Lam("x", App(copy or copy_nat(), App(snd_enc(), Var("x"))))
    return Lam("n", App(fst_enc(), Rec(Pair(Var("n"), Zero()),
                                       Pair(Zero(), numeral(1)), step,
                                       identity())))


def min_enc(fbar: Term) -> Term:
    """The least k with fbar(k) = 0, by driving rec's scrutinee through
    <fbar(k), k> while the step counts the answer up."""
    if fbar.fv:
        raise ContractViolation(f"fbar must be closed: free {sorted(fbar.fv)}")
    update = Lam("x", LetPair(App(copy_nat(), App(snd_enc(), Var("x"))),
                              "y", "z",
                              Pair(App(fbar, Suc(Var("y"))), Suc(Var("z")))))
    return Rec(Pair(App(fbar, Zero()), Zero()), Zero(),
               Lam("k", Suc(Var("k"))), update)


_UNDETERMINED = "erasure and makers need a fully determined type"


def erase_term(t: Term, a: LinType) -> Term:
    """A term that consumes t (at type a) and reduces to the identity.
    Faults on the first type variable it reaches in a."""
    match a:
        case Nat():
            return Rec(Pair(t, Zero()), identity(), identity(), identity())
        case Tensor(left=l, right=r):
            pick = namer(set(t.fv), "")
            x, y = pick("z"), pick("w")
            return LetPair(t, x, y,
                           App(erase_term(Var(x), l), erase_term(Var(y), r)))
        case Lolli(dom=d, cod=c):
            return erase_term(App(t, maker(d)), c)
    raise ContractViolation(_UNDETERMINED)


def maker(a: LinType) -> Term:
    """A canonical closed inhabitant of a. Faults on the first type
    variable it reaches in a."""
    match a:
        case Nat():
            return Zero()
        case Tensor(left=l, right=r):
            return Pair(maker(l), maker(r))
        case Lolli(dom=d, cod=c):
            return Lam("x", App(erase_term(Var("x"), d), maker(c)))
    raise ContractViolation(_UNDETERMINED)


def dup(a: LinType) -> Term:
    """a to a*a: two rec steps, the first pairing the input with a
    canonical inhabitant, the second erasing that inhabitant against a
    second copy... seen from the outside, D t reduces to <t,t>. Its
    erase_term and maker calls fault on a type variable in a."""
    step = Lam("y", LetPair(Var("y"), "z", "w",
                            App(erase_term(Var("z"), a),
                                Pair(Var("w"), Var("x")))))
    return Lam("x", Rec(Pair(numeral(2), Zero()), Pair(maker(a), maker(a)),
                        step, identity()))


def fix(a: LinType) -> Term:
    """Y at result type a: one pending rec step that the update
    immediately restores, so each unfolding re-arms the next. Its maker
    call faults on a type variable in a."""
    update = Lam("x", LetPair(Var("x"), "y", "z",
                              Pair(Suc(Var("y")), Var("z"))))
    return Lam("f", Rec(Pair(numeral(1), Zero()), maker(a), Var("f"), update))


def factorial_enc() -> Term:
    # accumulate <k+1, k!>, copying the counter to use it twice
    step = Lam("x", LetPair(Var("x"), "t", "u",
                            LetPair(App(dup(NAT), Var("t")), "t1", "t2",
                                    Pair(Suc(Var("t1")),
                                         App(App(mult_enc(), Var("u")),
                                             Var("t2"))))))
    return Lam("n", App(snd_enc(), Rec(Pair(Var("n"), Zero()),
                                       Pair(numeral(1), numeral(1)), step,
                                       identity())))


def cond_enc(a: LinType) -> Term:
    """if t = 0 then u else v, at branch type a. The taken branch's rec
    discards the pending recursion by erasing it. Its erase_term call
    faults on a type variable in a."""
    discard = Lam("x", App(Rec(Pair(Zero(), Zero()), identity(),
                               erase_term(Var("x"), a), identity()),
                           Var("v")))
    return Lam("t", Lam("u", Lam("v", Rec(Pair(Var("t"), Zero()), Var("u"),
                                          discard, identity()))))


def delta() -> Term:
    """Applies its argument to itself twice over; self-application loops."""
    inner = Lam("a", Lam("b", App(Var("a"), Var("b"))))
    return Lam("x", iter_enc(numeral(2), inner,
                             Lam("y", App(Var("y"), Var("x")))))


_PLAIN = {
    "I": identity,
    "fst": fst_enc,
    "snd": snd_enc,
    "copy": copy_nat,
    "add": add_enc,
    "mult": mult_enc,
    "pred": pred_enc,
    "iszero": iszero_enc,
    "factorial": factorial_enc,
    "delta": delta,
}

_TYPED = {
    "Y": fix,
    "dup": dup,
    "cond": cond_enc,
    "maker": maker,
}


def catalog_names() -> list[str]:
    return sorted(_PLAIN) + sorted(f"{n}[T]" for n in _TYPED)


def catalog_misuse(name: str, typed: bool) -> str | None:
    """Why a reference with a type argument (typed) or without one found
    no entry, when one has its name: the entry "needs" a type argument,
    or "takes no" type argument. None when no entry has the name."""
    if typed:
        return "takes no" if name in _PLAIN else None
    return "needs" if name in _TYPED else None


def catalog_lookup(name: str, a: LinType | None = None) -> Term | None:
    """Resolve a catalog reference; type-indexed entries need a."""
    if a is None:
        builder = _PLAIN.get(name)
        return builder() if builder else None
    builder = _TYPED.get(name)
    return builder(a) if builder else None
