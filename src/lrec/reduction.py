"""Closed reduction, small step.

Every rule carries a closedness side condition, checked on the cached
free-variable sets. A redex whose side condition fails is simply not a
redex: leftmost-outermost search skips it and keeps going.

Reduction is allowed under binders, so normal forms are genuine normal
forms, not weak ones. Fuel counts root-rule applications; traversal is
free.

One root-rule function serves both calculi: the node's class decides
which rule can fire. Beta (at App) and Let (at LetPair) belong to both,
RecZero/RecSuc fire at Rec, IterZero/IterSuc and MinZero/MinSuc at Iter
and Min, so a term of either calculus meets only its own rules. The
minimiser's entry points (minext) guard that no recursor gets in.

The leftmost-outermost redex is the first one in pre-order. The
normaliser finds it with a zipper (Huet, "The Zipper", JFP 1997): a
focus and a stack of frames (parent, focused child's index, the
parent's children), so the walk is iterative and a parent is rebuilt
only when the walk leaves it with a changed child. After a contraction
the walk does not restart at the root; it resumes at the contractum,
or at most two frames above it. Closed contraction keeps the free
variables of the contracted subterm (Fernández, Mackie and Sinot,
"Closed reduction", MSCS 2005), so every ancestor keeps its free
variables, and only one constructor in the whole term changes: the
redex's, which the contractum's replaces. Every rule looks below its
root only at child 0 (App(Lam), LetPair(Pair), Rec(Pair), Iter and Min
on a numeral) or at child 0 of child 0 (Rec(Pair(0 | S _, _))), and
needs a value constructor there (λ, pair, 0 or S); anywhere else it
reads free-variable sets only. So an ancestor that was not a redex can
become one only when the contractum is a value in child 0 of it: the
parent, if that is no value, or the grandparent, if that is a recursor
and the parent a pair. The walk climbs to exactly those; other
ancestors stay non-redexes, and everything to the left of the focus
stays redex-free. A debug-mode assertion checks that each contraction
keeps the free variables. The walk keeps no state between calls and
writes none into the term.

An untraced `normalize`, and so `minext.normalize_m`, hands each closed
App, LetPair, Rec, Iter and Min node to the evaluators' environment
loop, `evaluation.whnf`, which substitutes nothing. In a closed term
every subterm on the head spine (operators, scrutinees, an iterator's
count, and the number in a recursor's pair: always child 0) is closed,
and so is every part a rule at its end needs, so the head redex's side
condition holds. It is also the first redex in pre-order: the spine's
nodes come before all others, and each node above the head redex lacks
the value its rule needs in child 0. So the leftmost-outermost steps of
a closed term, up to its weak head normal form, are call by name's App,
Let, Rec1 and Rec2, and the minimiser calculus's IterZero, IterSuc,
MinZero and MinSuc, in that order. The loop runs them on its own engine
row, which charges only those rules, one unit each, so fuel and step
counts are the zipper's; no other row runs an Iter or Min node. The
handoff:

- The zipper enters such a node, or a part of a value the loop
  returned that is no value, and the loop runs it to a value. Where
  that value can make a redex above it, it is rebuilt as a term and the
  walk climbs as after a contraction. Elsewhere the walk goes on into
  it: a pair's or S's parts stay closures, entered in turn (a numeral
  is built once, as `terms.read_numeral` reads one), and a λ is
  rebuilt, since its body is open.
- The loop reports a stop as the machine does, with its configuration
  (`machine.MachineConfig`): the code, and the markers of its stack,
  which stand for the nodes above the code (`IterK` and `MinK` for the
  iterators and minimisers only this row pushes). Exhausted fuel stops
  the loop before the rule it cannot pay for, and the normaliser
  reports the whole term there, as the zipper would.
- Where the loop has no rule (it applies a pair, splits a number, or
  recurses, iterates or minimises on something that is not a number),
  the code it stopped at and the nodes above it become the zipper's
  focus and frames. That node is a value, which the zipper does not
  hand to the loop, so the zipper walks on from it and hands on the
  closed subterms it meets.

A traced run (one with `on_step`) keeps to the zipper: a traced step
builds the whole term anyway, so the loop saves nothing there.
"""

from __future__ import annotations

from collections.abc import Callable

from .evaluation import whnf
from .machine import (MACHINE, IterK, LetK, MachineConfig, MinK, Plain, RecK,
                      RecK2)
from .terms import (VALUES, App, ContractViolation, Fuel, FuelExhausted,
                    Iter, Lam, LetPair, Min, OutOfFuel, Pair, Rec, Record,
                    Stuck, Suc, Term, Var, Zero, children, pretty, rebuild,
                    subst, take, unload)

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only; step_random imports it to draw
    import random


class Stepped(Record):
    __slots__ = ("next", "rule", "path")
    next: Term
    rule: str
    path: str  # dot-separated child indices, "" for the root


def step_root(t: Term) -> tuple[Term, str] | None:
    """One rule instance at the root, or None (no match, or a side
    condition fails). The root's class picks the rules: Beta and Let
    belong to both calculi, the recursor's rules to Rec, the minimiser
    calculus's to Iter and Min."""
    cls = type(t)
    if cls is App:
        f, v = t.fun, t.arg
        if type(f) is Lam and not v.fv:
            return subst(f.body, f.binder, v), "Beta"
    elif cls is LetPair:
        p = t.scrut
        if type(p) is Pair:
            a, b2 = p.left, p.right
            if not a.fv and not b2.fv:
                return subst(subst(t.body, t.x, a), t.y, b2), "Let"
    elif cls is Rec:
        p = t.scrut
        if type(p) is Pair:
            n, t2, v, w = p.left, p.right, t.step, t.update
            if type(n) is Zero:
                if not (t2.fv or v.fv or w.fv):
                    return t.base, "RecZero"
            elif type(n) is Suc and not (v.fv or w.fv):
                return (App(v, Rec(App(w, Pair(n.body, t2)), t.base, v, w)),
                        "RecSuc")
    elif cls is Iter:
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
    return None


# [node, index of the focused child, its children, changed]; a child is
# a term, or a closure (term, env) while the walk has not entered it
Frame = list


def _up(stack: list[Frame], focus: Term) -> Term:
    """Pop a frame: its node with focus in the focused child's place,
    rebuilt only when some child changed."""
    node, i, kids, changed = stack.pop()
    if kids[i] is not focus:
        kids[i] = focus
        changed = True
    return rebuild(node, kids) if changed else node


def _plug(stack: list[Frame], focus: Term) -> Term:
    """The whole term, focus in place; the frames are left as they are."""
    for node, i, kids, _ in reversed(stack):
        kids = [focus if j == i else unload(*k) if type(k) is tuple else k
                for j, k in enumerate(kids)]
        focus = rebuild(node, kids)
    return focus


def _path(stack: list[Frame]) -> str:
    return ".".join(str(frame[1]) for frame in stack)


def _climb(stack: list[Frame]) -> int:
    """How many frames up a value landing at the focus can have made a
    redex: 1 when it is child 0 of a parent that is no value, 2 when it
    is child 0 of a pair in child 0 of a recursor, else 0."""
    if stack and stack[-1][1] == 0:
        parent = type(stack[-1][0])
        if parent not in VALUES:
            return 1
        if (parent is Pair and len(stack) > 1 and stack[-2][1] == 0
                and type(stack[-2][0]) is Rec):
            return 2
    return 0


_WHNF = "whnf"  # what _seek returns with a subterm for the loop
_LOOP = frozenset((App, LetPair, Rec, Iter, Min))  # the loop's non-values


def _seek(stack: list[Frame], focus, closed: bool = False):
    """Walk on in pre-order from focus, which the frames place in the
    whole term, to the next redex: return it and its contraction. On
    reaching the end, return the whole term (the frames are used up)
    and None. With closed, stop first at a closed node of a class in
    _LOOP, or at a closure that is not a value, and return it and _WHNF;
    a closure that is a pair or S is entered part by part."""
    while True:
        if closed:
            if type(focus) is tuple:  # a closed part of a value
                t, env = focus
                while type(t) is Var:
                    t, env = take(t.name, env)
                cls = type(t)
                if t.fv and (cls is Pair or cls is Suc):
                    kids = [(k, env) for k in children(t)]
                    stack.append([t, 0, kids, True])
                    focus = kids[0]
                    continue
                if t.fv and cls is not Lam:
                    return (t, env), _WHNF
                focus = unload(t, env)
            if type(focus) in _LOOP and not focus.fv:
                return focus, _WHNF
        r = step_root(focus)
        if r is not None:
            assert r[0].fv == focus.fv, \
                f"{r[1]} changed the free variables of {pretty(focus)}"
            return focus, r
        kids = children(focus)
        if kids:
            stack.append([focus, 0, list(kids), False])
            focus = kids[0]
            continue
        # focus is finished: enter its next sibling, or finish its parent
        while stack:
            frame = stack[-1]
            _, i, kids, _ = frame
            if i + 1 == len(kids):
                focus = _up(stack, focus)
                continue
            if kids[i] is not focus:
                kids[i] = focus
                frame[3] = True
            frame[1] = i + 1
            focus = kids[i + 1]
            break
        else:
            return focus, None


def step_lo(t: Term) -> Stepped | None:
    """The leftmost-outermost step: the root first, then children in
    textual order, reducing under binders."""
    stack: list[Frame] = []
    _, r = _seek(stack, t)
    if r is None:
        return None
    return Stepped(_plug(stack, r[0]), r[1], _path(stack))


def _enclose(config: MachineConfig) -> list[Term]:
    """The markers of a stopped loop's stack around its code, as the
    nodes they stand for, innermost first: the code, then one node per
    marker, and for a RecK2 two, a pair and the recursor over it."""
    focus = config.code
    nodes = [focus]
    for marker in config.stack:
        match marker:
            case Plain(arg):
                focus = App(focus, arg)
            case LetK(x, y, body):
                focus = LetPair(focus, x, y, body)
            case RecK(u, v, w):
                focus = Rec(focus, u, v, w)
            case RecK2(q, u, v, w):
                focus = Pair(focus, q)
                nodes.append(focus)
                focus = Rec(focus, u, v, w)
            case IterK(u, v):
                focus = Iter(focus, u, v)
            case MinK(u, f):
                focus = Min(focus, u, f)
        nodes.append(focus)
    return nodes


# The engine row of a closed subterm (see evaluation.EVALUATOR): values
# and pushes are free, so the loop charges just the rules it shares with
# leftmost-outermost reduction, and a stop carries the machine's
# configuration there. It alone runs Iter and Min nodes.
NORMALIZER = (0, 0, *MACHINE[2:4], True)


OnStep = Callable[[int, str, str, Term], None]


def _normalize_with(t: Term, fuel: int | Fuel, on_step: OnStep | None,
                    closed: bool = True) -> Term | FuelExhausted:
    """Leftmost-outermost reduction on the zipper; with closed, every
    closed node of a class in _LOOP runs on the environment loop, whose
    steps on_step does not see."""
    cell = Fuel.of(fuel)
    budget = cell.remaining
    stack: list[Frame] = []
    focus = t
    try:
        while True:
            focus, r = _seek(stack, focus, closed)
            if r is None:
                return focus
            if r is _WHNF:
                try:
                    v, env = whnf(focus, cell, NORMALIZER)
                except Stuck as e:  # no rule of the loop's: walk on there
                    nodes = _enclose(e.at)
                    stack.extend([node, 0, list(children(node)), False]
                                 for node in reversed(nodes[1:]))
                    focus = nodes[0]
                    continue
                up = _climb(stack)
                focus = unload(v, env) if up else (v, env)
            else:
                cell.tick()
                focus = r[0]
                if on_step is not None:
                    on_step(budget - cell.remaining, r[1], _path(stack),
                            _plug(stack, focus))
                up = _climb(stack) if type(focus) in VALUES else 0
            for _ in range(up):
                focus = _up(stack, focus)
    except OutOfFuel as e:
        if e.args:  # the loop's, where it stopped
            focus = _enclose(e.args[0])[-1]
        return FuelExhausted(_plug(stack, focus))


def normalize(t: Term, fuel: int | Fuel,
              on_step: OnStep | None = None) -> Term | FuelExhausted:
    """Leftmost-outermost reduction to normal form, at most fuel steps.
    fuel is a budget, or a Fuel cell that is left holding what remains.
    on_step(i, rule, path, term) observes each step, for tracing; the
    path and the whole term are built only for it, and a traced run
    keeps to the zipper."""
    return _normalize_with(t, fuel, on_step, closed=on_step is None)


def enumerate_redexes(t: Term) -> list[tuple[int, ...]]:
    """Positions (as child-index paths) of every enabled redex, in
    pre-order, which is also their lexicographic order."""
    out: list[tuple[int, ...]] = []
    work: list[tuple[Term, tuple[int, ...]]] = [(t, ())]
    while work:
        node, path = work.pop()
        if step_root(node) is not None:
            out.append(path)
        kids = children(node)
        for i in range(len(kids) - 1, -1, -1):
            work.append((kids[i], path + (i,)))
    return out


def step_at(t: Term, path: tuple[int, ...]) -> tuple[Term, str]:
    """Contract the redex at path (child indices from the root)."""
    stack: list[Frame] = []
    focus = t
    for i in path:
        kids = list(children(focus))
        stack.append([focus, i, kids, False])
        focus = kids[i]
    r = step_root(focus)
    if r is None:
        raise ContractViolation("no redex at the given position")
    return _plug(stack, r[0]), r[1]


def step_random(t: Term, rng: random.Random | int) -> Stepped | None:
    """One step at a uniformly chosen enabled redex; None on normal forms."""
    if isinstance(rng, int):
        import random  # only this step draws
        rng = random.Random(rng)
    paths = enumerate_redexes(t)
    if not paths:
        return None
    path = rng.choice(paths)
    new, rule = step_at(t, path)
    return Stepped(new, rule, ".".join(map(str, path)))
