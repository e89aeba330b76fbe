"""Core term representation for the linear calculus.

Terms are immutable trees. Every node caches its free-variable set at
construction, so the closedness tests that drive closed reduction are
set lookups rather than traversals. The sets are shared: a node reuses
a child's set when that set already is the answer (its other children
are closed, or a binder does not occur), and every closed node holds
the one `EMPTY`, so a union or difference is built only when it makes
a new set. No term forms a cycle either, so reference counting frees
it and the cyclic collector finds nothing in it (see `cli.GC_GEN0`).
Every node also caches whether it is linear. Each condition of the
grammar is local to one constructor (a binder occurs in its body; the
parts of an application, pair, let or call share no free variable), so
`linear` follows at construction from the node's own test, made on its
children's sets, and their flags. A node holds nothing else besides its
fields, and no engine writes into one, so a term can be shared by any
number of calls and engines. Linearity is *checkable*, not enforced by
constructors: ill-formed terms can be built (and reported on) by
check_linear, but the parser and every engine operation only produce
terms whose flag is set. It decides on the term as written, whatever
its binder names; `freshen` renames binders only for the printed text.

The same node classes serve both calculi: Rec belongs to the recursor
calculus, Iter and Min to the minimiser calculus. Engines guard the
constructor set they accept. The engines share one contract, defined
here: an engine takes a budget or a `Fuel` cell, which it leaves holding
what remains, and returns its bare result (a term, a number, a PCF
value), a `FuelExhausted` or a `Stuck`. `drive` runs an engine's loop
that way; `read_numeral` is the one numeral readback loop. The
evaluators, the machine and the normaliser's closed subterms run on one
loop, `evaluation.whnf`, with three rows of costs: it substitutes
nothing, runs on the linear environments defined here, and `unload`
rebuilds the terms it shows.

A walk over a term gives a node class a rule of its own only where it
treats that class differently; every other class it takes through
`children` and `rebuild`. What a message calls each part of a node is in
one table, `_PARTS`, and S chains are peeled and built by one pair of
helpers, `_peel` and `_sucs`.

Every other value class of the package (types, PCF terms, machine
frames, outcomes, linearity violations) is a `Record`: a plain slotted
class whose equality, hash, repr and match arguments follow from its
field names, as a frozen dataclass's would, so importing the package
loads no `dataclasses`.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from operator import attrgetter

# Deep chains of S constructors are the only tall structures around;
# most traversals peel them iteratively, the rest need headroom.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))

EMPTY: frozenset[str] = frozenset()


class ContractViolation(Exception):
    """A caller broke a documented precondition (a bug, not bad data)."""


def require_closed(t: Term):
    if t.fv:
        raise ContractViolation(f"input is open: free {sorted(t.fv)}")


class Record:
    """A value with named fields, in place of a frozen dataclass. The
    fields are a subclass's own `__slots__`, in order, and are also its
    `__match_args__`. Records of one class are equal when their fields
    are, hash as the tuple of their fields and print as
    `Name(field=value, ...)`. This `__init__` takes the fields in order;
    a class built per node or per step writes its own."""

    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__match_args__ = cls.__dict__.get("__slots__", ())
        # _values(record): its fields as a tuple, read in C by attrgetter,
        # which returns a single field bare and needs at least one name
        if len(names) > 1:
            cls._values = staticmethod(attrgetter(*names))
        elif names:
            one = attrgetter(*names)
            cls._values = staticmethod(lambda r: (one(r),))
        else:
            cls._values = staticmethod(lambda r: ())

    def __init__(self, *values):
        if len(values) != len(self.__match_args__):
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{self.__match_args__}, got {len(values)} values")
        for name, value in zip(self.__match_args__, values):
            setattr(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in
                           zip(self.__match_args__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"


# --------------------------------------------------------------------------
# engine outcomes and fuel, shared by every engine


class FuelExhausted(Record):
    """The budget ran out; `at` is where the engine stopped: a term, or a
    machine configuration."""
    __slots__ = ("at",)
    at: object


class Stuck(Exception):
    """No rule applies and `at` (a term, or a machine configuration) is
    not a value: applying a pair, splitting a number. Raised inside an
    engine to unwind its derivation, and returned as its outcome."""

    def __init__(self, reason: str, at: object):
        super().__init__(reason)
        self.reason = reason
        self.at = at


class OutOfFuel(Exception):
    """The budget is spent: raised by Fuel.tick, or by an engine loop that
    counts locally with where it stopped as the argument. `drive` turns
    it into FuelExhausted."""


class Fuel:
    """A rule-instance budget, one per engine run."""

    __slots__ = ("remaining",)

    def __init__(self, budget: int):
        if budget < 0:
            raise ContractViolation(f"fuel must be non-negative, got {budget}")
        self.remaining = budget

    def tick(self):
        if self.remaining == 0:
            raise OutOfFuel()
        self.remaining -= 1

    @staticmethod
    def of(fuel: int | Fuel) -> Fuel:
        return fuel if isinstance(fuel, Fuel) else Fuel(fuel)


def drive(loop: Callable, t, fuel: int | Fuel, *args):
    """An engine run: loop(t, cell, *args) on one budget. Returns the
    loop's bare result, FuelExhausted where the loop stopped (the
    OutOfFuel argument, else t), or the Stuck it raised."""
    cell = Fuel.of(fuel)
    try:
        return loop(t, cell, *args)
    except OutOfFuel as e:
        return FuelExhausted(e.args[0] if e.args else t)
    except Stuck as e:
        return e.with_traceback(None)


def _join(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """a | b, reusing a or b when the other is empty."""
    return (a | b if b else a) if a else b


def _split(fv: frozenset[str], *parts: Term) -> bool:
    """Whether the parts are linear and share no free variable: their
    sets, whose union is fv, are as large together as fv."""
    n = len(fv)
    for p in parts:
        if not p.linear:
            return False
        n -= len(p.fv)
    return n == 0


class Term:
    # the only slots besides a node's fields: the cached free variables,
    # and whether the term is linear (see check_linear)
    __slots__ = ("fv", "linear")
    fv: frozenset[str]
    linear: bool

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {pretty(self)!r}>"


class Zero(Term):
    __slots__ = ()

    def __init__(self):
        self.fv = EMPTY
        self.linear = True


class Suc(Term):
    __slots__ = ("body",)

    def __init__(self, body: Term):
        self.body = body
        self.fv = body.fv
        self.linear = body.linear


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.fv = frozenset((name,))
        self.linear = True


class App(Term):
    __slots__ = ("fun", "arg")

    def __init__(self, fun: Term, arg: Term):
        self.fun = fun
        self.arg = arg
        f, a = fun.fv, arg.fv  # _join and _split, inlined: the most built node
        if f and a:
            self.fv = f | a
            self.linear = fun.linear and arg.linear and f.isdisjoint(a)
        else:
            self.fv = f or a
            self.linear = fun.linear and arg.linear


class Lam(Term):
    __slots__ = ("binder", "body")

    def __init__(self, binder: str, body: Term):
        self.binder = binder
        self.body = body
        fv = body.fv
        if binder in fv:
            self.fv = fv - {binder} or EMPTY
            self.linear = body.linear
        else:
            self.fv = fv
            self.linear = False


class Pair(Term):
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        self.left = left
        self.right = right
        l, r = left.fv, right.fv  # as in App
        if l and r:
            self.fv = l | r
            self.linear = left.linear and right.linear and l.isdisjoint(r)
        else:
            self.fv = l or r
            self.linear = left.linear and right.linear


class LetPair(Term):
    """let <x, y> = scrut in body"""

    __slots__ = ("scrut", "x", "y", "body")

    def __init__(self, scrut: Term, x: str, y: str, body: Term):
        self.scrut = scrut
        self.x = x
        self.y = y
        self.body = body
        fv = body.fv
        linear = x != y and x in fv and y in fv
        if x in fv or y in fv:
            fv = fv - {x, y} or EMPTY
        self.fv = _join(scrut.fv, fv)
        self.linear = (linear and scrut.linear and body.linear
                       and len(self.fv) == len(scrut.fv) + len(fv))


class Rec(Term):
    """rec(scrut, base, step, update), the unbounded recursor."""

    __slots__ = ("scrut", "base", "step", "update")

    def __init__(self, scrut: Term, base: Term, step: Term, update: Term):
        self.scrut = scrut
        self.base = base
        self.step = step
        self.update = update
        fv = self.fv = _join(_join(scrut.fv, base.fv),
                             _join(step.fv, update.fv))
        self.linear = _split(fv, scrut, base, step, update)


class Iter(Term):
    """iter(count, base, step), the bounded iterator (minimiser calculus)."""

    __slots__ = ("count", "base", "step")

    def __init__(self, count: Term, base: Term, step: Term):
        self.count = count
        self.base = base
        self.step = step
        fv = self.fv = _join(_join(count.fv, base.fv), step.fv)
        self.linear = _split(fv, count, base, step)


class Min(Term):
    """min(scrut, counter, fn), the minimiser (minimiser calculus)."""

    __slots__ = ("scrut", "counter", "fn")

    def __init__(self, scrut: Term, counter: Term, fn: Term):
        self.scrut = scrut
        self.counter = counter
        self.fn = fn
        fv = self.fv = _join(_join(scrut.fv, counter.fv), fn.fv)
        self.linear = _split(fv, scrut, counter, fn)


Outcome = Term | FuelExhausted | Stuck  # of an engine whose result is a term


VALUES = (Zero, Suc, Lam, Pair)  # weak head normal forms: 0, S t, λ, pair


def is_value(t: Term) -> bool:
    """Weak head normal forms: 0, S t, a lambda, or a pair."""
    return isinstance(t, VALUES)


def _no_children(t: Term) -> tuple[Term, ...]:
    return ()


# per node class, its subterms in textual order
_CHILDREN: dict[type, Callable[[Term], tuple[Term, ...]]] = {
    Zero: _no_children,
    Var: _no_children,
    Suc: lambda t: (t.body,),
    App: attrgetter("fun", "arg"),
    Lam: lambda t: (t.body,),
    Pair: attrgetter("left", "right"),
    LetPair: attrgetter("scrut", "body"),
    Rec: attrgetter("scrut", "base", "step", "update"),
    Iter: attrgetter("count", "base", "step"),
    Min: attrgetter("scrut", "counter", "fn"),
}


def children(t: Term) -> tuple[Term, ...]:
    """Subterms in textual order (the leftmost-outermost descent order)."""
    return _CHILDREN.get(type(t), _no_children)(t)


def rebuild(t: Term, kids: list[Term]) -> Term:
    """t with its children, in textual order, replaced by kids."""
    cls = type(t)
    if cls is Lam:
        return Lam(t.binder, kids[0])
    if cls is LetPair:
        return LetPair(kids[0], t.x, t.y, kids[1])
    return cls(*kids)


# --------------------------------------------------------------------------
# linearity


class Violation(Record):
    __slots__ = ("path", "constraint", "kind", "names")
    path: str  # dot-separated child indices from the root, "" for the root
    constraint: str
    kind: str  # "shared" | "unused" | "dup-pattern"
    names: frozenset[str]

    def __str__(self) -> str:
        where = self.path if self.path else "root"
        return f"at {where}: {self.constraint}"


# per node class whose parts share no free variable, what a message
# calls each part, in textual order
_PARTS: dict[type, tuple[str, ...]] = {
    App: ("operator", "operand"),
    Pair: ("left component", "right component"),
    Rec: ("scrutinee", "base", "step", "update"),
    Iter: ("count", "base", "step"),
    Min: ("scrutinee", "counter", "function"),
}


def _disjointness(labels: tuple[str, ...], parts: tuple[Term, ...],
                  bad: list[tuple]):
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            shared = parts[i].fv & parts[j].fv
            if shared:
                names = ", ".join(sorted(shared))
                bad.append((
                    f"variable(s) {names} occur in both {labels[i]} and {labels[j]}",
                    "shared", frozenset(shared)))


def check_linear(t: Term) -> list[Violation]:
    """Every constraint of the term grammar, at every subterm.

    Returns the empty list when the term is syntactically linear,
    whatever its binder names: its `linear` flag says so, and no node is
    walked. Otherwise a walk lists each violation with its path, going
    down only into the subterms that are not linear themselves.
    """
    return [] if t.linear else _violations(t)


def _violations(t: Term) -> list[Violation]:
    # pre-order from t, each node with its path; a linear child holds no
    # violation, so only the children whose flag is False are entered
    out: list[Violation] = []
    work: list[tuple[Term, str]] = [(t, "")]
    while work:
        node, path = work.pop()
        bad: list[tuple[str, str, frozenset[str]]] = []
        kids = children(node)
        match node:
            case Lam(binder=x, body=b):
                if x not in b.fv:
                    bad.append((f"binder {x} unused in the body", "unused", frozenset((x,))))
            case LetPair(scrut=s, x=x, y=y, body=b):
                if x == y:
                    bad.append((f"pattern binds {x} twice", "dup-pattern", frozenset((x,))))
                for v in (x, y):
                    if v not in b.fv:
                        bad.append((f"pattern variable {v} unused in the body",
                                    "unused", frozenset((v,))))
                shared = s.fv & (b.fv - {x, y})
                if shared:
                    names = ", ".join(sorted(shared))
                    bad.append((f"variable(s) {names} occur in both scrutinee and body",
                                "shared", frozenset(shared)))
            case _ if type(node) in _PARTS:
                _disjointness(_PARTS[type(node)], kids, bad)
        out += (Violation(path, *v) for v in bad)
        for i in range(len(kids) - 1, -1, -1):
            if not kids[i].linear:
                work.append((kids[i], f"{path}.{i}" if path else str(i)))
    return out


# --------------------------------------------------------------------------
# substitution and renaming


def subst(t: Term, x: str, s: Term) -> Term:
    """Replace the free occurrence of x in t by s.

    The payload must be closed or a variable; closed reduction never
    substitutes anything else, so an open non-variable payload is a bug
    in the caller.
    """
    if s.fv and not isinstance(s, Var):
        raise ContractViolation(
            f"substitution payload for {x} is open: free {sorted(s.fv)}")
    return _subst(t, x, s)


def _subst(t: Term, x: str, s: Term) -> Term:
    # descends only into the children that hold x: for a linear term,
    # the one path down to its single occurrence
    if x not in t.fv:
        return t
    cls = type(t)
    if cls is Var:
        return s
    if cls is App:
        f, a = t.fun, t.arg
        return App(_subst(f, x, s) if x in f.fv else f,
                   _subst(a, x, s) if x in a.fv else a)
    if cls is Lam:
        # x in t.fv implies x != the binder
        return Lam(t.binder, _subst(t.body, x, s))
    if cls is Suc:
        # peel S chains iteratively, they can be very tall
        n, inner = _peel(t)
        return _sucs(n, _subst(inner, x, s))
    if cls is Pair:
        l, r = t.left, t.right
        return Pair(_subst(l, x, s) if x in l.fv else l,
                    _subst(r, x, s) if x in r.fv else r)
    if cls is LetPair:
        sc = t.scrut
        if x in sc.fv:
            return LetPair(_subst(sc, x, s), t.x, t.y, t.body)
        return LetPair(sc, t.x, t.y, _subst(t.body, x, s))
    return rebuild(t, [_subst(k, x, s) if x in k.fv else k
                       for k in children(t)])


# --------------------------------------------------------------------------
# linear environments, for the engines that substitute nothing
#
# A closure is a pair (term, env). An environment is a chain of cells
# [name, term, env, parent, shared], None when empty, each binding name
# to a closure. A variable occurs once, so its one lookup moves the
# closure out and clears the cell. Closed reduction never needs a
# consumed binding again, so nothing is put back when fuel runs out, and
# an exhausted readback reports what `drive` does (see read_numeral).
# The cells under what a rule reuses are shared instead: read, never
# cleared. Rec2 reuses a recursor's step and update, IterSuc an
# iterator's step, and MinSuc a minimiser's counter and function.


def take(name: str, env) -> tuple[Term, object]:
    """The closure bound to name, moved out of its cell unless shared."""
    while env[0] != name:
        env = env[3]
    t, e = env[1], env[2]
    if not env[4]:
        env[1] = env[2] = None
    return t, e


def share(t: Term, env):
    """Mark the cells under the closure (t, env) shared, hereditarily."""
    work = [(t, env)]
    while work:
        t, env = work.pop()
        for name in t.fv:
            e = env
            while e[0] != name:
                e = e[3]
            if not e[4]:
                e[4] = True
                if e[1].fv:
                    work.append((e[1], e[2]))


def bind(name: str, t: Term, env, parent) -> list:
    """parent with name bound to (t, env). A variable is resolved now, so
    no cell points at another, and a closed term keeps no env."""
    if type(t) is Var:
        t, env = take(t.name, env)
    return [name, t, env if t.fv else None, parent, False]


def unload(t: Term, env=None) -> Term:
    """The term that t under env stands for, without clearing a cell.
    Closures nest as deep as a run made them, so each is unloaded from a
    stack, by one `_subst` per free variable."""
    work = [[t, env, list(t.fv)]]  # [term so far, env, names left]
    while True:
        frame = work[-1]
        t, env, names = frame
        if not names:
            work.pop()
            if not work:
                return t
            frame = work[-1]
            frame[0] = _subst(frame[0], frame[2].pop(), t)
            continue
        while env[0] != names[-1]:
            env = env[3]
        u = env[1]
        if u.fv:
            work.append([u, env[2], list(u.fv)])
        else:
            frame[0] = _subst(t, names.pop(), u)


# The recursor Rec2 builds names its base, the pair w <n, q> is applied
# to, and an open step or update by variables no source can bind, so one
# node serves every later Rec2 of the recursion. Its environment is %u,
# %n and %q on the shared cells of the open step and update.
_U, _V, _W = Var("%u"), Var("%v"), Var("%w")
_NQ = Pair(Var("%n"), Var("%q"))


def recur(rec: Rec, env, n: Term, nenv, q: Term, qenv):
    """Rule Rec2 for rec under env and the scrutinee <S n, q>: (v, venv,
    rec', env'), the step to apply to rec' = rec(w <n, q>, u, v, w). The
    step and update are reused, so when a recursor from the source first
    fires Rec2, the cells under an open one are shared."""
    if rec.base is _U:
        new, tail = rec, env[3][3][3]
    else:
        v, w, tail = rec.step, rec.update, None
        if w.fv:
            w, tail = _W, _shared("%w", w, env, tail)
        if v.fv:
            v, tail = _V, _shared("%v", v, env, tail)
        new = Rec(App(w, _NQ), _U, v, w)
    cells = bind("%n", n, nenv, bind("%q", q, qenv, tail))
    v, venv = (tail[1], tail[2]) if new.step is _V else (new.step, None)
    return v, venv, new, bind("%u", rec.base, env, cells)


# The minimiser calculus's rules reuse nodes the same way: the iterator
# IterSuc builds names its count %n, its base %u and an open step %v,
# and the minimiser MinSuc builds applies %f to the next counter, S %c.
_N, _C, _F = Var("%n"), Var("%c"), Var("%f")
_MIN = Min(App(_F, Suc(_C)), Suc(_C), _F)


def iterate(it: Iter, env, n: Term, nenv):
    """Rule IterSuc for it under env and the count S n: (v, venv, it',
    env'), the step to apply to it' = iter(n, base, v). The step is
    reused, so its cells are shared, as in `recur`. Nothing else holds
    the base's cell, so a later IterSuc keeps it as it is."""
    if it.count is _N:
        new, cells = it, env[3]
        tail = cells[3]
    else:
        v, tail = it.step, None
        if v.fv:
            v, tail = _V, _shared("%v", v, env, None)
        new, cells = Iter(_N, _U, v), bind("%u", it.base, env, tail)
    v, venv = (tail[1], tail[2]) if new.step is _V else (new.step, None)
    return v, venv, new, bind("%n", n, nenv, cells)


def minimise(m: Min, env):
    """Rule MinSuc for m under env, once its scrutinee is S of a witness,
    which it drops: (m', env') with m' = min(f (S u), S u, f). The
    counter u and the function f are each used twice, so each goes into
    a shared cell."""
    tail = env[3] if m is _MIN else _shared("%f", m.fn, env, None)
    return _MIN, _shared("%c", m.counter, env, tail)


def _shared(name: str, t: Term, env, parent) -> list:
    """parent with name bound to (t, env) on a shared cell, and the cells
    under it shared too."""
    share(t, env)
    if type(t) is Var:
        t, env = take(t.name, env)
    return [name, t, env if t.fv else None, parent, True]


# --------------------------------------------------------------------------
# alpha equivalence


def alpha_eq(t: Term, u: Term) -> bool:
    """Equality up to consistent renaming of bound variables."""
    fresh = 0
    # one scoped dict per side, bound name -> binder number; a binder's
    # body is followed on the worklist by an entry that undoes it
    ea: dict[str, int] = {}
    eb: dict[str, int] = {}
    work: list[tuple] = [(t, u)]
    pop, push = work.pop, work.append
    while work:
        a, b = pop()
        if a is None:
            for env, name, outer in b:
                restore_scope(env, name, outer)
            continue
        cls = type(a)
        if cls is not type(b):
            return False
        if cls is Var:
            na = a.name
            la, lb = ea.get(na), eb.get(b.name)
            if la is None and lb is None:
                if na != b.name:
                    return False
            elif la != lb:
                return False
        elif cls is App:
            push((a.fun, b.fun))
            push((a.arg, b.arg))
        elif cls is Lam:
            xa, xb = a.binder, b.binder
            push((None, ((ea, xa, ea.get(xa)), (eb, xb, eb.get(xb)))))
            fresh += 1
            ea[xa] = eb[xb] = fresh
            push((a.body, b.body))
        elif cls is Zero:
            continue
        elif cls is Suc:
            # walk chains in lockstep without touching the worklist
            x, y = a, b
            while type(x) is Suc and type(y) is Suc:
                x, y = x.body, y.body
            push((x, y))
        elif cls is Pair:
            push((a.left, b.left))
            push((a.right, b.right))
        elif cls is LetPair:
            push((a.scrut, b.scrut))
            # both outers are read before binding, so x == y undoes right
            push((None, ((ea, a.y, ea.get(a.y)), (eb, b.y, eb.get(b.y)),
                         (ea, a.x, ea.get(a.x)), (eb, b.x, eb.get(b.x)))))
            fresh += 2
            ea[a.x] = eb[b.x] = fresh - 1
            ea[a.y] = eb[b.y] = fresh
            push((a.body, b.body))
        elif cls in _CHILDREN:
            work += zip(children(a), children(b))
        else:
            return False
    return True


# --------------------------------------------------------------------------
# numerals and tuple sugar


def _peel(t: Term) -> tuple[int, Term]:
    """(n, inner) with t = S^n inner and inner not an S."""
    n = 0
    while type(t) is Suc:
        t = t.body
        n += 1
    return n, t


def _sucs(n: int, t: Term) -> Term:
    """S^n t."""
    for _ in range(n):
        t = Suc(t)
    return t


def numeral(n: int) -> Term:
    if n < 0:
        raise ValueError("numerals are naturals")
    return _sucs(n, Zero())


def numeral_value(t: Term) -> int | None:
    """The n with t = S^n 0, or None when t is not a numeral."""
    n, t = _peel(t)
    return n if type(t) is Zero else None


def read_numeral(t: Term, fuel: int | Fuel,
                 whnf: Callable) -> int | FuelExhausted | None:
    """Numeral readback: reduce t to weak head normal form with an
    engine's whnf step, then again under each S, until 0. One budget or
    cell serves the whole readback. A step that returns a closure (see
    above) is given the body of each S as a closure. None when some whnf
    is not a number or the engine is stuck. The readback runs through
    `drive`, so an exhausted one reports what drive does: the machine's
    configuration where it stopped, the evaluators' input t."""
    require_closed(t)
    out = drive(_read_numeral, t, fuel, whnf)
    return None if isinstance(out, Stuck) else out


def _read_numeral(t: Term, cell: Fuel, whnf: Callable) -> int | None:
    n = 0
    while True:
        v = whnf(t, cell)
        v, env = v if type(v) is tuple else (v, None)
        if isinstance(v, Zero):
            return n
        if not isinstance(v, Suc):
            return None
        n += 1
        t = v.body if env is None else (v.body, env)


def mk_tuple(ts: list[Term]) -> Term:
    """<t1, ..., tn> as right-nested pairs."""
    if len(ts) < 2:
        raise ContractViolation("tuples have at least two components")
    out = ts[-1]
    for part in reversed(ts[:-1]):
        out = Pair(part, out)
    return out


# --------------------------------------------------------------------------
# fresh names and freshening (Barendregt's convention)


def namer(used: set[str], sep: str) -> Callable[[str], str]:
    """The package's one name picker. pick(base) is base if that is not
    in `used`, else the first free of base+sep+"1", base+sep+"2", …; each
    pick joins `used`, which the caller hands over. `used` only grows,
    so a base's suffixes below its last pick stay taken, and each base's
    probe resumes where its last pick stopped."""
    start: dict[str, int] = {}  # per base name, the next suffix to try

    def pick(base: str) -> str:
        if base not in used:
            used.add(base)
            return base
        i = start.get(base, 1)
        while f"{base}{sep}{i}" in used:
            i += 1
        new = f"{base}{sep}{i}"
        used.add(new)
        start[base] = i + 1
        return new
    return pick


def freshen(t: Term) -> Term:
    """An alpha-variant whose binders are pairwise distinct and distinct
    from every free variable: each binder keeps its name where that is
    free, else takes name_1, name_2, … from `namer`."""
    pick = namer(set(t.fv), "_")
    env: dict[str, str] = {}  # bound name -> new name, restored on exit

    def go(node: Term) -> Term:
        cls = type(node)
        if cls is Var:
            n = node.name
            return Var(env[n]) if n in env else node
        if cls is App:
            return App(go(node.fun), go(node.arg))
        if cls is Lam:
            x = node.binder
            nx = pick(x)
            outer = env.get(x)
            env[x] = nx
            body = go(node.body)
            restore_scope(env, x, outer)
            return Lam(nx, body)
        if cls is Zero:
            return node
        if cls is Suc:
            n, inner = _peel(node)
            return _sucs(n, go(inner))
        if cls is LetPair:
            ns = go(node.scrut)
            x, y = node.x, node.y
            nx, ny = pick(x), pick(y)
            outer_x, outer_y = env.get(x), env.get(y)
            env[x] = nx
            env[y] = ny
            body = go(node.body)
            restore_scope(env, y, outer_y)
            restore_scope(env, x, outer_x)
            return LetPair(ns, nx, ny, body)
        if cls in _CHILDREN:
            return rebuild(node, [go(k) for k in children(node)])
        raise AssertionError(f"unhandled node {cls.__name__}")

    return go(t)


def restore_scope(env: dict, name: str, outer):
    """Undo a scoped binding of name; outer is what it shadowed, or None.
    Restoring twice is harmless (a pattern that binds one name twice)."""
    if outer is None:
        env.pop(name, None)
    else:
        env[name] = outer


# --------------------------------------------------------------------------
# printing


# the call-shaped nodes, by the text that opens them
_KEYWORD = {Rec: "rec(", Iter: "iter(", Min: "min("}


def pretty(t: Term) -> str:
    """Concrete syntax; parse(pretty(t)) is alpha-equivalent to t.

    One walk over a worklist of text pieces and (term, level) slots,
    where level 0 is a full term, 1 an application's operator and 2 an
    atom slot (an operand, or under S). The pieces are joined once, and
    no depth of nesting recurses."""
    out: list[str] = []
    emit = out.append
    work: list = [(t, 0)]
    pop, push = work.pop, work.append
    while work:
        item = pop()
        if type(item) is str:
            emit(item)
            continue
        t, level = item
        cls = type(t)
        if cls is Var:
            emit(t.name)
        elif cls is App:
            # the operator spine f a1 ... an prints without parentheses
            if level > 1:
                emit("(")
                push(")")
            while type(t) is App:
                push((t.arg, 2))
                push(" ")
                t = t.fun
            push((t, 1))
        elif cls is Lam:
            if level > 0:
                emit("(")
                push(")")
            binders = []
            while type(t) is Lam:
                binders.append(t.binder)
                t = t.body
            emit(f"\\{' '.join(binders)}. ")
            push((t, 0))
        elif cls is Zero:
            emit("0")
        elif cls is Suc:
            sucs = 0
            while type(t) is Suc:
                t = t.body
                sucs += 1
            if type(t) is Zero:
                emit(str(sucs))
            else:
                emit("S " * sucs)
                push((t, 2))
        elif cls is Pair:
            emit("<")
            push(">")
            push((t.right, 0))
            push(", ")
            push((t.left, 0))
        elif cls is LetPair:
            if level > 0:
                emit("(")
                push(")")
            emit(f"let <{t.x}, {t.y}> = ")
            push((t.body, 0))
            push(" in ")
            push((t.scrut, 0))
        elif cls in _KEYWORD:
            emit(_KEYWORD[cls])
            push(")")
            kids = children(t)
            for i in range(len(kids) - 1, 0, -1):
                push((kids[i], 0))
                push(", ")
            push((kids[0], 0))
        else:
            raise AssertionError(f"unhandled node {cls.__name__}")
    return "".join(out)

