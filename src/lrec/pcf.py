"""PCF: a simply typed λ-calculus with numbers, conditionals, and a
fixpoint constant, plus its compilation into the linear calculus.

Types are the linear calculus's own, types.Nat and Lolli: a PCF type
compiles to the linear type of the same shape, with -> read as -o, so
an annotation goes to the encodings as it is. Only the printer
(pcf_type_pretty) speaks PCF's syntax.

The constants succ, pred, iszero, cond[T] and Y[T] are one node,
PConst, and one table, CONSTANTS, says what each is: whether it takes a
type argument, its type, its encoding into the linear calculus and, for
the arithmetic ones, its reference rule. The checker, the compiler, the
reference evaluator, the printer and the parser read that table; only
the evaluator's rules for cond and Y, which are not functions of one
number, name those two constants.

The reference semantics is big-step call-by-name over closed terms; a
value is a number, an abstraction, a constant, or a partially applied
conditional. The compiler is type-directed: binders carry annotations,
numbers become Peano numerals, the constants map to the recursor
encodings, and free variables of the nonlinear source are linearised
afterwards by bracket abstraction (`close_var`), which splits shared
variables with a duplicator and erases nothing — discarded binders are
handled at the λ-clause itself. `close_var` names each duplicator's
outputs apart from every name of the two sides it splits; it builds
those name sets bottom-up, walking each node of its result at most once,
so its walks are linear (up to a log factor for merging sets) in the
size of the result, however many times the variable is used.

`succ` compiles to a recursor, not to λx.S x: S does not reduce under
itself, so the literal abstraction would turn divergent arguments into
values and change what terminates.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .parser import ParseError, TokenStream, definitions, lex
from .stdlib import (cond_enc, dup, erase_term, fix, identity, iszero_enc,
                     pred_enc)
from .terms import (App, ContractViolation, Fuel, FuelExhausted, Lam, LetPair,
                    Pair, Rec, Record, Suc, Term, Var, Zero, _subst, children,
                    drive, fresh_name, numeral, rebuild, restore_scope)
from .types import NAT, LinType, Lolli, TypingError, type_pretty


# ---------------------------------------------------------------- types

# PCF's syntax for a type: the linear type's, with -> for -o
pcf_type_pretty = functools.partial(type_pretty, arrow="->")


# ---------------------------------------------------------------- terms

class PcfTerm(Record):
    __slots__ = ()


class NumConst(PcfTerm):
    __slots__ = ("n",)
    n: int

    def __init__(self, n: int):
        self.n = n


class PConst(PcfTerm):
    """A constant: `name` is a key of CONSTANTS, and `a` is the type
    argument of cond and Y, else None."""
    __slots__ = ("name", "a")
    name: str
    a: LinType | None

    def __init__(self, name: str, a: LinType | None = None):
        if name not in CONSTANTS:
            raise ContractViolation(f"unknown PCF constant {name!r}")
        if CONSTANTS[name].typed != (a is not None):
            why = "needs a" if a is None else "takes no"
            raise ContractViolation(f"{name} {why} type argument")
        self.name = name
        self.a = a


# what a constant is, by name: whether it takes a type argument, its type
# and its encoding as functions of that argument (None when it takes
# none), and for succ, pred and iszero the reference rule on a number
Constant = namedtuple("Constant", "typed type encoding rule")
CONSTANTS = {
    "succ": Constant(False, lambda a: Lolli(NAT, NAT), lambda a: Lam(
        "n", Rec(Pair(Var("n"), Zero()), Suc(Zero()),
                 Lam("x", Suc(Var("x"))), identity())), lambda n: n + 1),
    "pred": Constant(False, lambda a: Lolli(NAT, NAT),
                     lambda a: pred_enc(dup(NAT)), lambda n: max(n - 1, 0)),
    "iszero": Constant(False, lambda a: Lolli(NAT, NAT),
                       lambda a: iszero_enc(dup(NAT)),
                       lambda n: 0 if n == 0 else 1),
    "cond": Constant(True, lambda a: Lolli(NAT, Lolli(a, Lolli(a, a))),
                     cond_enc, None),
    "Y": Constant(True, lambda a: Lolli(Lolli(a, a), a), fix, None),
}


class PVar(PcfTerm):
    __slots__ = ("name",)
    name: str

    def __init__(self, name: str):
        self.name = name


class PLam(PcfTerm):
    __slots__ = ("binder", "annot", "body")
    binder: str
    annot: LinType
    body: PcfTerm

    def __init__(self, binder: str, annot: LinType, body: PcfTerm):
        self.binder = binder
        self.annot = annot
        self.body = body


class PApp(PcfTerm):
    __slots__ = ("fun", "arg")
    fun: PcfTerm
    arg: PcfTerm

    def __init__(self, fun: PcfTerm, arg: PcfTerm):
        self.fun = fun
        self.arg = arg


def pcf_fv(t: PcfTerm) -> frozenset[str]:
    out: set[str] = set()
    # one scoped map of bound names; a binder's body is followed on the
    # worklist by an entry (name, what it shadowed) that undoes it
    bound: dict[str, bool] = {}
    work: list = [t]
    while work:
        cur = work.pop()
        cls = type(cur)
        if cls is tuple:
            restore_scope(bound, *cur)
        elif cls is PVar:
            if cur.name not in bound:
                out.add(cur.name)
        elif cls is PLam:
            b = cur.binder
            work.append((b, bound.get(b)))
            bound[b] = True
            work.append(cur.body)
        elif cls is PApp:
            work.append(cur.fun)
            work.append(cur.arg)
    return frozenset(out)


def pcf_pretty(t: PcfTerm, level: int = 0) -> str:
    match t:
        case NumConst(n=n):
            return str(n)
        case PConst(name=n, a=None):
            return n
        case PConst(name=n, a=a):
            return f"{n}[{pcf_type_pretty(a)}]"
        case PVar(name=n):
            return n
        case PLam(binder=b, annot=a, body=u):
            s = f"fun {b} : {pcf_type_pretty(a)} . {pcf_pretty(u, 0)}"
            return f"({s})" if level > 0 else s
        case PApp(fun=f, arg=u):
            s = f"{pcf_pretty(f, 1)} {pcf_pretty(u, 2)}"
            return f"({s})" if level > 1 else s
    raise ContractViolation(f"not a PCF term: {t!r}")


# --------------------------------------------------------------- typing

def pcf_check(t: PcfTerm, env: dict[str, LinType]) -> LinType:
    """Simple types with annotated binders; iszero lands in Nat (0/1).
    env gains each binder in place while its body is checked and is left
    as it was on return."""
    match t:
        case NumConst():
            return NAT
        case PConst(name=n, a=a):
            return CONSTANTS[n].type(a)
        case PVar(name=n):
            if n not in env:
                raise TypingError(f"unbound variable {n}")
            return env[n]
        case PLam(binder=b, annot=a, body=u):
            outer = env.get(b)
            env[b] = a
            try:
                return Lolli(a, pcf_check(u, env))
            finally:
                restore_scope(env, b, outer)
        case PApp(fun=f, arg=u):
            tf = pcf_check(f, env)
            if not isinstance(tf, Lolli):
                raise TypingError(
                    f"applied a non-function: {pcf_pretty(f)} "
                    f"has type {pcf_type_pretty(tf)}")
            tu = pcf_check(u, env)
            if tu != tf.dom:
                raise TypingError(
                    f"in {pcf_pretty(t)}: argument has type "
                    f"{pcf_type_pretty(tu)}, expected {pcf_type_pretty(tf.dom)}")
            return tf.cod
    raise ContractViolation(f"not a PCF term: {t!r}")


# ----------------------------------------------------------- evaluation

def pcf_is_value(t: PcfTerm) -> bool:
    """Numbers, abstractions, constants, partially applied conditionals."""
    match t:
        case NumConst() | PLam() | PConst():
            return True
        case PApp(fun=PConst(name="cond") | PApp(fun=PConst(name="cond"))):
            return True
    return False


def pcf_subst(t: PcfTerm, x: str, s: PcfTerm) -> PcfTerm:
    # closed payloads only, so no capture is possible
    if pcf_fv(s):
        raise ContractViolation(
            f"substitution payload is open: free {sorted(pcf_fv(s))}")
    def go(u: PcfTerm) -> PcfTerm:
        match u:
            case PVar(name=n):
                return s if n == x else u
            case PLam(binder=b, annot=a, body=v):
                return u if b == x else PLam(b, a, go(v))
            case PApp(fun=f, arg=v):
                return PApp(go(f), go(v))
            case _:
                return u
    return go(t)


def _num_of(v: PcfTerm, who: str) -> int:
    if not isinstance(v, NumConst):
        raise ContractViolation(f"{who} applied to a non-number value")
    return v.n


def _peval(t: PcfTerm, fuel: Fuel) -> PcfTerm:
    while True:
        if pcf_is_value(t):
            fuel.tick()
            return t
        match t:
            case PApp(fun=PApp(fun=PApp(fun=PConst(name="cond"), arg=c),
                               arg=u), arg=v):
                n = _num_of(_peval(c, fuel), "cond")
                fuel.tick()
                t = u if n == 0 else v
            case PApp(fun=PConst(name=name), arg=u) if CONSTANTS[name].rule:
                n = _num_of(_peval(u, fuel), name)
                fuel.tick()
                return NumConst(CONSTANTS[name].rule(n))
            case PApp(fun=PLam(binder=b, body=body), arg=u):
                fuel.tick()
                t = pcf_subst(body, b, u)
            case PApp(fun=PConst(name="Y") as y, arg=f):
                fuel.tick()
                t = PApp(f, PApp(y, f))
            case PApp(fun=s, arg=u) if not pcf_is_value(s):
                sv = _peval(s, fuel)
                fuel.tick()
                t = PApp(sv, u)
            case PApp(fun=s):
                raise ContractViolation(
                    f"applied a non-function value: {pcf_pretty(s)}")
            case PVar(name=n):
                raise ContractViolation(f"input is open: free variable {n}")
            case _:
                raise ContractViolation(f"not a PCF term: {t!r}")


def pcf_eval(t: PcfTerm, fuel: int | Fuel) -> PcfTerm | FuelExhausted:
    """Big-step CBN value of a closed well-typed term, fueled per rule."""
    if pcf_fv(t):
        raise ContractViolation(f"input is open: free {sorted(pcf_fv(t))}")
    return drive(_peval, t, fuel)


# ----------------------------------------------------------- compilation

# what x is shared across when two parts of a non-application hold it
_ACROSS = {Pair: "a pair", LetPair: "a let", Rec: "a recursor"}


def _own_names(t: Term) -> tuple[str, ...]:
    """The names a node carries itself: a variable's, or its binders."""
    if isinstance(t, Var):
        return (t.name,)
    if isinstance(t, Lam):
        return (t.binder,)
    if isinstance(t, LetPair):
        return (t.x, t.y)
    return ()


def _add_names(out: set[str], parts: list[Term]) -> None:
    """Add every name in parts, free, bound or pattern, to out; the list
    is used up."""
    while parts:
        cur = parts.pop()
        out.update(_own_names(cur))
        parts.extend(children(cur))


def close_var(x: str, t: Term, a: LinType,
              names: list[set[str]] | None = None) -> Term:
    """Bracket abstraction [x]t: rebuild t so that x (of type a) occurs
    free exactly once, splitting shared uses with a duplicator.

    Defined on the image of compilation — variables, S, λ, application —
    plus descent into other constructors when x sits in exactly one
    part, which is where compiled code can put it. Two parts sharing x
    outside an application cannot come from the compiler and fault.

    A shared application names the duplicator's outputs x1 and x2
    (`fresh_name` from the bases x+"1" and x+"2") outside every name of
    both rebuilt sides, so renaming x on each side cannot capture.
    Invariant: when `names` is given, the call pushes onto it the set of
    all names in the term it returns, free, bound and pattern variables.
    Only a shared application asks, for its two sides. The sets are
    built bottom-up: a rebuilt part brings its own, the untouched parts
    are walked once, and the two sides' sets merge smaller into larger.
    So each node of the result is walked at most once and each name is
    copied O(log n) times, where re-walking both sides at every shared
    application was quadratic in the number of uses of x. (`fresh_name`
    still probes x+"1", x+"11", x+"12", … from the start at each split,
    a quadratic term with a small constant.)
    """
    if x not in t.fv:
        raise ContractViolation(f"{x} is not free in the term")
    if isinstance(t, Var):
        if names is not None:
            names.append({x})
        return t
    if not isinstance(t, (Suc, Lam, App, Pair, LetPair, Rec)):
        raise ContractViolation(
            f"cannot abstract {x} out of a {type(t).__name__} node")
    kids = list(children(t))
    hits = [i for i, part in enumerate(kids) if x in part.fv]
    if isinstance(t, LetPair) and x in (t.x, t.y):
        hits = [0]  # the body's x is the pattern's
    if len(hits) == 2 and isinstance(t, App):
        sides: list[set[str]] = []
        left = close_var(x, t.fun, a, sides)
        right = close_var(x, t.arg, a, sides)
        small, seen = sorted(sides, key=len)
        seen |= small  # every name of both sides, x among them
        x1 = fresh_name(seen, x + "1")
        seen.add(x1)
        x2 = fresh_name(seen, x + "2")
        seen.add(x2)
        d = dup(a)
        if names is not None:
            _add_names(seen, [d])
            names.append(seen)
        return LetPair(App(d, Var(x)), x1, x2,
                       App(_subst(left, x, Var(x1)),
                           _subst(right, x, Var(x2))))
    if len(hits) != 1:
        raise ContractViolation(f"{x} shared across {_ACROSS[type(t)]}")
    i = hits[0]
    kid = close_var(x, kids[i], a, names)
    if names is not None:
        names[-1].update(_own_names(t))
        _add_names(names[-1], kids[:i] + kids[i + 1:])
    if kid is kids[i]:
        return t  # x is used once below: nothing to rebuild
    kids[i] = kid
    return rebuild(t, kids)


def compile_body(t: PcfTerm, tenv: dict[str, LinType]) -> Term:
    """The type-directed clauses; output is nonlinear in the free
    variables of t (same set, possibly many occurrences each). tenv is
    scoped in place, as in pcf_check."""
    match t:
        case NumConst(n=n):
            return numeral(n)
        case PConst(name=n, a=a):
            return CONSTANTS[n].encoding(a)
        case PVar(name=n):
            return Var(n)
        case PApp(fun=f, arg=u):
            return App(compile_body(f, tenv), compile_body(u, tenv))
        case PLam(binder=x, annot=a, body=b):
            outer = tenv.get(x)
            tenv[x] = a
            try:
                # the compiled body keeps the source's free variables
                inner = compile_body(b, tenv)
                if x not in inner.fv:
                    tb = pcf_check(b, tenv)
            finally:
                restore_scope(tenv, x, outer)
            if x in inner.fv:
                return Lam(x, close_var(x, inner, a))
            # discarded binder: consume x with erasers under a recursor
            # on zero, so a divergent argument still never runs
            y = fresh_name({x}, "y")
            eraser = Lam(y, erase_term(
                App(erase_term(Var(y), Lolli(tb, tb)), Var(x)), a))
            wrap = Rec(Pair(Zero(), Zero()), identity(), eraser, identity())
            return Lam(x, App(wrap, inner))
    raise ContractViolation(f"not a PCF term: {t!r}")


def compile_pcf(t: PcfTerm, env: list[tuple[str, LinType]]) -> Term:
    """Bracket abstraction folded over compile_body, innermost variable
    first; the result keeps fv(t) free, each exactly once."""
    tenv = dict(env)
    pcf_check(t, tenv)
    body = compile_body(t, tenv)
    for name, a in reversed(env):
        if name in body.fv:
            body = close_var(name, body, a)
    return body


# ---------------------------------------------------------------- syntax

_RESERVED = {"fun", "Nat", *CONSTANTS}


class _PcfParser(TokenStream):
    def term(self) -> PcfTerm:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "fun":
            self.next()
            binder = self.expect("ident", "a binder name")
            if binder.text in _RESERVED:
                raise ParseError(f"{binder.text!r} is reserved",
                                 binder.line, binder.col)
            self.expect("colon", "':'")
            annot = self.type_()
            self.expect("dot", "'.'")
            return PLam(binder.text, annot, self.term())
        t = self.atom()
        while self._starts_atom():
            t = PApp(t, self.atom())
        return t

    def _starts_atom(self) -> bool:
        tok = self.peek()
        if tok.kind in ("nat", "lparen", "at"):
            return True
        return tok.kind == "ident" and tok.text not in ("fun", "Nat")

    def atom(self) -> PcfTerm:
        tok = self.next()
        if tok.kind == "nat":
            return NumConst(int(tok.text))
        if tok.kind == "lparen":
            t = self.term()
            self.expect("rparen", "')'")
            return t
        if tok.kind == "at":
            name = self.expect("ident", "a definition name")
            t = self.resolve(name.text) if self.resolve else None
            if t is None:
                raise ParseError(f"unknown reference @{name.text}",
                                 name.line, name.col)
            return t
        if tok.kind == "ident":
            if tok.text in CONSTANTS:
                a = None
                if CONSTANTS[tok.text].typed:
                    self.expect("lbracket", "'[' with a type argument")
                    a = self.type_()
                    self.expect("rbracket", "']'")
                return PConst(tok.text, a)
            if tok.text in _RESERVED:
                raise ParseError(f"{tok.text!r} cannot appear here",
                                 tok.line, tok.col)
            return PVar(tok.text)
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}",
                         tok.line, tok.col)

    def type_(self) -> LinType:
        left = self.type_atom()
        if self.peek().kind == "arrow":
            self.next()
            return Lolli(left, self.type_())
        return left

    def type_atom(self) -> LinType:
        tok = self.next()
        if tok.kind == "ident" and tok.text == "Nat":
            return NAT
        if tok.kind == "lparen":
            a = self.type_()
            self.expect("rparen", "')'")
            return a
        raise ParseError(f"expected a type, found "
                         f"{tok.text or 'end of input'!r}",
                         tok.line, tok.col)


def parse_pcf(text: str) -> PcfTerm:
    p = _PcfParser(lex(text))
    t = p.term()
    p.expect("eof", "end of input")
    return t


def parse_pcf_defs(text: str) -> tuple[dict[str, PcfTerm], PcfTerm]:
    """A file of `name = term;` definitions (the last one is the
    program) or a single bare term. `@name` resolves against earlier
    definitions."""
    defs: dict[str, PcfTerm] = {}
    p = _PcfParser(lex(text), defs.get)
    return defs, definitions(p, p.term, defs)
