"""The flat engine loop against verbatim copies of the recursive ones.

`evaluation._eval` and `machine._run` are one environment loop,
`evaluation.whnf`, run on two engine rows, so the machine cannot check
the evaluators; the loops below do. `terms._subst` dispatches on types
and descends only where the variable occurs. Below are the loops they
replaced, copied unchanged: the recursive `_eval`, the tuple-stack
`_step`/`_run` and the `match`-based `_subst` (with the `subst` that
calls it). Each input runs through both sides under the same budget,
and the outcome, the fuel left in the cell and, for the machine, every
transition must agree, at the exact need, one unit below it and at
budgets from 0 upwards.
"""

import random
from pathlib import Path

from lrec import evaluation, machine, terms
from lrec.cli import _load, _load_pcf
from lrec.gen import random_closed
from lrec.machine import LetK, MachineConfig, Plain, RecK, RecK2
from lrec.minext import lin_pred
from lrec.parser import parse
from lrec.pcf import compile_body, compile_pcf, pcf_check
from lrec.reduction import _normalize_with
from lrec.terms import (App, ContractViolation, Fuel, FuelExhausted, Iter,
                        Lam, LetPair, Min, OutOfFuel, Pair, Rec, Stuck, Suc,
                        Term, Var, Zero, alpha_eq, children, drive, is_value,
                        numeral, pretty, read_numeral)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


# ------------------------------------------- the replaced loops, verbatim

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
    if x not in t.fv:
        return t
    match t:
        case Var():
            return s
        case Suc():
            # peel S chains iteratively, they can be very tall
            depth = 0
            inner = t
            while isinstance(inner, Suc):
                inner = inner.body
                depth += 1
            inner = _subst(inner, x, s)
            for _ in range(depth):
                inner = Suc(inner)
            return inner
        case App(fun=f, arg=a):
            return App(_subst(f, x, s), _subst(a, x, s))
        case Lam(binder=b, body=body):
            # x in t.fv implies x != b
            return Lam(b, _subst(body, x, s))
        case Pair(left=l, right=r):
            return Pair(_subst(l, x, s), _subst(r, x, s))
        case LetPair(scrut=sc, x=px, y=py, body=b):
            if x in sc.fv:
                return LetPair(_subst(sc, x, s), px, py, b)
            return LetPair(sc, px, py, _subst(b, x, s))
        case Rec(scrut=sc, base=u, step=v, update=w):
            return Rec(_subst(sc, x, s), _subst(u, x, s), _subst(v, x, s),
                       _subst(w, x, s))
        case Iter(count=c, base=u, step=v):
            return Iter(_subst(c, x, s), _subst(u, x, s), _subst(v, x, s))
        case Min(scrut=sc, counter=u, fn=f):
            return Min(_subst(sc, x, s), _subst(u, x, s), _subst(f, x, s))
        case _:
            return t


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


Stack = tuple  # of ExtTerm, top first


def _step(code: Term, stack: Stack) -> tuple[Term, Stack, str] | None:
    match code:
        case App(fun=f, arg=a):
            return f, (Plain(a),) + stack, "app"
        case Lam(binder=x, body=b) if stack and isinstance(stack[0], Plain):
            return subst(b, x, stack[0].term), stack[1:], "abs"
        case LetPair(scrut=s, x=x, y=y, body=b):
            return s, (LetK(x, y, b),) + stack, "let"
        case Pair(left=l, right=r) if stack and isinstance(stack[0], LetK):
            k = stack[0]
            return subst(subst(k.body, k.x, l), k.y, r), stack[1:], "pair1"
        case Rec(scrut=s, base=u, step=v, update=w):
            return s, (RecK(u, v, w),) + stack, "rec"
        case Pair(left=l, right=r) if stack and isinstance(stack[0], RecK):
            k = stack[0]
            return l, (RecK2(r, k.base, k.step, k.update),) + stack[1:], "pair2"
        case Zero() if stack and isinstance(stack[0], RecK2):
            return stack[0].base, stack[1:], "zero"
        case Suc(body=n) if stack and isinstance(stack[0], RecK2):
            k = stack[0]
            pending = Rec(App(k.update, Pair(n, k.second)), k.base, k.step, k.update)
            return k.step, (Plain(pending),) + stack[1:], "succ"
    return None


def _run(code: Term, fuel: Fuel, on_step=None) -> Term:
    """Drive (code, []) until it halts on a value with an empty stack.
    Raises Stuck or OutOfFuel, both carrying the configuration reached.
    The hot loop counts in a local and settles with the cell on exit."""
    stack: Stack = ()
    budget = remaining = fuel.remaining
    try:
        while True:
            got = _step(code, stack)
            if got is None:
                if is_value(code) and not stack:
                    return code
                raise Stuck("no transition applies", MachineConfig(code, stack))
            if remaining == 0:
                raise OutOfFuel(MachineConfig(code, stack))
            remaining -= 1
            code, stack, rule = got
            if on_step is not None:
                on_step(budget - remaining, rule, MachineConfig(code, stack))
    finally:
        fuel.remaining = remaining


# ------------------------------------------------------------ comparison

def _text(x) -> str:
    return x if isinstance(x, str) else pretty(x)


def _where(at):
    """An outcome's `at`, as text: a term, or a machine configuration
    with every field of every stack frame."""
    if isinstance(at, MachineConfig):
        return ("config", pretty(at.code), len(at.stack),
                tuple((type(k).__name__,) + tuple(
                    _text(getattr(k, name)) for name in k.__match_args__)
                      for k in at.stack))
    return ("term", pretty(at))


def _digest(out):
    if isinstance(out, ContractViolation):
        return ("ContractViolation", str(out))
    if isinstance(out, FuelExhausted):
        return ("FuelExhausted", _where(out.at))
    if isinstance(out, Stuck):
        return ("Stuck", out.reason, _where(out.at))
    if isinstance(out, Term):
        return (type(out).__name__, pretty(out))
    return (type(out).__name__, out)  # a readback's number or None


def _engines(t: Term):
    """(name, old, new): each runs t on a cell. The machine also takes a
    list, or None: given one, it adds an (i, rule, |stack|, code) line
    per transition."""
    def hook(lines):
        if lines is None:
            return None
        return lambda i, rule, c: lines.append(
            (i, rule, len(c.stack), pretty(c.code)))

    for cbv, literal in ((False, False), (True, False), (False, True),
                         (True, True)):
        yield (f"eval cbv={cbv} literal_let={literal}",
               lambda cell, _, cbv=cbv, ll=literal:
                   drive(_eval, t, cell, cbv, ll),
               lambda cell, _, cbv=cbv, ll=literal:
                   drive(evaluation._eval, t, cell, cbv, ll))
    yield ("machine",
           lambda cell, lines: drive(_run, t, cell, hook(lines)),
           lambda cell, lines: machine.run(t, cell, hook(lines)))
    for cbv in (False, True):
        yield (f"readback cbv={cbv}",
               lambda cell, _, cbv=cbv: read_numeral(
                   t, cell, lambda u, c: _eval(u, c, cbv, False)),
               lambda cell, _, cbv=cbv:
                   evaluation.force_numeral(t, cell, cbv))
    for cbv in (False, True):
        yield (f"readback cbv={cbv} literal_let=True",
               lambda cell, _, cbv=cbv: read_numeral(
                   t, cell, lambda u, c: _eval(u, c, cbv, True)),
               lambda cell, _, cbv=cbv:
                   evaluation.force_numeral(t, cell, cbv, literal_let=True))
    yield ("machine readback",
           lambda cell, _: read_numeral(t, cell, _run),
           lambda cell, _: machine.machine_force_numeral(t, cell))


def _outcome(side, cell: Fuel, lines):
    """The side's outcome, or the fault it raised."""
    try:
        return side(cell, lines)
    except ContractViolation as e:
        return e


def _agree(name: str, old, new, budget: int, traced: bool):
    """Run both sides on `budget`; return the fuel used and the outcome."""
    cells = (Fuel(budget), Fuel(budget))
    lines = ([], []) if traced else (None, None)
    a, b = map(_outcome, (old, new), cells, lines)
    assert _digest(a) == _digest(b), (name, budget)
    if isinstance(a, Term):
        assert alpha_eq(a, b), (name, budget)
    assert cells[0].remaining == cells[1].remaining, (name, budget)
    assert lines[0] == lines[1], (name, budget)
    return budget - cells[0].remaining, a


def _budgets(need: int, ran_out: bool, rng: random.Random) -> set[int]:
    """Budgets to try around a run that needs `need` units: every one up
    to one past it when there are few, else the ends and one between.
    A run that `ran_out` at `need` is tried at the start and one point."""
    if ran_out:
        return {0, 1, rng.randrange(need)}
    if need <= 40:
        return set(range(need + 2))
    return {0, 1, need - 1, need, rng.randrange(need)}


def _check(label: str, t: Term, cap: int, rng: random.Random,
           sweep: bool = True):
    """Both sides on t: traced for up to TRACED units, then untraced on
    the cap, if the trace ran out, and with `sweep` on budgets around
    the need."""
    for name, old, new in _engines(t):
        name = f"{label}: {name}"
        top = min(cap, TRACED)
        used, out = _agree(name, old, new, top, traced=True)
        if isinstance(out, FuelExhausted) and top < cap:
            top = cap
            used, out = _agree(name, old, new, top, traced=False)
        if sweep:
            ran_out = isinstance(out, FuelExhausted)
            for budget in sorted(_budgets(used, ran_out, rng)):
                _agree(name, old, new, budget, traced=False)


TRACED = 4_000  # transitions printed in full: each costs a pretty(code)


def _pred(n: int) -> Term:
    return parse(f"@pred {n}")


# ------------------------------------------------------------------ tests

def test_corpus_lrec_agrees():
    rng = random.Random(1)
    for path in sorted(CORPUS.glob("*.lrec")):
        _check(path.name, _load(str(path), "lrec")[0], 20_000, rng)


def test_compiled_corpus_pcf_agrees():
    rng = random.Random(2)
    for path in sorted(CORPUS.glob("*.pcf")):
        prog = _load_pcf(str(path))[0]
        # the compiler types each subterm as it goes, as pcf_check does
        assert compile_body(prog, {})[1] == pcf_check(prog, {}), path.name
        t = compile_pcf(prog, [])
        _check(path.name, t, 40_000, rng)


def test_catalog_arithmetic_agrees():
    rng = random.Random(3)
    for n in range(1, 41):
        _check(f"@pred {n}", _pred(n), 100_000, rng, sweep=n <= 10 or n == 40)
    for src in ("@mult 3 4", "@mult 0 5", "@factorial 3", "@factorial 0"):
        _check(src, parse(src), 100_000, rng)


def test_generated_terms_agree():
    rng = random.Random(2006)
    for k in range(300):
        t = random_closed(rng)[0]
        _check(f"generated #{k}", t, 2_000, rng)


def test_an_open_update_agrees():
    # the update's free y puts it in a shared %w cell (terms.recur)
    t = parse("(\\y. rec(<3, 0>, 0, \\k. S k, "
              "\\p. let <a, b> = p in <a, y b>)) (\\z. z)")
    _check("open update", t, 1_000, random.Random(6))
    for cbv in (False, True):
        assert evaluation.force_numeral(t, 1_000, cbv) == 3
    assert machine.machine_force_numeral(t, 1_000) == 3
    # the zipper substitutes, so its 3 is an independent witness
    assert pretty(_normalize_with(t, 1_000, None, closed=False)) == "3"


def test_stuck_and_faulting_terms_agree():
    rng = random.Random(4)
    for src in ("0 0", "<0, 0> 1", "let <a, b> = 0 in <a, b>",
                "rec(0, 0, \\x. x, \\p. p)",
                "rec(<\\x. x, 0>, 0, \\x. x, \\p. p)",
                "(\\f. f 0) <0, 0>", "(\\x. x) (0 0)", "S ((\\x. x) 0)"):
        _check(src, parse(src), 100, rng)
    # the evaluators fault on a minimiser-calculus node, the machine is
    # stuck on it
    _check("lin_pred 2", App(lin_pred(), numeral(2)), 100, rng)


def test_subst_agrees_on_every_binder():
    # every binder of generated, catalog, minimiser and compiled PCF
    # terms, with a closed and a variable payload
    rng = random.Random(5)
    pool = [random_closed(rng)[0] for _ in range(200)]
    pool += [_pred(5), lin_pred(), parse("@factorial 2")]
    pool += [compile_pcf(_load_pcf(str(p))[0], [])
             for p in sorted(CORPUS.glob("*.pcf"))]
    seen = 0
    for t in pool:
        work = [t]
        while work:
            node = work.pop()
            work.extend(children(node))
            if isinstance(node, Lam):
                pairs = [(node.body, node.binder)]
            elif isinstance(node, LetPair):
                pairs = [(node.body, node.x), (node.body, node.y)]
            else:
                continue
            for body, x in pairs:
                for payload in (numeral(2), Var("fresh")):
                    want = _subst(body, x, payload)
                    got = terms._subst(body, x, payload)
                    assert pretty(got) == pretty(want)
                    assert got.fv == want.fv
                    seen += 1
    assert seen > 1_000
    # x in each child position of each node, and x occurring twice
    x, o = Var("x"), numeral(3)
    shapes = [Pair(x, Suc(App(x, Zero()))), Suc(Suc(x)), Lam("y", x),
              LetPair(x, "a", "b", o), LetPair(o, "a", "b", x)]
    for cls, arity in ((App, 2), (Pair, 2), (Rec, 4), (Iter, 3), (Min, 3)):
        shapes += [cls(*(x if j == i else o for j in range(arity)))
                   for i in range(arity)]
    for t in shapes:
        assert pretty(terms._subst(t, "x", numeral(1))) == \
            pretty(_subst(t, "x", numeral(1)))
