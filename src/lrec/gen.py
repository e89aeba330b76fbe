"""Random closed well-typed terms, for property testing.

Generation is type-directed and threads the linear context through
every split: each part of a node receives a disjoint share of the
variables and must consume all of it. The always-available fallback
consumes leftovers by erasing them into an application chain around a
numeral, so generation never dead-ends.

Recursor updates are drawn from a fixed pool of terminating shapes
(identity, swap, second-component increment): the sampled terms are
meant to exercise typed reduction broadly, and a generator that mostly
produces divergence would starve the properties being tested.
"""

from __future__ import annotations

from .stdlib import erase_term
from .terms import App, Lam, LetPair, Pair, Rec, Suc, Term, Var, numeral
from .types import LinType, Lolli, NAT, Tensor

TYPE_CHECKING = False
if TYPE_CHECKING:  # random.Random is only annotated here; callers import it
    import random


def random_type(rng: random.Random, depth: int = 2) -> LinType:
    if depth <= 0 or rng.random() < 0.45:
        return NAT
    if rng.random() < 0.5:
        return Lolli(random_type(rng, depth - 1), random_type(rng, depth - 1))
    return Tensor(random_type(rng, depth - 1), random_type(rng, depth - 1))


def _update_pool(rng: random.Random) -> Term:
    pick = rng.randrange(3)
    if pick == 0:
        return Lam("p", Var("p"))
    if pick == 1:
        return Lam("p", LetPair(Var("p"), "a", "b", Pair(Var("b"), Var("a"))))
    return Lam("p", LetPair(Var("p"), "a", "b", Pair(Var("a"), Suc(Var("b")))))


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"v{self.counter}"

    def _split(self, env: list, parts: int) -> list[list]:
        env = list(env)
        self.rng.shuffle(env)
        out: list[list] = [[] for _ in range(parts)]
        for item in env:
            out[self.rng.randrange(parts)].append(item)
        return out

    def _consume(self, env: list, base: Term) -> Term:
        # wrap a closed Nat around erasures of every leftover variable
        t = base
        for name, b in env:
            t = App(erase_term(Var(name), b), t)
        return t

    def go(self, a: LinType, env: list, depth: int) -> Term:
        rng = self.rng
        # direct variable use when the context is exactly one fit
        if len(env) == 1 and env[0][1] == a and rng.random() < 0.5:
            return Var(env[0][0])
        if isinstance(a, Lolli):
            x = self.fresh()
            return Lam(x, self.go(a.cod, env + [(x, a.dom)], depth))
        if isinstance(a, Tensor):
            e1, e2 = self._split(env, 2)
            return Pair(self.go(a.left, e1, depth - 1),
                        self.go(a.right, e2, depth - 1))
        # target Nat
        if depth <= 0:
            return self._consume(env, numeral(rng.randrange(3)))
        roll = rng.random()
        if roll < 0.25:
            # s(...) around a smaller Nat
            return Suc(self.go(NAT, env, depth - 1))
        if roll < 0.5:
            e1, e2, e3 = self._split(env, 3)
            scrut = self.go(Tensor(NAT, NAT), e1, depth - 1)
            base = self.go(NAT, e2, depth - 1)
            step = self.go(Lolli(NAT, NAT), e3, depth - 1)
            return Rec(scrut, base, step, _update_pool(rng))
        if roll < 0.75:
            b = random_type(rng, 1)
            e1, e2 = self._split(env, 2)
            fun = self.go(Lolli(b, NAT), e1, depth - 1)
            arg = self.go(b, e2, depth - 1)
            return App(fun, arg)
        if roll < 0.9:
            b1, b2 = random_type(rng, 1), random_type(rng, 1)
            e1, e2 = self._split(env, 2)
            scrut = self.go(Tensor(b1, b2), e1, depth - 1)
            x, y = self.fresh(), self.fresh()
            body = self.go(NAT, e2 + [(x, b1), (y, b2)], depth - 1)
            return LetPair(scrut, x, y, body)
        return self._consume(env, numeral(rng.randrange(3)))


def random_closed(rng: random.Random, depth: int = 3) -> tuple[Term, LinType]:
    """A closed, syntactically linear, well-typed term and its type."""
    a = random_type(rng, 2)
    t = _Gen(rng).go(a, [], depth)
    return t, a
