import random

from lrec.gen import random_closed, random_type
from lrec.reduction import FuelExhausted, normalize, step_lo
from lrec.terms import check_linear
from lrec.types import check


def test_samples_are_closed_linear_well_typed():
    rng = random.Random(7)
    for _ in range(200):
        t, a = random_closed(rng)
        assert t.fv == frozenset()
        assert check_linear(t) == []
        assert check(t, [], a) == a


def test_determinism_per_seed():
    from lrec.terms import alpha_eq
    a0 = [random_closed(random.Random(11))[0] for _ in range(20)]
    a1 = [random_closed(random.Random(11))[0] for _ in range(20)]
    for x, y in zip(a0, a1):
        assert alpha_eq(x, y)


def test_most_samples_normalize():
    rng = random.Random(3)
    done = 0
    for _ in range(100):
        t, _ = random_closed(rng)
        if not isinstance(normalize(t, 10_000), FuelExhausted):
            done += 1
    assert done >= 90


def test_types_vary():
    rng = random.Random(5)
    kinds = {type(random_type(rng)).__name__ for _ in range(50)}
    assert kinds == {"Nat", "Lolli", "Tensor"}


def test_subject_reduction_smoke():
    rng = random.Random(19)
    for _ in range(40):
        t, a = random_closed(rng)
        for _ in range(30):
            s = step_lo(t)
            if s is None:
                break
            t = s.next
            assert check(t, [], a) == a
