"""Value records (`terms.Record`) behave as the frozen dataclasses they
replaced: equality and hash over the fields, keyword and positional
`match` patterns, no attribute beyond the fields, and the same `repr`
text, which diagnostics such as stdlib's "no erasure at ..." print.
The expected repr strings were taken from the dataclass versions."""

from __future__ import annotations

import pytest

from lrec.machine import LetK, MachineConfig, Plain, RecK, RecK2
from lrec.pcf import NumConst, PApp, PConst, PLam, PVar
from lrec.reduction import Stepped
from lrec.terms import FuelExhausted, Record, Var, Violation
from lrec.types import NAT, Lolli, MetaVar, Nat, Tensor

x = Var("x")

# (record, its fields, repr at the dataclass version; PConst has none,
# and prints the same way)
CASES = [
    (Nat(), (), "Nat()"),
    (MetaVar(3), ("id",), "MetaVar(id=3)"),
    (Lolli(NAT, MetaVar(3)), ("dom", "cod"),
     "Lolli(dom=Nat(), cod=MetaVar(id=3))"),
    (Tensor(NAT, Lolli(NAT, NAT)), ("left", "right"),
     "Tensor(left=Nat(), right=Lolli(dom=Nat(), cod=Nat()))"),
    (NumConst(4), ("n",), "NumConst(n=4)"),
    (PConst("succ"), ("name", "a"), "PConst(name='succ', a=None)"),
    (PConst("pred"), ("name", "a"), "PConst(name='pred', a=None)"),
    (PConst("iszero"), ("name", "a"), "PConst(name='iszero', a=None)"),
    (PConst("cond", NAT), ("name", "a"), "PConst(name='cond', a=Nat())"),
    (PConst("Y", Lolli(NAT, NAT)), ("name", "a"),
     "PConst(name='Y', a=Lolli(dom=Nat(), cod=Nat()))"),
    (PVar("f"), ("name",), "PVar(name='f')"),
    (PLam("x", NAT, PVar("x")), ("binder", "annot", "body"),
     "PLam(binder='x', annot=Nat(), body=PVar(name='x'))"),
    (PApp(PVar("f"), NumConst(2)), ("fun", "arg"),
     "PApp(fun=PVar(name='f'), arg=NumConst(n=2))"),
    (Plain(x), ("term",), "Plain(term=<Var 'x'>)"),
    (LetK("a", "b", x), ("x", "y", "body"),
     "LetK(x='a', y='b', body=<Var 'x'>)"),
    (RecK(x, x, x), ("base", "step", "update"),
     "RecK(base=<Var 'x'>, step=<Var 'x'>, update=<Var 'x'>)"),
    (RecK2(x, x, x, x), ("second", "base", "step", "update"),
     "RecK2(second=<Var 'x'>, base=<Var 'x'>, step=<Var 'x'>, "
     "update=<Var 'x'>)"),
    (MachineConfig(x, (Plain(x),)), ("code", "stack"),
     "MachineConfig(code=<Var 'x'>, stack=(Plain(term=<Var 'x'>),))"),
    (FuelExhausted(x), ("at",), "FuelExhausted(at=<Var 'x'>)"),
    (Violation("0.1", "c", "shared", frozenset({"x"})),
     ("path", "constraint", "kind", "names"),
     "Violation(path='0.1', constraint='c', kind='shared', "
     "names=frozenset({'x'}))"),
    (Stepped(x, "Beta", ""), ("next", "rule", "path"),
     "Stepped(next=<Var 'x'>, rule='Beta', path='')"),
]
# each constant keeps the test id the suite has always given it
_CONST_IDS = {"succ": "Succ", "pred": "Pred", "iszero": "IsZero",
              "cond": "Cond", "Y": "YComb"}
IDS = [_CONST_IDS[r.name] if type(r) is PConst else type(r).__name__
       for r, _, _ in CASES]


def _all_records(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__subclasses__():
            yield from _all_records(sub)
        else:
            yield sub


def test_every_record_class_is_covered():
    assert {type(r) for r, _, _ in CASES} == set(_all_records())


@pytest.mark.parametrize("rec,fields,text", CASES, ids=IDS)
def test_repr_text(rec, fields, text):
    assert repr(rec) == text


@pytest.mark.parametrize("rec,fields,text", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(rec, fields, text):
    cls = type(rec)
    values = tuple(getattr(rec, f) for f in fields)
    twin = cls(*values)
    assert twin is not rec and twin == rec and not twin != rec
    assert hash(twin) == hash(rec) == hash(values)
    for i in range(len(fields)):
        # set field by field: a constructor may refuse an arbitrary
        # value (PConst refuses a name its table lacks)
        other = object.__new__(cls)
        for f, v in zip(fields, (*values[:i], object(), *values[i + 1:])):
            setattr(other, f, v)
        assert other != rec and not other == rec
    # a record never equals one of another class with the same fields
    assert all(rec != r for r, _, _ in CASES if type(r) is not cls)


@pytest.mark.parametrize("rec,fields,text", CASES, ids=IDS)
def test_match_patterns(rec, fields, text):
    assert type(rec).__match_args__ == fields
    got = [f"got_{f}" for f in fields]
    for pattern in (", ".join(f"{f}={g}" for f, g in zip(fields, got)),
                    ", ".join(got)):  # keyword, then positional
        scope = {"rec": rec, "cls": type(rec)}
        exec(f"match rec:\n    case cls({pattern}):\n"
             f"        found = [{', '.join(got)}]\n"
             f"    case _:\n        found = None", scope)
        assert scope["found"] == [getattr(rec, f) for f in fields], pattern


@pytest.mark.parametrize("rec,fields,text", CASES, ids=IDS)
def test_no_attribute_beyond_the_fields(rec, fields, text):
    assert not hasattr(rec, "__dict__")
    with pytest.raises(AttributeError):
        rec.memo = True


def test_a_record_takes_exactly_its_fields():
    with pytest.raises(TypeError):
        Plain()
    with pytest.raises(TypeError):
        Lolli(NAT)

