"""Command-line driver.

Subcommands: check, eval, machine, normalize, stdlib, pcf
{check,eval,compile}, difftest. Results go to stdout; every diagnostic
goes to stderr. Exit codes: 0 success, 1 input errors (parse,
linearity, typing) and difftest disagreement, 2 fuel exhaustion, 3
stuck terms.

Run reports are JSON lines with a fixed field order — command, input
digest, outcome, fuel used, wall time. difftest streams them to
stdout; the other commands append to --report PATH. Identical inputs
give byte-identical reports except the wall-time field.

The default fuel is 10^5 rule instances, overridable with LREC_FUEL;
a negative or malformed budget is bad input. Every engine runs through
`_engine`, which reads the count from a fresh `Fuel` cell, and every
outcome, PCF's reference value included, is turned into its record,
exit code and message by one function, `_settle`. difftest gives the
compiled side of PCF comparisons 100x the fuel: the encodings spend a
recursor loop per source step, so equal budgets would misreport
slow-but-sound compilations as divergent.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
import time

from .evaluation import eval_report, force_numeral
from .gen import random_closed
from .machine import MachineConfig, machine_force_numeral, run
from .minext import mtype, normalize_m
from .parser import LinearityError, ParseError, parse_defs, parse_type
from .pcf import (NumConst, PcfTerm, compile_pcf, parse_pcf_defs, pcf_check,
                  pcf_eval, pcf_fv, pcf_pretty, pcf_type_pretty)
from .reduction import normalize
from .stdlib import catalog_lookup, catalog_names
from .terms import (ContractViolation, Fuel, FuelExhausted, Lam, Pair, Stuck,
                    Term, alpha_eq, numeral_value, pretty)
from .types import (EnvDomainError, Lolli, MetaVar, Nat, Tensor, TypingError,
                    infer, type_pretty)


def _fuel(given: int | None) -> int:
    """The budget: --fuel, else LREC_FUEL, else 10^5."""
    where, value = "--fuel", given
    if given is None:
        where, value = "LREC_FUEL", os.environ.get("LREC_FUEL", "100000")
    try:
        fuel = int(value)
    except ValueError:
        fuel = -1
    if fuel < 0:
        raise ContractViolation(
            f"{where} must be a non-negative integer, got {value!r}")
    return fuel


def _fail(msg: str, code: int) -> int:
    print(msg, file=sys.stderr)
    return code


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _record(command: str, digest: str, outcome: str,
            fuel_used: int | None, wall_ms: float) -> str:
    rec = {"command": command, "input": digest, "outcome": outcome,
           "fuel_used": fuel_used, "wall_ms": round(wall_ms, 3)}
    return json.dumps(rec)


def _report(args, outcome: str, fuel_used: int | None, wall_ms: float,
            digest: str):
    path = getattr(args, "report", None)
    if path:
        with open(path, "a") as fh:
            fh.write(_record(args.command, digest, outcome, fuel_used,
                             wall_ms) + "\n")


def _resolver(name: str, arg: str | None) -> Term | None:
    return catalog_lookup(name, parse_type(arg) if arg is not None else None)


def _text(data: bytes) -> str:
    """Source bytes as text; a byte that is not UTF-8 is a syntax error."""
    try:
        return data.decode()
    except UnicodeDecodeError as e:
        raise ParseError(f"input is not UTF-8 ({e.reason})",
                         data.count(b"\n", 0, e.start) + 1,
                         e.start - data.rfind(b"\n", 0, e.start)) from None


def _load(path: str, calculus: str) -> tuple[Term, str]:
    with open(path, "rb") as fh:
        data = fh.read()
    _, prog = parse_defs(_text(data), calculus, _resolver)
    return prog, _digest(data)


def _load_pcf(path: str):
    with open(path, "rb") as fh:
        data = fh.read()
    _, prog = parse_pcf_defs(_text(data))
    return prog, data


def _timed(fn, *args, **kwargs):
    """fn's result and its wall time in ms."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, (time.perf_counter() - t0) * 1000


def _engine(fn, t, fuel: int, *args, **kwargs):
    """(outcome, fuel used, wall ms) of fn on a fresh cell. Callers name
    fn at call time, so a wrapper installed on this module sees it."""
    cell = Fuel(fuel)
    out, wall = _timed(fn, t, cell, *args, **kwargs)
    return out, fuel - cell.remaining, wall


def _settle(out, fuel: int, used: int | None, word: str,
            noun: str = "value") -> tuple[str, int | None, int, str]:
    """An engine outcome as (record text, fuel_used, exit code, message).
    The message is the result on exit 0 and the diagnostic otherwise.
    `word` names a success in the record: value, halted or normal-form.
    A readback's None (not a number) is stuck; `noun` names its result.
    A result prints by its type: a number, a PCF value or a term."""
    if isinstance(out, FuelExhausted):
        return "fuel-exhausted", fuel, 2, f"fuel exhausted after {fuel}"
    if isinstance(out, Stuck):
        if isinstance(out.at, MachineConfig):
            return ("stuck", used, 3, f"stuck at {pretty(out.at.code)} with "
                                      f"|stack|={len(out.at.stack)}")
        return (f"stuck: {out.reason}", used, 3,
                f"stuck: {out.reason}: {pretty(out.at)}")
    if out is None:
        return "stuck", used, 3, f"the {noun} is not a number"
    text = (str(out) if isinstance(out, int) else
            pcf_pretty(out) if isinstance(out, PcfTerm) else pretty(out))
    return f"{word} {text}", used, 0, text


def _finish(args, digest: str, wall: float, out, used: int | None,
            word: str, noun: str = "value") -> int:
    """Print an engine's result or diagnostic and append its report."""
    record, fuel_used, code, text = _settle(out, args.fuel, used, word, noun)
    print(text, file=sys.stdout if code == 0 else sys.stderr)
    _report(args, record, fuel_used, wall, digest)
    return code


# ------------------------------------------------------------- commands

def cmd_check(args) -> int:
    t, digest = _load(args.file, args.calculus)
    a, wall = _timed(mtype if args.calculus == "llcim" else infer, t, [])
    out = type_pretty(a, ground=args.ground)
    print(out)
    _report(args, f"type {out}", None, wall, digest)
    return 0


def cmd_eval(args) -> int:
    t, digest = _load(args.file, "lrec")
    cbv = args.strategy == "cbv"
    if args.force_nat:
        got, used, wall = _engine(force_numeral, t, args.fuel, cbv=cbv)
        return _finish(args, digest, wall, got, used, "value")
    out, used, wall = _engine(eval_report, t, args.fuel, cbv=cbv,
                              literal_let=args.literal_let)
    return _finish(args, digest, wall, out, used, "value")


def cmd_machine(args) -> int:
    t, digest = _load(args.file, "lrec")
    if args.force_nat:
        got, used, wall = _engine(machine_force_numeral, t, args.fuel)
        return _finish(args, digest, wall, got, used, "value", "machine value")
    trace = ((lambda i, rule, config:
              print(f"{i} {rule} |stack|={len(config.stack)} "
                    f"{pretty(config.code)}"))
             if args.trace else None)
    out, used, wall = _engine(run, t, args.fuel, on_step=trace)
    return _finish(args, digest, wall, out, used, "halted")


def cmd_normalize(args) -> int:
    t, digest = _load(args.file, args.calculus)
    trace = ((lambda i, rule, path, term:
              print(f"{i} {rule} {path or 'root'} {pretty(term)}"))
             if args.trace else None)
    engine = normalize_m if args.calculus == "llcim" else normalize
    out, used, wall = _engine(engine, t, args.fuel, on_step=trace)
    return _finish(args, digest, wall, out, used, "normal-form")


def cmd_stdlib(args) -> int:
    a = parse_type(args.type) if args.type else None
    t = catalog_lookup(args.name, a)
    if t is None:
        return _fail(
            f"unknown catalog entry {args.name!r}"
            + (" (this entry needs --type)" if a is None
               and catalog_lookup(args.name, Nat()) is not None else "")
            + f"; available: {', '.join(catalog_names())}", 1)
    print(pretty(t))
    return 0


def cmd_pcf_check(args) -> int:
    prog, _ = _load_pcf(args.file)
    print(pcf_type_pretty(pcf_check(prog, {})))
    return 0


def cmd_pcf_eval(args) -> int:
    prog, data = _load_pcf(args.file)
    pcf_check(prog, {})
    v, used, wall = _engine(pcf_eval, prog, args.fuel)
    return _finish(args, _digest(data), wall, v, used, "value")


def cmd_pcf_compile(args) -> int:
    prog, _ = _load_pcf(args.file)
    print(pretty(compile_pcf(prog, [])))
    return 0


# ------------------------------------------------------------- difftest

def _shape_ok(t: Term, a) -> bool:
    """Adequacy: a closed normal form has the shape its type dictates."""
    if isinstance(a, MetaVar):
        return True
    if isinstance(a, Nat):
        return numeral_value(t) is not None
    if isinstance(a, Lolli):
        return isinstance(t, Lam)
    if isinstance(a, Tensor):
        return (isinstance(t, Pair) and _shape_ok(t.left, a.left)
                and _shape_ok(t.right, a.right))
    return False


def _difftest_term(t: Term, a, fuel: int, digest: str,
                   emit) -> str | None:
    """Run the three engines; None when they agree, else a complaint."""
    norm, used, wall = _engine(normalize, t, fuel)
    emit("difftest/normalize", digest,
         *_settle(norm, fuel, used, "normal-form")[:2], wall)
    ev, used, wall = _engine(eval_report, t, fuel)
    emit("difftest/eval", digest, *_settle(ev, fuel, used, "value")[:2], wall)
    mc, used, wall = _engine(run, t, fuel)
    emit("difftest/machine", digest,
         *_settle(mc, fuel, used, "halted")[:2], wall)

    if isinstance(ev, Term) != isinstance(mc, Term):
        return "machine and eval_cbn disagree on convergence"
    if isinstance(ev, Term) and not alpha_eq(ev, mc):
        return "machine and eval_cbn values differ"
    if not isinstance(norm, FuelExhausted):
        if not _shape_ok(norm, a):
            return (f"normal form {pretty(norm)} does not match the shape "
                    f"of type {type_pretty(a)}")
        if isinstance(ev, Term):
            joined = _engine(normalize, ev, fuel)[0]
            if not isinstance(joined, Term) or not alpha_eq(joined, norm):
                return "eval_cbn value does not rejoin the normal form"
    return None


def cmd_difftest(args) -> int:
    def emit(command, digest, outcome, fuel_used, wall_ms):
        line = _record(command, digest, outcome, fuel_used, wall_ms)
        print(line)

    def skip(name, reason):
        nonlocal skipped
        print(f"skipped {name}: {reason}", file=sys.stderr)
        emit("difftest/skip", _digest(name.encode()), f"skipped: {reason}",
             None, 0.0)
        skipped += 1

    bad: list[str] = []
    skipped = 0
    entries = 0
    names = sorted(os.listdir(args.dir)) if os.path.isdir(args.dir) else None
    if names is None:
        return _fail(f"not a directory: {args.dir}", 1)

    for name in names:
        full = os.path.join(args.dir, name)
        if name.endswith(".lrec"):
            entries += 1
            try:
                t, digest = _load(full, "lrec")
                a = infer(t, [])
            except (ParseError, LinearityError, TypingError, OSError) as e:
                skip(name, e)
                continue
            complaint = _difftest_term(t, a, args.fuel, digest, emit)
            if complaint:
                bad.append(f"{name}: {complaint}: {pretty(t)}")
        elif name.endswith(".pcf"):
            entries += 1
            try:
                prog, data = _load_pcf(full)
                if pcf_fv(prog):
                    raise ParseError("program is open", 1, 1)
                pa = pcf_check(prog, {})
            except (ParseError, TypingError, OSError) as e:
                skip(name, e)
                continue
            if not isinstance(pa, Nat):
                skip(name, "not of ground type")
                continue
            digest = _digest(data)
            ref, used, wall = _engine(pcf_eval, prog, args.fuel)
            ref_n = ref.n if isinstance(ref, NumConst) else None
            emit("difftest/pcf-ref", digest,
                 *_settle(ref, args.fuel, used, "value")[:2], wall)
            got, used, wall = _engine(force_numeral, compile_pcf(prog, []),
                                      args.fuel * 100)
            emit("difftest/pcf-compiled", digest,
                 *_settle(got, args.fuel * 100, used, "value")[:2], wall)
            comp_n = None if isinstance(got, FuelExhausted) else got
            if ref_n != comp_n:
                src = data.decode().strip()
                bad.append(f"{name}: reference {ref_n} vs compiled "
                           f"{comp_n}: {src}")

    rng = random.Random(args.seed)
    for i in range(args.n):
        t, a = random_closed(rng)
        digest = _digest(pretty(t).encode())
        complaint = _difftest_term(t, a, args.fuel, digest, emit)
        if complaint:
            bad.append(f"generated #{i} (seed {args.seed}): {complaint}: "
                       f"{pretty(t)}")

    for b in bad:
        print(f"disagreement: {b}", file=sys.stderr)
    print(f"difftest: {entries} corpus entries ({skipped} skipped), "
          f"{args.n} generated terms, {len(bad)} disagreements",
          file=sys.stderr)
    return 1 if bad else 0


# ----------------------------------------------------------------- main

@functools.cache  # built on first use, not at import
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lrec",
        description="Linear λ-calculus with a recursor: typing, "
                    "reduction, evaluators, a stack machine, and a PCF "
                    "compiler.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fuel=True, report=True):
        if fuel:
            p.add_argument("--fuel", type=int,
                           help="rule-instance budget (default 10^5, "
                                "env LREC_FUEL)")
        if report:
            p.add_argument("--report", metavar="PATH",
                           help="append a JSON run record to PATH")

    p = sub.add_parser("check", help="parse, linearity, typing; print type")
    p.add_argument("file")
    p.add_argument("--calculus", choices=["lrec", "llcim"], default="lrec")
    p.add_argument("--ground", action="store_true",
                   help="instantiate leftover type variables to Nat")
    common(p, fuel=False)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("eval", help="big-step evaluation to weak head "
                                    "normal form")
    p.add_argument("file")
    p.add_argument("--strategy", choices=["cbn", "cbv"], default="cbn")
    p.add_argument("--force-nat", action="store_true",
                   help="force the result hereditarily to a number")
    p.add_argument("--literal-let", action="store_true",
                   help="evaluate let by double application instead of "
                        "simultaneous substitution")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("machine", help="run the stack machine")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true",
                   help="print one line per transition")
    p.add_argument("--force-nat", action="store_true")
    common(p)
    p.set_defaults(func=cmd_machine)

    p = sub.add_parser("normalize", help="leftmost-outermost reduction "
                                         "to normal form")
    p.add_argument("file")
    p.add_argument("--calculus", choices=["lrec", "llcim"], default="lrec")
    p.add_argument("--trace", action="store_true",
                   help="print one line per step")
    common(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("stdlib", help="print a catalog encoding")
    p.add_argument("name", help="entry name, e.g. add or Y")
    p.add_argument("--type", help="type argument for indexed entries, "
                                  "e.g. 'Nat -o Nat'")
    p.set_defaults(func=cmd_stdlib)

    pcfp = sub.add_parser("pcf", help="PCF frontend")
    pcfsub = pcfp.add_subparsers(dest="pcf_command", required=True)
    p = pcfsub.add_parser("check", help="type-check a PCF program")
    p.add_argument("file")
    p.set_defaults(func=cmd_pcf_check)
    p = pcfsub.add_parser("eval", help="reference CBN evaluation")
    p.add_argument("file")
    common(p, report=False)
    p.set_defaults(func=cmd_pcf_eval)
    p = pcfsub.add_parser("compile", help="compile into the linear "
                                          "calculus and print the term")
    p.add_argument("file")
    p.set_defaults(func=cmd_pcf_compile)

    p = sub.add_parser("difftest", help="run corpus and generated terms "
                                        "through every engine and compare")
    p.add_argument("dir", help="corpus directory (*.lrec, *.pcf)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n", type=int, default=300,
                   help="number of generated terms")
    common(p, report=False)
    p.set_defaults(func=cmd_difftest)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if "fuel" in args:
            args.fuel = _fuel(args.fuel)
        return args.func(args)
    except (ParseError, LinearityError) as e:
        return _fail(f"syntax: {e}", 1)
    except EnvDomainError as e:
        return _fail(f"scope: {e}", 1)
    except TypingError as e:
        return _fail(f"typing: {e}", 1)
    except ContractViolation as e:
        return _fail(f"invalid input: {e}", 1)
    except RecursionError:  # the front end's walks still recurse
        return _fail("invalid input: nested too deeply", 1)
    except OSError as e:
        return _fail(str(e), 1)


if __name__ == "__main__":
    sys.exit(main())
