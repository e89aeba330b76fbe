"""Command-line driver.

Subcommands: check, eval, machine, normalize, stdlib, pcf
{check,eval,compile}, difftest. Results go to stdout; every diagnostic
goes to stderr. Exit codes: 0 success, 1 bad input (a flag argparse or
the command rejects, parse, linearity, typing) and difftest
disagreement, 2 fuel exhaustion, 3 stuck terms.

Run reports are JSON lines with a fixed field order — command, input
digest, outcome, fuel used, wall time. difftest streams them to
stdout; the other commands append to --report PATH. Identical inputs
give byte-identical reports except the wall-time field. A command
carries its input's bytes, and only `_record` turns them into the
sha256 digest: the digest is taken, and hashlib and json are imported,
where a record is written, so a run without one pays for neither.

The command tree is one table, `COMMANDS`: a row's words, help text,
handler and arguments; `_build_parser` builds argparse from it. The
default fuel is 10^5 rule instances, overridable with LREC_FUEL;
`_fuel` alone checks a budget, and one that is not a run of ASCII
digits is bad input. Every engine run, PCF's reference evaluator and
difftest's records included, goes through `_engine`, which runs it on a
fresh `Fuel` cell and turns its outcome into a record, an exit code and
a message, printed or streamed. difftest gives the compiled side of PCF
comparisons 100x the fuel: the encodings spend a recursor loop per
source step, so equal budgets would misreport slow-but-sound
compilations as divergent.

`main` runs a command with generation 0 of the cyclic collector
waiting for `GC_GEN0` net allocations instead of the default 700, and
gives the caller's thresholds back however it returns.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
import time

from .evaluation import eval_report, force_numeral
from .gen import random_closed
from .machine import MachineConfig, machine_force_numeral, run
from .minext import mtype, normalize_m
from .parser import LinearityError, ParseError, parse_defs, parse_type
from .pcf import (NumConst, PcfTerm, compile_pcf, parse_pcf_defs, pcf_check,
                  pcf_eval, pcf_pretty, pcf_type_pretty)
from .reduction import normalize
from .stdlib import catalog_lookup, catalog_misuse, catalog_names
from .terms import (ContractViolation, Fuel, FuelExhausted, Lam, Pair, Stuck,
                    Term, alpha_eq, freshen, numeral_value, pretty)
from .types import (EnvDomainError, Lolli, MetaVar, Nat, Tensor, TypingError,
                    infer, type_pretty)


def _fuel(given: str | None) -> int:
    """The budget: --fuel, else LREC_FUEL, else 10^5. It must be a run
    of ASCII digits."""
    where, value = "--fuel", given
    if given is None:
        where, value = "LREC_FUEL", os.environ.get("LREC_FUEL", "100000")
    try:
        if value.isascii() and value.isdigit():  # as the lexer reads a numeral
            return int(value)
    except ValueError:  # more digits than int() converts
        pass
    raise ContractViolation(
        f"{where} must be a non-negative integer, got {value!r}")


def _fail(msg: str, code: int) -> int:
    print(msg, file=sys.stderr)
    return code


def _record(command: str, source: bytes, outcome: str,
            fuel_used: int | None, wall_ms: float) -> str:
    """A run record; `input` is the sha256 of the source bytes. hashlib
    and json load here, with the first record, not at import."""
    import hashlib
    import json
    rec = {"command": command, "input": hashlib.sha256(source).hexdigest(),
           "outcome": outcome, "fuel_used": fuel_used,
           "wall_ms": round(wall_ms, 3)}
    return json.dumps(rec)


def _report(args, outcome: str, fuel_used: int | None, wall_ms: float,
            source: bytes):
    path = getattr(args, "report", None)
    if path:
        with open(path, "a") as fh:
            fh.write(_record(args.command, source, outcome, fuel_used,
                             wall_ms) + "\n")


def _read(path: str) -> tuple[str, bytes]:
    """A file's text and bytes; a byte that is not UTF-8 is a syntax
    error."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode(), data
    except UnicodeDecodeError as e:
        raise ParseError(f"input is not UTF-8 ({e.reason})",
                         data.count(b"\n", 0, e.start) + 1,
                         e.start - data.rfind(b"\n", 0, e.start)) from None


def _load(path: str, calculus: str) -> tuple[Term, bytes]:
    """The named program of a definition file, for a command that
    prints terms, and the file's bytes."""
    text, data = _read(path)
    return freshen(parse_defs(text, calculus)[1]), data


def _load_pcf(path: str):
    text, data = _read(path)
    return parse_pcf_defs(text)[1], data


def _engine(args, source: bytes, fn, t, word: str = "value",
            noun: str = "value", fuel: int | None = None,
            stream: str | None = None, **kwargs):
    """Run engine fn on t with a fresh cell of `fuel` (args.fuel by
    default) and settle its outcome; return it with its exit code.
    `word` names a success in the record: value, halted or normal-form.
    A readback's None (not a number) is stuck; `noun` names its result.
    A result prints by its type: a number, a PCF value or a term. A
    command appends its --report record, then prints the result, or on a
    nonzero code the diagnostic; difftest names its record `stream` and
    prints only that. Callers name fn at call time, so a wrapper
    installed on this module sees it."""
    fuel = args.fuel if fuel is None else fuel
    cell = Fuel(fuel)
    t0 = time.perf_counter()
    out = fn(t, cell, **kwargs)
    wall = (time.perf_counter() - t0) * 1000
    used = fuel - cell.remaining
    if isinstance(out, FuelExhausted):
        rec, used, code, text = ("fuel-exhausted", fuel, 2,
                                 f"fuel exhausted after {fuel}")
    elif isinstance(out, Stuck) and isinstance(out.at, MachineConfig):
        rec, code, text = "stuck", 3, (f"stuck at {pretty(out.at.code)} "
                                       f"with |stack|={len(out.at.stack)}")
    elif isinstance(out, Stuck):
        rec, code = f"stuck: {out.reason}", 3
        text = f"stuck: {out.reason}: {pretty(out.at)}"
    elif out is None:
        rec, code, text = "stuck", 3, f"the {noun} is not a number"
    else:
        text = (str(out) if isinstance(out, int) else
                pcf_pretty(out) if isinstance(out, PcfTerm) else pretty(out))
        rec, code = f"{word} {text}", 0
    if stream:
        print(_record(stream, source, rec, used, wall))
    else:
        _report(args, rec, used, wall, source)
        print(text, file=sys.stdout if code == 0 else sys.stderr)
    return out, code


# ------------------------------------------------------------- commands

def cmd_check(args) -> int:
    text, data = _read(args.file)
    t = parse_defs(text, args.calculus)[1]  # typing needs no names
    typer = mtype if args.calculus == "llcim" else infer
    t0 = time.perf_counter()
    try:
        a = typer(t, [])
    except TypingError:  # worded on the named term, as printed
        a = typer(freshen(t), [])
    out = type_pretty(a, ground=args.ground)
    _report(args, f"type {out}", None, (time.perf_counter() - t0) * 1000,
            data)
    print(out)
    return 0


def cmd_eval(args) -> int:
    t, data = _load(args.file, "lrec")
    return _engine(args, data,
                   force_numeral if args.force_nat else eval_report, t,
                   cbv=args.strategy == "cbv",
                   literal_let=args.literal_let)[1]


def cmd_machine(args) -> int:
    if args.trace and args.force_nat:
        raise ContractViolation("--trace excludes --force-nat")
    t, data = _load(args.file, "lrec")
    if args.force_nat:
        return _engine(args, data, machine_force_numeral, t,
                       noun="machine value")[1]
    trace = ((lambda i, rule, config:
              print(f"{i} {rule} |stack|={len(config.stack)} "
                    f"{pretty(config.code)}"))
             if args.trace else None)
    return _engine(args, data, run, t, "halted", on_step=trace)[1]


def cmd_normalize(args) -> int:
    t, data = _load(args.file, args.calculus)
    trace = ((lambda i, rule, path, term:
              print(f"{i} {rule} {path or 'root'} {pretty(term)}"))
             if args.trace else None)
    engine = normalize_m if args.calculus == "llcim" else normalize
    return _engine(args, data, engine, t, "normal-form", on_step=trace)[1]


def cmd_stdlib(args) -> int:
    a = parse_type(args.type) if args.type is not None else None
    t = catalog_lookup(args.name, a)
    if t is None:
        misuse = catalog_misuse(args.name, a is not None)
        if misuse:
            return _fail(f"catalog entry {args.name!r} {misuse} --type", 1)
        return _fail(f"unknown catalog entry {args.name!r}; available: "
                     f"{', '.join(catalog_names())}", 1)
    print(pretty(t))
    return 0


def cmd_pcf_check(args) -> int:
    prog, _ = _load_pcf(args.file)
    print(pcf_type_pretty(pcf_check(prog, {})))
    return 0


def cmd_pcf_eval(args) -> int:
    prog, data = _load_pcf(args.file)
    pcf_check(prog, {})
    return _engine(args, data, pcf_eval, prog)[1]


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


def _difftest_term(args, t: Term, a, source: bytes) -> str | None:
    """Run the three engines; None when they agree, else a complaint."""
    norm = _engine(args, source, normalize, t, "normal-form",
                   stream="difftest/normalize")[0]
    ev = _engine(args, source, eval_report, t, stream="difftest/eval")[0]
    mc = _engine(args, source, run, t, "halted", stream="difftest/machine")[0]

    if isinstance(ev, Term) != isinstance(mc, Term):
        return "machine and eval_cbn disagree on convergence"
    if isinstance(ev, Term) and not alpha_eq(ev, mc):
        return "machine and eval_cbn values differ"
    if not isinstance(norm, FuelExhausted):
        if not _shape_ok(norm, a):
            return (f"normal form {pretty(norm)} does not match the shape "
                    f"of type {type_pretty(a)}")
        if isinstance(ev, Term):
            joined = normalize(ev, args.fuel)
            if not isinstance(joined, Term) or not alpha_eq(joined, norm):
                return "eval_cbn value does not rejoin the normal form"
    return None


def cmd_difftest(args) -> int:
    def skip(name, reason):
        nonlocal skipped
        if isinstance(reason, RecursionError):  # the front end recursed
            reason = "nested too deeply"
        print(f"skipped {name}: {reason}", file=sys.stderr)
        print(_record("difftest/skip", name.encode(),
                      f"skipped: {reason}", None, 0.0))
        skipped += 1

    if args.n < 0:
        raise ContractViolation(f"--n must be non-negative, got {args.n}")
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
                t, data = _load(full, "lrec")
                a = infer(t, [])
            except (ParseError, LinearityError, TypingError, OSError,
                    RecursionError) as e:
                skip(name, e)
                continue
            complaint = _difftest_term(args, t, a, data)
            if complaint:
                bad.append(f"{name}: {complaint}: {pretty(t)}")
        elif name.endswith(".pcf"):
            entries += 1
            try:
                prog, data = _load_pcf(full)
                pa = pcf_check(prog, {})
            except (ParseError, TypingError, OSError, RecursionError) as e:
                skip(name, e)
                continue
            if not isinstance(pa, Nat):
                skip(name, "not of ground type")
                continue
            ref = _engine(args, data, pcf_eval, prog,
                          stream="difftest/pcf-ref")[0]
            ref_n = ref.n if isinstance(ref, NumConst) else None
            got = _engine(args, data, force_numeral, compile_pcf(prog, []),
                          fuel=args.fuel * 100,
                          stream="difftest/pcf-compiled")[0]
            comp_n = None if isinstance(got, FuelExhausted) else got
            if ref_n != comp_n:
                src = data.decode().strip()
                bad.append(f"{name}: reference {ref_n} vs compiled "
                           f"{comp_n}: {src}")

    import random  # only difftest draws terms
    rng = random.Random(args.seed)
    for i in range(args.n):
        t, a = random_closed(rng)
        complaint = _difftest_term(args, t, a, pretty(t).encode())
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

def _arg(*names, **kwargs):
    return names, kwargs


FILE = _arg("file")
CALCULUS = _arg("--calculus", choices=["lrec", "llcim"], default="lrec")
FUEL = _arg("--fuel", help="rule-instance budget (default 10^5, env "
                           "LREC_FUEL)")
REPORT = _arg("--report", metavar="PATH",
              help="append a JSON run record to PATH")

# (words, help, handler, arguments); a row with no handler is a group
# whose subcommands follow it
COMMANDS = (
    (("check",), "parse, linearity, typing; print type", cmd_check,
     (FILE, CALCULUS, _arg("--ground", action="store_true",
                           help="instantiate leftover type variables to "
                                "Nat"), REPORT)),
    (("eval",), "big-step evaluation to weak head normal form", cmd_eval,
     (FILE, _arg("--strategy", choices=["cbn", "cbv"], default="cbn"),
      _arg("--force-nat", action="store_true",
           help="force the result hereditarily to a number"),
      _arg("--literal-let", action="store_true",
           help="evaluate let by double application instead of "
                "simultaneous substitution"), FUEL, REPORT)),
    (("machine",), "run the stack machine", cmd_machine,
     (FILE, _arg("--trace", action="store_true",
                 help="print one line per transition"),
      _arg("--force-nat", action="store_true"), FUEL, REPORT)),
    (("normalize",), "leftmost-outermost reduction to normal form",
     cmd_normalize, (FILE, CALCULUS, _arg("--trace", action="store_true",
                                          help="print one line per step"),
                     FUEL, REPORT)),
    (("stdlib",), "print a catalog encoding", cmd_stdlib,
     (_arg("name", help="entry name, e.g. add or Y"),
      _arg("--type", help="type argument for indexed entries, e.g. "
                          "'Nat -o Nat'"))),
    (("pcf",), "PCF frontend", None, ()),
    (("pcf", "check"), "type-check a PCF program", cmd_pcf_check, (FILE,)),
    (("pcf", "eval"), "reference CBN evaluation", cmd_pcf_eval,
     (FILE, FUEL)),
    (("pcf", "compile"), "compile into the linear calculus and print the "
                         "term", cmd_pcf_compile, (FILE,)),
    (("difftest",), "run corpus and generated terms through every engine "
                    "and compare", cmd_difftest,
     (_arg("dir", help="corpus directory (*.lrec, *.pcf)"),
      _arg("--seed", type=int, default=42),
      _arg("--n", type=int, default=300, help="number of generated terms"),
      FUEL)),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad usage is bad input: one line, exit 1
        raise ContractViolation(f"{self.prog}: {message}")


@functools.cache  # built on first use, not at import
def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="lrec", description="Linear λ-calculus with a "
                 "recursor: typing, reduction, evaluators, a stack machine, "
                 "and a PCF compiler.")
    groups = {(): ap.add_subparsers(dest="command", required=True)}
    for words, text, func, arguments in COMMANDS:
        p = groups[words[:-1]].add_parser(words[-1], help=text)
        for names, kwargs in arguments:
            p.add_argument(*names, **kwargs)
        if func is None:
            groups[words] = p.add_subparsers(
                dest="_".join(words + ("command",)), required=True)
        else:
            p.set_defaults(func=func)
    return ap


# Generation 0's collection threshold while a command runs, in net
# allocations. A term is an acyclic tree that reference counting frees,
# so a collection finds no garbage in one and only rescans it; cyclic
# garbage (a traceback, say) still waits for at most this many. On the
# front end, 30,000 to 1,000,000 ran equally fast and 10,000 about 4%
# slower.
GC_GEN0 = 100_000


def main(argv=None) -> int:
    thresholds = gc.get_threshold()
    if 0 < thresholds[0] < GC_GEN0:  # 0: the caller turned collection off
        gc.set_threshold(GC_GEN0, *thresholds[1:])
    try:
        args = _build_parser().parse_args(argv)
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
    finally:
        gc.set_threshold(*thresholds)


if __name__ == "__main__":
    sys.exit(main())
