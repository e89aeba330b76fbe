"""Job lists of the four workloads, and the reference answers they are
checked against.

Every job is one `lrec` command line, run as `lrec.cli.main(argv)` on an
input file the benchmark writes before timing starts. Jobs always start
from source text: the engines memoise "proved redex-free" flags (`nf`,
`nfm`) on term nodes, so a parsed `Term` that an earlier pass reduced
would let a later pass skip work. Parsing inside each job, as the CLI
does, keeps every pass doing the same work.

Answers are computed without the engines: `N-1`, `n!` and `m*n` in
Python, PCF programs from their definitions, `Nat` for every `check`
job, and exit code 0 with `0 disagreements` for `difftest`. Every job of
a command that takes `--fuel` passes an explicit positive budget, so a
regression that loops ends as a counted failure instead of a hang.

Each job-list function takes `draw(lo, hi, k)`, which returns k sizes from
[lo, hi]. A run draws them by stratified sampling (`strata`): the range
is cut into k equal strata and the seed picks one size inside each, then
shuffles the job order. The total work of a pass therefore barely
depends on the seed, while each seed still gives other inputs. Recording
the exact counts draws every size in the range instead (`every`).
"""

from __future__ import annotations

import math
import os
import random
import re
import shutil
from dataclasses import dataclass

WORKLOADS = ("frontend", "normalize", "readback", "difftest")

# The corpus programs that type-check; `delta.lrec` and `cond_lazy.lrec`
# are left out on purpose, so widening difftest to untypable terms does
# not change the work of the `difftest` workload.
TYPABLE_LREC = (
    "add23.lrec", "copy4.lrec", "fact4.lrec", "fix_id.lrec",
    "fst_pair.lrec", "higher_order.lrec", "id0.lrec", "iszero0.lrec",
    "iter_count.lrec", "letpair.lrec", "mult34.lrec", "pred7.lrec",
)

# Jobs per pass. The tail percentile is the highest one with at least
# ten of these beyond it, so 110 jobs give p90 with 11 beyond.
PASS_JOBS = 110

# Generated terms per difftest batch, and the number of batch seeds a
# workload seed can pick from (counts.json holds all of them).
DIFFTEST_TERMS = 30
DIFFTEST_SEEDS = 1000


@dataclass
class Job:
    key: str            # stable name of the input, the key of counts.json
    argv: list[str]
    stdout: str | None = None      # expected stdout, stripped
    stderr_has: str | None = None  # a line stderr must contain
    save_stdout: str | None = None  # write stdout here for a later job


class PrepError(Exception):
    """The benchmark could not build its inputs."""


def strata(rng: random.Random):
    """A draw that picks one size inside each of k equal strata."""
    def draw(lo: int, hi: int, k: int) -> list[int]:
        width = (hi - lo + 1) / k
        out = []
        for i in range(k):
            a = lo + int(i * width)
            b = max(a, lo + int((i + 1) * width) - 1)
            out.append(rng.randint(a, b))
        return out
    return draw


def every(lo: int, hi: int, k: int) -> list[int]:
    """A draw that returns the whole range, for recording counts."""
    return list(range(lo, hi + 1))


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _nest(depth: int) -> str:
    return "@pred (" * depth + "0" + ")" * depth


def _uses(k: int) -> str:
    """A PCF program that uses the variable f k times."""
    return ("(fun f : Nat -> Nat . " + "f (" * k + "0" + ")" * k
            + ") succ\n")


# ----------------------------------------------------------- frontend

def frontend(draw, work: str, corpus: str) -> list[list[Job]]:
    """`check` on deep `@pred` nests, `pcf compile` on programs sharing
    one variable many times, and `check` on the compiled text."""
    units: list[list[Job]] = []
    for d in draw(15, 70, 60):
        path = _write(os.path.join(work, f"nest{d}.lrec"), _nest(d))
        units.append([Job(f"check/nest/{d}", ["check", path], "Nat")])
    for k in draw(10, 40, 25):
        src = _write(os.path.join(work, f"uses{k}.pcf"), _uses(k))
        out = os.path.join(work, f"uses{k}.lrec")
        units.append([
            Job(f"pcf-compile/uses/{k}", ["pcf", "compile", src],
                save_stdout=out),
            Job(f"check/compiled-uses/{k}", ["check", out], "Nat"),
        ])
    return units


# ---------------------------------------------------------- normalize

def normalize(draw, work: str, corpus: str,
              lin_pred_text) -> list[list[Job]]:
    """Leftmost-outermost normalisation of `@pred N`, and of the
    iterator calculus's `lin_pred` applied to a numeral."""
    units = []
    for n in draw(6, 16, 90):
        path = _write(os.path.join(work, f"pred{n}.lrec"), f"@pred {n}")
        units.append([Job(f"normalize/pred/{n}",
                          ["normalize", "--fuel", str(10 * n * n + 1000),
                           path], str(n - 1))])
    for n in draw(4, 16, 20):
        path = os.path.join(work, f"lin_pred{n}.lrec")
        if not os.path.exists(path):
            _write(path, lin_pred_text(n))
        units.append([Job(f"normalize-llcim/lin_pred/{n}",
                          ["normalize", "--calculus", "llcim", "--fuel",
                           str(100 * n * n + 1000), path],
                          str(max(n - 1, 0)))])
    return units


# ----------------------------------------------------------- readback

_ENGINES = (
    ("eval-cbn", ["eval", "--force-nat"]),
    ("eval-cbv", ["eval", "--force-nat", "--strategy", "cbv"]),
    ("machine", ["machine", "--force-nat"]),
)

# Call-by-value on compiled PCF exceeds Python's recursion limit in
# `_eval` on the seed code, so compiled programs run under call-by-name
# and the machine only.
_COMPILED_ENGINES = (_ENGINES[0], _ENGINES[2])


def _fact_source(corpus: str, k: int) -> str:
    with open(os.path.join(corpus, "fact.pcf")) as fh:
        text = fh.read()
    out, hits = re.subn(r"main = @fact \d+", f"main = @fact {k}", text)
    if hits != 1:
        raise PrepError("corpus/fact.pcf has no `main = @fact N` line")
    return out


def readback(draw, work: str, corpus: str,
             compile_pcf) -> list[list[Job]]:
    """`eval --force-nat` (cbn, cbv) and `machine --force-nat` on catalog
    arithmetic and on compiled PCF, plus the PCF reference evaluator."""
    units = []

    def engines(key, path, answer, fuel, table=_ENGINES):
        for name, argv in table:
            units.append([Job(f"{name}/{key}",
                              argv + ["--fuel", str(fuel), path],
                              str(answer))])

    for n in draw(30, 90, 10):
        path = _write(os.path.join(work, f"pred{n}.lrec"), f"@pred {n}")
        engines(f"pred/{n}", path, n - 1, 50 * n * n + 10_000)
    for n in draw(3, 6, 4):
        path = _write(os.path.join(work, f"factorial{n}.lrec"),
                      f"@factorial {n}")
        engines(f"factorial/{n}", path, math.factorial(n), 1_000_000)
    # factor pairs in order of their product, so strata bound the work
    pairs = sorted(((m, n) for m in range(4, 13) for n in range(4, 13)),
                   key=lambda mn: (mn[0] * mn[1], mn))
    for i in draw(0, len(pairs) - 1, 20):
        m, n = pairs[i]
        path = _write(os.path.join(work, f"mult{m}_{n}.lrec"),
                      f"@mult {m} {n}")
        engines(f"mult/{m}/{n}", path, m * n, 1_000_000)

    # compiled PCF: factorial 3 by textbook recursion (corpus as is), and
    # the Church-numeral factorial of corpus/fact.pcf at k = 2 and 3
    programs = [("fact3_plain", os.path.join(corpus, "fact3_plain.pcf"), 6)]
    for k in (2, 3):
        path = _write(os.path.join(work, f"fact{k}.pcf"),
                      _fact_source(corpus, k))
        programs.append((f"fact-{k}", path, math.factorial(k)))
    for name, src, answer in programs:
        compiled = _write(os.path.join(work, f"{name}.compiled.lrec"),
                          compile_pcf(src))
        engines(f"{name}-compiled", compiled, answer, 5_000_000,
                _COMPILED_ENGINES)
        units.append([Job(f"pcf-eval/{name}",
                          ["pcf", "eval", "--fuel", "1000000", src],
                          str(answer))])
    return units


# ----------------------------------------------------------- difftest

def difftest(draw, work: str, corpus: str,
             batch_work: dict[int, int]) -> list[list[Job]]:
    """Batches of generated terms, each with its own seed, plus one pass
    over the typable corpus programs.

    Batch seeds are put in order of the work their batch did at the
    seed commit (`batch_work`, from counts.json; seeds it lacks go
    last), so the strata give every pass the same mix of cheap and
    costly batches. The generated terms' cost is heavy-tailed, and
    without this the mix alone moves a pass's time by a tenth."""
    typable = os.path.join(work, "typable")
    empty = os.path.join(work, "empty")
    os.makedirs(typable, exist_ok=True)
    os.makedirs(empty, exist_ok=True)
    for name in TYPABLE_LREC:
        shutil.copyfile(os.path.join(corpus, name),
                        os.path.join(typable, name))
    ok = "0 disagreements"
    units = [[Job("difftest/corpus",
                  ["difftest", typable, "--seed", "0", "--n", "0",
                   "--fuel", "100000"], stderr_has=ok)]]
    seeds = sorted(range(DIFFTEST_SEEDS),
                   key=lambda s: (batch_work.get(s, math.inf), s))
    for i in draw(0, DIFFTEST_SEEDS - 1, PASS_JOBS - 1):
        s = seeds[i]
        units.append([Job(f"difftest/batch/{s}",
                          ["difftest", empty, "--seed", str(s), "--n",
                           str(DIFFTEST_TERMS), "--fuel", "100000"],
                          stderr_has=ok)])
    return units
