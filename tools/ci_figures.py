"""Print the figures CI adds to its summary, one line each.

Every figure runs a fresh interpreter per sample, as a user starts one,
and none is a gate. In order: the import time of lrec.cli, `check` of the
2,000- and 5,000-deep `@pred` nests and of the wide lambda nest, `check`
and `eval` of a chain of 600 definitions that each splice the one
before, and `pcf compile` of the 200- and 400-deep nests of discarded
binders, of a variable used 1,600 times and of the 400-deep nest of
used binders, each with its peak resident memory, `normalize` of
`@pred 100` and `@pred 200` (141,108 steps, over the default budget of
10^5), `normalize --calculus llcim` of `lin_pred 100` and `lin_pred 200`
(101,108 steps), and `normalize --trace`, which keeps to the zipper.
Import time comes first, and its first sample of each kind is dropped:
that one writes the bytecode cache the later figures start with. Inputs
live in a temporary directory that is removed at the end. Run it from
anywhere:

    python tools/ci_figures.py
"""

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# -E -s is how the benchmark's setup_s imports lrec.cli; -S also keeps
# site from preloading typing. -E ignores PYTHONPATH, so the path is set
# here too.
IMPORT = ("import sys, time; t0 = time.perf_counter(); "
          f"sys.path.insert(0, {str(SRC)!r}); import lrec.cli; "
          "print(time.perf_counter() - t0)")


def child(*argv: str) -> tuple[float, float, str]:
    """Run `python *argv` in a fresh process from the checkout's root,
    with PYTHONPATH set to its src: the wall time in seconds, that
    child's own peak RSS in MB, and its stdout. A failing child ends the
    run with its stderr."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                stdout=out, stderr=err,
                                env={**os.environ, "PYTHONPATH": str(SRC)})
        # rusage of this child alone, however many ran before it
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            err.seek(0)
            sys.exit(f"python {' '.join(argv)}: exit {proc.returncode}\n"
                     f"{err.read().decode(errors='replace').rstrip()}")
        out.seek(0)
        return wall, usage.ru_maxrss / 1024, out.read().decode()


def best_of_three(*argv: str) -> tuple[float, float]:
    """The best wall time of three CLI runs, and their peak RSS."""
    runs = [child("-m", "lrec.cli", *argv) for _ in range(3)]
    return min(r[0] for r in runs), max(r[1] for r in runs)


def main() -> None:
    for flags in (("-E", "-s"), ("-S",)):
        runs = [float(child(*flags, "-c", IMPORT)[2])
                for _ in range(11)][1:]
        print(f"import lrec.cli under {' '.join(flags)}: median "
              f"{statistics.median(runs) * 1000:.1f} ms of 10 runs")

    with tempfile.TemporaryDirectory() as tmp:
        def source(name: str, text: str) -> str:
            path = Path(tmp, name)
            path.write_text(text)
            return str(path)

        # one shared @pred per level, typed from the second level on
        # without a walk: time grows with depth, not with pred's size
        for k in (2000, 5000):
            wall, rss = best_of_three("check", source(
                f"deep{k}.lrec", "@pred (" * k + "0" + ")" * k))
            print(f"check of the {k}-deep @pred nest: best wall "
                  f"{wall:.2f} s of 3 runs, peak RSS {rss:.0f} MB")
        # \x0. ... \x2000. x0 x1 ... x2000: every node's free-variable set
        # holds up to n names, so time and memory grow faster than the term
        n = 2000
        wall, rss = best_of_three("check", source(
            "wide.lrec", "".join(f"\\x{i}. " for i in range(n + 1))
            + " ".join(f"x{i}" for i in range(n + 1))))
        print(f"check of the n = {n} wide lambda nest: best wall "
              f"{wall:.2f} s of 3 runs, peak RSS {rss:.0f} MB")

        # d0 = \x. x; di = \x. @d(i-1) x; ...: each definition is spliced
        # as written, and the program is named once
        chain = source("chain600.lrec", "d0 = \\x. x;\n" + "".join(
            f"d{i} = \\x. @d{i - 1} x;\n" for i in range(1, 600))
            + "main = @d599 0;\n")
        for command in ("check", "eval"):
            wall, rss = best_of_three(command, chain)
            print(f"{command} of the 600-definition chain: best wall "
                  f"{wall:.2f} s of 3 runs, peak RSS {rss:.0f} MB")

        # (fun x : Nat . (fun x : Nat . ... x)) 1: every binder discards
        # its body, which the compiler types once, as it compiles it
        for k in (200, 400):
            wall, rss = best_of_three("pcf", "compile", source(
                f"discard{k}.pcf", "(" + "fun x : Nat . " * k + "x) 1"))
            print(f"pcf compile of the {k}-deep discarded nest: best wall "
                  f"{wall:.2f} s of 3 runs, peak RSS {rss:.0f} MB")

        # (fun f : Nat -> Nat . f (f (… 0))) succ splits f 1,599 times;
        # fun x0 : Nat -> Nat . … fun x399 : Nat . x0 (x1 (… x399)) has a
        # linear body under every binder, so it needs no abstraction
        k = 400
        uses = ("(fun f : Nat -> Nat . " + "f (" * 1600 + "0"
                + ")" * 1600 + ") succ")
        nest = ("".join(f"fun x{i} : Nat -> Nat . " for i in range(k - 1))
                + f"fun x{k - 1} : Nat . "
                + " (".join(f"x{i}" for i in range(k)) + ")" * (k - 1))
        for name, path in (("1,600-use chain", source("uses.pcf", uses)),
                           (f"{k}-deep used-binder nest",
                            source("used.pcf", nest))):
            wall, rss = best_of_three("pcf", "compile", path)
            print(f"pcf compile of the {name}: best wall {wall:.2f} s "
                  f"of 3 runs, peak RSS {rss:.0f} MB")

        for n in (100, 200):
            wall, _ = best_of_three("normalize", "--fuel", "1000000",
                                    source(f"pred{n}.lrec", f"@pred {n}"))
            print(f"normalize @pred {n}: best wall {wall:.2f} s of 3 runs")

        # the minimiser calculus's iterator on the same loop
        for n in (100, 200):
            text = child("-c", "from lrec.minext import lin_pred; "
                         "from lrec.terms import App, numeral, pretty; "
                         f"print(pretty(App(lin_pred(), numeral({n}))))")[2]
            wall, _ = best_of_three("normalize", "--calculus", "llcim",
                                    "--fuel", "1000000",
                                    source(f"lin_pred{n}.lrec", text))
            print(f"normalize --calculus llcim lin_pred {n}: best wall "
                  f"{wall:.2f} s of 3 runs")

        for name, path in (("fact4.lrec", str(ROOT / "corpus" / "fact4.lrec")),
                           ("@pred 30", source("pred30.lrec", "@pred 30"))):
            wall, _ = best_of_three("normalize", "--trace", path)
            print(f"normalize --trace {name}: best wall {wall:.2f} s "
                  f"of 3 runs")


if __name__ == "__main__":
    main()
