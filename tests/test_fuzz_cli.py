"""Fuzzing `main()`: any input ends in an exit code from 0 to 3, with no
uncaught exception, at most one stderr line on failure, and bounded
output.

Three kinds of input: random bytes, token soups drawn from the
lexer's vocabulary, and corpus files with a few spans deleted,
duplicated or replaced. Each input runs under every command below, with
a small budget wherever the command takes one. The search is
derandomised and keeps no example database, so a run is repeatable and
writes nothing.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from lrec.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SOURCES = [p.read_bytes() for p in sorted(CORPUS.iterdir())
           if p.suffix in (".lrec", ".pcf")]

FUEL = ["--fuel", "2000"]
COMMANDS = (
    ["check"],
    ["eval", *FUEL],
    ["eval", "--strategy", "cbv", *FUEL],
    ["eval", "--force-nat", *FUEL],
    ["eval", "--literal-let", *FUEL],
    ["machine", "--trace", *FUEL],
    ["machine", "--force-nat", *FUEL],
    ["normalize", "--trace", *FUEL],
    ["normalize", "--calculus", "llcim", *FUEL],
    ["pcf", "check"],
    ["pcf", "eval", *FUEL],
    ["pcf", "compile"],
)

# Every token kind of the lexer, both languages' keywords, and catalog
# references, typed and untyped.
VOCABULARY = (
    "\\", "λ", ".", "@", "<", ">", ",", "=", ";", "[", "]", ":", "*", "⊗",
    "-o", "⊸", "->", "(", ")", "-- note\n", "\n", "0", "1", "3", "x", "y",
    "f", "let", "in", "rec", "iter", "min", "S", "Nat", "fun", "succ",
    "pred", "iszero", "cond", "Y", "main", "@add", "@pred", "@mult",
    "@Y[Nat]", "@dup[Nat]", "@cond[Nat]", "#", "²",
)

# A traced run prints one line per step, then at most the result. A
# line holds the whole term, which a step may grow: `normalize --trace`
# prints 4 MB on `@Y[Nat] 0` and 104 MB on `@Y[Nat] @Y[Nat]`.
MAX_LINES = 2_001
MAX_OUTPUT = 256_000_000

soups = st.lists(st.sampled_from(VOCABULARY), max_size=40).map(
    lambda toks: " ".join(toks).encode())


@st.composite
def mutants(draw):
    src = bytearray(draw(st.sampled_from(SOURCES)))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(src)))
        j = draw(st.integers(i, min(len(src), i + 12)))
        edit = draw(st.sampled_from(("delete", "duplicate", "replace")))
        if edit == "delete":
            del src[i:j]
        elif edit == "duplicate":
            src[i:i] = src[i:j]
        else:
            src[i:j] = draw(st.sampled_from(VOCABULARY)).encode()
    return bytes(src)


class _Count:
    """A stdout that keeps only the number of characters and lines."""

    chars = lines = 0

    def write(self, text):
        self.chars += len(text)
        self.lines += text.count("\n")
        return len(text)

    def flush(self):
        pass


inputs = st.one_of(st.binary(max_size=60), soups, mutants())


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(inputs)
def test_main_is_total_on_any_input(source):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "input")
        path.write_bytes(source)
        for argv in COMMANDS:
            out, err = _Count(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main([*argv, str(path)])
            err = err.getvalue()
            assert code in (0, 1, 2, 3), (argv, code)
            if code:
                assert len(err.splitlines()) <= 1, (argv, err)
            assert out.lines <= MAX_LINES, argv
            assert out.chars + len(err) <= MAX_OUTPUT, argv
