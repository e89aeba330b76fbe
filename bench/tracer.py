"""Per-layer tracing from outside the program.

The tracer replaces a function at the names its callers resolve, for
example `lrec.cli.normalize` or `lrec.evaluation.subst`, with a wrapper
that records a span: the call's duration, the span that caused it, and
counts taken at the boundary. Nothing under `src/` changes, and a
function's calls to itself inside its own module stay unwrapped, so a
span is one call across a layer boundary. `lex` and `close_var` are the
two exceptions: their callers live in their own modules, so their own
module's binding is wrapped too.

A layer's self time is its spans' durations minus the wrapped calls they
make. The wrapper's own cost is subtracted from its parent as well and
lands in no layer; the benchmark reports it as `trace.overhead_ratio`.
Spans are summed per job and per pass in memory; the benchmark writes
each job's counts and each pass's totals to bench/out/ when it ends.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

from lrec.terms import children

# (span, module, function, wrap the defining module's own binding too)
SPANS = (
    ("parser.lex", "parser", "lex", True),
    ("parser.parse", "parser", "parse_defs", False),
    ("parser.parse", "parser", "parse_type", False),
    ("terms.freshen", "terms", "freshen", False),
    ("terms.check_linear", "terms", "check_linear", False),
    ("terms.subst", "terms", "subst", False),
    ("terms.pretty", "terms", "pretty", False),
    ("terms.alpha_eq", "terms", "alpha_eq", False),
    ("types.infer", "types", "infer", False),
    ("reduction.normalize", "reduction", "normalize", False),
    ("minext.normalize_m", "minext", "normalize_m", False),
    ("evaluation.force_numeral", "evaluation", "force_numeral", False),
    ("evaluation.eval_report", "evaluation", "eval_report", False),
    ("machine.force_numeral", "machine", "machine_force_numeral", False),
    ("machine.run", "machine", "run", False),
    ("pcf.parse", "pcf", "parse_pcf_defs", False),
    ("pcf.check", "pcf", "pcf_check", False),
    ("pcf.eval", "pcf", "pcf_eval", False),
    ("pcf.compile", "pcf", "compile_pcf", False),
    ("stdlib.catalog_lookup", "stdlib", "catalog_lookup", False),
    ("gen.random_closed", "gen", "random_closed", False),
)

# Functions only counted, not timed: close_var recurses through its own
# module binding, and a span per level would bury pcf.compile in
# wrapper cost.
COUNTERS = (
    ("pcf.close_var_calls", "pcf", "close_var", True),
)

MODULES = ("parser", "terms", "types", "reduction", "evaluation", "machine",
           "minext", "stdlib", "pcf", "gen", "cli")


def term_size(t) -> int:
    n, stack = 0, [t]
    while stack:
        n += 1
        stack.extend(children(stack.pop()))
    return n


def _tokens(tracer, args, result):
    tracer.job["parser.tokens"] += len(result)


def _infer_nodes(tracer, args, result):
    tracer.job["types.nodes"] += term_size(args[0])


def _compiled_nodes(tracer, args, result):
    tracer.job["pcf.compiled_nodes"] += term_size(result)


POST = {"parser.lex": _tokens, "types.infer": _infer_nodes,
        "pcf.compile": _compiled_nodes}


class Tracer:
    """Wraps the bindings in SPANS and COUNTERS while installed.

    `job` holds the current job's self seconds (`<span>_s`), inclusive
    seconds without tracer cost (`<span>_incl_s`), call counts
    (`<span>_calls`) and boundary counts; `begin_job` starts a new one.
    """

    def __init__(self):
        mods = {m: importlib.import_module(f"lrec.{m}") for m in MODULES}
        self.bindings = []   # (module object, attribute, original, wrapper)
        self.missing = []
        for span, mod, name, own in SPANS + COUNTERS:
            fn = getattr(mods[mod], name, None)
            timed = (span, mod, name, own) in SPANS
            found = False
            for other, m in mods.items():
                if getattr(m, name, None) is fn and fn is not None \
                        and (other != mod or own):
                    wrapper = (self._span(span, fn) if timed
                               else self._counter(span, fn))
                    self.bindings.append((m, name, fn, wrapper))
                    found = True
            if not found:
                self.missing.append(f"lrec.{mod}.{name}")
        self.stack: list[list[float]] = [[0.0, 0.0]]
        self.job: Counter = Counter()

    def _span(self, span: str, fn):
        post = POST.get(span)
        key_s, key_incl = span + "_s", span + "_incl_s"
        key_calls = span + "_calls"

        def wrapper(*args, **kwargs):
            o0 = time.perf_counter()
            frame = [0.0, 0.0]   # wrapped children's time, tracer cost below
            self.stack.append(frame)
            result, done = None, False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                job = self.job
                job[key_s] += (t1 - t0) - frame[0]
                job[key_incl] += (t1 - t0) - frame[1]
                job[key_calls] += 1
                if done and post is not None:
                    post(self, args, result)
                spent = time.perf_counter() - o0
                parent = self.stack[-1]
                parent[0] += spent
                parent[1] += spent - (t1 - t0) + frame[1]
            return result
        return wrapper

    def _counter(self, span: str, fn):
        def wrapper(*args, **kwargs):
            self.job[span] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for m, name, _, wrapper in self.bindings:
            setattr(m, name, wrapper)

    def uninstall(self):
        for m, name, original, _ in self.bindings:
            setattr(m, name, original)

    def begin_job(self):
        self.job = Counter()
        self.stack = [[0.0, 0.0]]

    def call_root(self, fn, *args):
        """Run the job's entry point as the root span `cli`."""
        root = self.stack[0]
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.job["cli_s"] += time.perf_counter() - t0 - root[0]
