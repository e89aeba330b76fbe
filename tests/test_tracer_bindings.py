"""The benchmark's per-layer tracer still finds every binding it wraps.

bench/tracer.py wraps engine functions at the names their callers
resolve, such as `lrec.cli.normalize`. A refactor that moves a call off
those names would silently zero a per-layer metric, so each command
below runs under the tracer and must record a call in each of its spans.
The evaluators and the machine run on environments, so their commands
must record no `terms.subst` call at all. So must `normalize` on a
closed input, which it runs on the same loop; it substitutes only in an
open redex, and one such input keeps the binding guarded.
"""

import contextlib
import importlib.util
import io
import shutil
from pathlib import Path

import pytest

from lrec.cli import main
from lrec.minext import lin_pred
from lrec.terms import App, numeral, pretty

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

ENGINES = ["reduction.normalize", "evaluation.eval_report", "machine.run"]
CASES = [
    (["check", "{add23}"], ["parser.lex", "parser.parse",
                            "terms.check_linear", "types.infer",
                            "stdlib.catalog_lookup"]),
    (["eval", "{add23}"], ["terms.freshen", "evaluation.eval_report",
                           "terms.pretty"]),
    (["eval", "--force-nat", "{add23}"], ["evaluation.force_numeral"]),
    (["eval", "--strategy", "cbv", "--force-nat", "{add23}"],
     ["evaluation.force_numeral"]),
    (["machine", "{add23}"], ["machine.run"]),
    (["machine", "--force-nat", "{add23}"], ["machine.force_numeral"]),
    (["normalize", "{open}"], ["reduction.normalize", "terms.subst"]),
    (["normalize", "--calculus", "llcim", "{lin}"], ["minext.normalize_m"]),
    (["pcf", "eval", "{shared}"], ["pcf.parse", "pcf.check", "pcf.eval"]),
    (["pcf", "compile", "{shared}"], ["pcf.compile", "pcf.close_var_calls"]),
    (["difftest", "--n", "2", "{dir}"],
     ENGINES + ["gen.random_closed", "terms.alpha_eq", "pcf.compile",
                "evaluation.force_numeral"]),
]


SUBST_FREE = [["eval", "{add23}"],
              ["eval", "--strategy", "cbv", "--force-nat", "{add23}"],
              ["machine", "--force-nat", "{add23}"],
              ["normalize", "{add23}"]]


def _tracer_module():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def tracer():
    t = _tracer_module().Tracer()
    assert t.missing == []
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("traced")
    (d / "lin.lrec").write_text(pretty(App(lin_pred(), numeral(2))))
    (d / "open.lrec").write_text("\\z. (\\x. <x, z>) 0")  # an open redex
    (d / "corpus").mkdir()
    for name in ("id0.lrec", "beta.pcf"):
        shutil.copy(CORPUS / name, d / "corpus" / name)
    return {"add23": str(CORPUS / "add23.lrec"), "lin": str(d / "lin.lrec"),
            "open": str(d / "open.lrec"),
            "shared": str(CORPUS / "shared.pcf"), "dir": str(d / "corpus")}


def _traced(tracer, inputs, argv):
    """The tracer's record of one command, which must succeed."""
    tracer.begin_job()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([a.format(**inputs) for a in argv])
    assert code == 0
    return tracer.job


@pytest.mark.parametrize("argv,spans", CASES,
                         ids=[" ".join(a[:-1]) for a, _ in CASES])
def test_traced_command_records_its_spans(tracer, inputs, argv, spans):
    job = _traced(tracer, inputs, argv)
    silent = [s for s in spans if not (job[f"{s}_calls"] or job[s])]
    assert silent == []


@pytest.mark.parametrize("argv", SUBST_FREE,
                         ids=[" ".join(a[:-1]) for a in SUBST_FREE])
def test_engine_command_substitutes_nothing(tracer, inputs, argv):
    assert _traced(tracer, inputs, argv)["terms.subst_calls"] == 0
