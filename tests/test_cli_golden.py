"""Golden CLI regression: every command on the corpus, byte for byte.

Each case runs `main(argv)` in-process and hashes its exit code, stdout,
stderr and `--report` record, with the `wall_ms` timings removed. The
hashes live in cli_golden.json beside this file. A change that alters
any printed text, exit code, report field or rule count fails here.

    python tests/test_cli_golden.py --record    rewrite cli_golden.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from lrec.cli import main  # noqa: E402
from lrec.minext import lin_pred  # noqa: E402
from lrec.terms import App, numeral, pretty  # noqa: E402

import pytest  # noqa: E402

CORPUS = HERE.parent / "corpus"
GOLDEN = HERE / "cli_golden.json"

# Enough for every convergent corpus program, and small enough that the
# divergent ones (delta, fix_id, the untaken branch of cond_lazy) run
# out quickly.
FUEL = "4000"
PCF_FUEL = "200000"
REPORTING = ("check", "eval", "machine", "normalize")


def cases(work: Path) -> dict[str, list[str]]:
    """Case id -> argv. The ids do not depend on `work`, which holds the
    generated inputs (see `prepare`)."""
    out: dict[str, list[str]] = {}
    for f in sorted(CORPUS.glob("*.lrec")):
        p, fuel = str(f), ["--fuel", FUEL]
        out[f"check {f.name}"] = ["check", p]
        out[f"eval-cbn {f.name}"] = ["eval", p, *fuel]
        out[f"eval-cbv {f.name}"] = ["eval", "--strategy", "cbv", p, *fuel]
        out[f"eval-nat {f.name}"] = ["eval", "--force-nat", p, *fuel]
        out[f"eval-cbv-nat {f.name}"] = ["eval", "--strategy", "cbv",
                                         "--force-nat", p, *fuel]
        out[f"machine-trace {f.name}"] = ["machine", "--trace", p, *fuel]
        out[f"machine-nat {f.name}"] = ["machine", "--force-nat", p, *fuel]
        out[f"normalize-trace {f.name}"] = ["normalize", "--trace", p, *fuel]
    for f in sorted(CORPUS.glob("*.pcf")):
        p = str(f)
        out[f"pcf-check {f.name}"] = ["pcf", "check", p]
        out[f"pcf-eval {f.name}"] = ["pcf", "eval", p, "--fuel", PCF_FUEL]
        out[f"pcf-compile {f.name}"] = ["pcf", "compile", p]
    lin = str(work / "lin_pred.lrec")
    out["check lin_pred"] = ["check", "--calculus", "llcim", lin]
    out["normalize lin_pred"] = ["normalize", "--calculus", "llcim", "--trace",
                                 lin, "--fuel", FUEL]
    stuck = str(work / "stuck.lrec")
    for name, argv in (("eval", ["eval"]), ("eval-nat", ["eval", "--force-nat"]),
                       ("machine", ["machine"]),
                       ("machine-nat", ["machine", "--force-nat"])):
        out[f"{name} stuck"] = [*argv, stuck, "--fuel", FUEL]
    for size in ("long", "over"):  # numeral literals past the limit
        for name, argv, suffix in (("check", ["check"], ".lrec"),
                                   ("normalize", ["normalize"], ".lrec"),
                                   ("pcf-eval", ["pcf", "eval"], ".pcf"),
                                   ("pcf-compile", ["pcf", "compile"], ".pcf")):
            out[f"{name} {size}-literal"] = [*argv, str(work / (size + suffix))]
    out["eval no-fuel"] = ["eval", str(CORPUS / "id0.lrec"), "--fuel", "0"]
    out["difftest"] = ["difftest", str(work / "corpus"), "--n", "30",
                       "--fuel", FUEL]
    return out


def prepare(work: Path):
    """Write the generated inputs: lin_pred 3, an untypable term that
    gets stuck, numeral literals of 5,000 digits and just over the
    limit, and a copy of the .lrec corpus."""
    (work / "lin_pred.lrec").write_text(pretty(App(lin_pred(), numeral(3))))
    (work / "stuck.lrec").write_text("0 0")
    for suffix in (".lrec", ".pcf"):
        (work / ("long" + suffix)).write_text("9" * 5000)
        (work / ("over" + suffix)).write_text("100001")
    (work / "corpus").mkdir()
    for f in CORPUS.glob("*.lrec"):
        shutil.copy(f, work / "corpus" / f.name)


def _drop_wall(line: str) -> str:
    rec = json.loads(line)
    rec.pop("wall_ms")
    return json.dumps(rec)


def digest(argv: list[str], work: Path) -> str:
    report = work / "report.jsonl"
    report.unlink(missing_ok=True)
    if argv[0] in REPORTING:
        argv = argv + ["--report", str(report)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout = out.getvalue()
    if argv[0] == "difftest":
        stdout = "\n".join(map(_drop_wall, stdout.splitlines()))
    records = (list(map(_drop_wall, report.read_text().splitlines()))
               if report.exists() else [])
    blob = json.dumps([code, stdout, err.getvalue(), records])
    return hashlib.sha256(blob.replace(str(work), "<work>").encode()).hexdigest()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    prepare(d)
    return d


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(cases(Path())))
def test_cli_output_is_unchanged(case, work, golden):
    assert digest(cases(work)[case], work) == golden[case]


def record():
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        work = Path(d)
        prepare(work)
        table = {case: digest(argv, work)
                 for case, argv in sorted(cases(work).items())}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} cases in {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
