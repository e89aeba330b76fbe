"""Start-up: what `import lrec.cli` loads, and what a run adds to it.

Each case runs in a fresh `python -S` interpreter with `src` on its
path, so no site hook has preloaded a module. The command line must
load neither `dataclasses` (nor `inspect`, which it pulls in) nor
`typing` at all, nor `random` outside the commands that draw (difftest),
and `hashlib` and `json` only once a run writes a record.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CORPUS = Path(__file__).resolve().parents[1] / "corpus"

NEVER = ("dataclasses", "inspect", "typing", "random")
ON_RECORD = ("hashlib", "json")

# the child prints, after each stage, which of the watched modules it has
_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
watched = sys.argv[2].split(",")
def loaded(stage):
    print(stage, *[m for m in watched if m in sys.modules])
import lrec.cli
loaded("import")
for argv in sys.argv[3:]:
    code = lrec.cli.main(argv.split("|"))
    loaded(f"{argv.split('|')[0]} exit {code}")
"""


def _stages(*argvs: list[str]) -> list[str]:
    out = subprocess.run(
        [sys.executable, "-S", "-c", _CHILD, str(SRC),
         ",".join(NEVER + ON_RECORD), *("|".join(a) for a in argvs)],
        capture_output=True, text=True, timeout=120, check=True)
    return [line for line in out.stdout.splitlines()
            if line.startswith(("import", "check ", "normalize "))]


def test_import_loads_no_dataclasses_typing_hashlib_or_json():
    assert _stages() == ["import"]


def test_a_run_without_a_record_loads_neither_hashlib_nor_json():
    assert _stages(["check", str(CORPUS / "add23.lrec")],
                   ["normalize", str(CORPUS / "mult34.lrec")]) == [
        "import", "check exit 0", "normalize exit 0"]


def test_a_report_run_loads_them_and_writes_the_same_record(tmp_path):
    rep = tmp_path / "runs.jsonl"
    assert _stages(["check", str(CORPUS / "add23.lrec")],
                   ["normalize", "--report", str(rep),
                    str(CORPUS / "mult34.lrec")],
                   ["check", "--report", str(rep),
                    str(CORPUS / "add23.lrec")]) == [
        "import", "check exit 0", "normalize exit 0 hashlib json",
        "check exit 0 hashlib json"]
    # the records as the digest-at-load code wrote them, up to wall_ms
    lines = [line[:line.index(', "wall_ms": ')]
             for line in rep.read_text().splitlines()]
    assert lines == [
        '{"command": "normalize", "input": "ee5fd690e254d17437eaa02ec26d94f8'
        'aff3da0f7260c3d65b47c249e97153fe", "outcome": "normal-form 12", '
        '"fuel_used": 54',
        '{"command": "check", "input": "32fde3026e90751bbb7f09e4bcbbbe370e63'
        '45a2c10c1f6009fb1337587bc7a4", "outcome": "type Nat", '
        '"fuel_used": null',
    ]
