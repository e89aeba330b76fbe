"""`difftest corpus --seed 42` against its record, line for line.

Every engine's outcome and count on the corpus and on 300 generated
terms is recorded in `difftest_corpus_seed42.jsonl`: the stdout records
without their `wall_ms`, then each stderr line as a `{"stderr": ...}`
record. Any change to an outcome, a count, a printed term or a
diagnostic shows here as the first line that differs.
"""

import json
from itertools import zip_longest
from pathlib import Path

from lrec.cli import main

HERE = Path(__file__).resolve().parent
RECORD = HERE / "difftest_corpus_seed42.jsonl"


def test_difftest_corpus_matches_its_record(capsys):
    code = main(["difftest", str(HERE.parent / "corpus"), "--seed", "42"])
    out, err = capsys.readouterr()
    got = []
    for line in out.splitlines():
        record = json.loads(line)
        record.pop("wall_ms", None)
        got.append(json.dumps(record))
    got += [json.dumps({"stderr": line}) for line in err.splitlines()]
    want = RECORD.read_text().splitlines()
    for at, (g, w) in enumerate(zip_longest(got, want, fillvalue="(none)")):
        assert g == w, (
            f"difftest output differs from the record at line {at + 1} "
            f"({len(got)} lines, {len(want)} recorded)\n"
            f"  got:      {g}\n  recorded: {w}")
    assert code == 0
