"""`txsched solve`, `validate --certificate` and `trace` on the corpus,
byte for byte against the outputs kept in corpus/golden/.

The golden files were written by the CLI itself: for each corpus
instance `<stem>.json`,

    txsched solve corpus/<stem>.json -o corpus/golden/<stem>.schedule.json
    txsched validate corpus/<stem>.json corpus/golden/<stem>.schedule.json \\
        --certificate > corpus/golden/<stem>.validate.txt
    txsched trace corpus/<stem>.json -o corpus/golden/<stem>.trace.csv

A change that moves any of them must say why, and rewrite them.
"""

import json
from pathlib import Path

import pytest

from txsched.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = CORPUS / "golden"
STEMS = [Path(e["file"]).stem for e in json.loads((CORPUS / "MANIFEST.json").read_text())]


@pytest.mark.parametrize("stem", STEMS)
def test_cli_outputs_match_golden(stem, tmp_path, capsys):
    instance = str(CORPUS / f"{stem}.json")
    golden_schedule = GOLDEN / f"{stem}.schedule.json"

    out = tmp_path / "schedule.json"
    assert main(["solve", instance, "-o", str(out)]) == 0
    assert out.read_bytes() == golden_schedule.read_bytes()

    capsys.readouterr()
    assert main(["validate", instance, str(golden_schedule), "--certificate"]) == 0
    validate = capsys.readouterr().out
    assert validate.encode() == (GOLDEN / f"{stem}.validate.txt").read_bytes()

    out = tmp_path / "trace.csv"
    assert main(["trace", instance, "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{stem}.trace.csv").read_bytes()
