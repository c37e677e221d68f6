"""Golden outputs of the read side: ``analyze`` and ``compare`` print the
same bytes as when the goldens were generated.

``tests/data/micro_pair.telemetry.jsonl`` is a two-run ``micro`` archive
(``repro trace --dataset micro --time-budget-s 0.003 --gpus 2 --algorithms
adaptive elastic --out micro_pair``); ``tests/data/golden/`` holds what each
command below printed for it. A change to the JSON view of a result, to
``harness/report.py`` or to the CLI's output path must leave every file
equal; regenerate a golden only in a change whose purpose is to alter that
output.
"""

from pathlib import Path

import pytest

from repro.cli import main

DATA = Path(__file__).resolve().parent / "data"
ARCHIVE = str(DATA / "micro_pair.telemetry.jsonl")

#: golden file -> the argv whose stdout it holds (``None``: the file the
#: ``--promtext`` flag writes).
GOLDENS = {
    "analyze.txt": ["analyze", ARCHIVE],
    "analyze.json": ["analyze", ARCHIVE, "--json"],
    "analyze_run1.txt": ["analyze", ARCHIVE, "--run", "1"],
    "compare.txt": ["compare", ARCHIVE, ARCHIVE, "--run-b", "1"],
    "compare.json": ["compare", ARCHIVE, ARCHIVE, "--run-b", "1", "--json"],
    "analyze.prom": None,
}


@pytest.mark.parametrize("golden", sorted(GOLDENS))
def test_read_side_output_is_byte_identical(golden, capsys, tmp_path):
    written = tmp_path / golden
    argv = GOLDENS[golden] or ["analyze", ARCHIVE, "--promtext", str(written)]
    assert main(argv) == 0
    out = capsys.readouterr().out if GOLDENS[golden] else written.read_text()
    assert out == (DATA / "golden" / golden).read_text()


def test_the_archives_idle_lines_change_nothing(capsys, tmp_path):
    """The archive predates derived idle and still carries the recorder's
    ``idle`` totals; the loader skips them, so dropping them prints the
    same ``--json`` and ``--promtext`` bytes."""
    lines = Path(ARCHIVE).read_text().splitlines(keepends=True)
    stripped = [line for line in lines if '"type": "idle"' not in line]
    assert len(lines) - len(stripped) == 4
    bare = tmp_path / "bare.telemetry.jsonl"
    bare.write_text("".join(stripped))
    outputs = []
    for archive, prom in ((ARCHIVE, "as_is.prom"), (str(bare), "bare.prom")):
        assert main(["analyze", archive, "--json",
                     "--promtext", str(tmp_path / prom)]) == 0
        outputs.append((capsys.readouterr().out,
                        (tmp_path / prom).read_text()))
    assert outputs[0] == outputs[1]
    assert outputs[0][1] == (DATA / "golden" / "analyze.prom").read_text()
