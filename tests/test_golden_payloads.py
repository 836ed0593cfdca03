"""``tools/golden_payloads.py --compare``: the check behind every claim that
a change keeps the CLI payloads byte-identical."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden_payloads.py"
PAYLOAD = {
    "command": "fixedpoint",
    "results": {"rows": [{"gap_sampled": 0.25, "q": 4}, {"gap_sampled": 0.5, "q": 6}]},
}
CSV = "q,gap_sampled\n4,0.25\n6,0.5\n"


def _write(directory: Path, payload: dict, csv: str = CSV) -> Path:
    directory.mkdir()
    (directory / "sweep.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    (directory / "sweep.csv").write_text(csv, encoding="utf-8")
    return directory


def _compare(old: Path, new: Path) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(TOOL), "--compare", str(old), str(new)],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout.splitlines()


def test_identical_directories_compare_clean(tmp_path):
    old, new = _write(tmp_path / "old", PAYLOAD), _write(tmp_path / "new", PAYLOAD)
    assert _compare(old, new) == (0, [])


def test_a_float_moved_by_1e_15_names_its_field_and_move(tmp_path):
    moved = copy.deepcopy(PAYLOAD)
    moved["results"]["rows"][1]["gap_sampled"] = 0.5 * (1.0 + 1e-15)
    old, new = _write(tmp_path / "old", PAYLOAD), _write(tmp_path / "new", moved)
    code, lines = _compare(old, new)
    assert code == 1 and len(lines) == 1
    name, field, move = lines[0].split()
    assert (name, field) == ("sweep.json:", "results.rows[].gap_sampled")
    assert float(move) == pytest.approx(1e-15, rel=0.15)


def test_a_moved_csv_cell_names_its_column(tmp_path):
    old = _write(tmp_path / "old", PAYLOAD)
    new = _write(tmp_path / "new", PAYLOAD, CSV.replace("0.25", "0.2500000000000001"))
    code, lines = _compare(old, new)
    assert code == 1 and [line.split()[:2] for line in lines] == [["sweep.csv:", "[].gap_sampled"]]


def test_a_file_on_one_side_only_is_reported(tmp_path):
    old, new = _write(tmp_path / "old", PAYLOAD), _write(tmp_path / "new", PAYLOAD)
    (new / "extra.json").write_text("{}\n", encoding="utf-8")
    assert _compare(old, new) == (1, [f"extra.json: only in {new}"])
