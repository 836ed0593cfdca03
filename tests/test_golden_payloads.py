"""``tools/golden_payloads.py --compare``: the check behind every claim that
a change keeps the CLI payloads byte-identical."""

import copy
import importlib.util
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


def test_keys_on_one_side_are_named_and_shared_keys_still_compared(tmp_path):
    # A changed key set read "resolved_config changed" and hid the numbers.
    old_payload = {**PAYLOAD, "resolved_config": {"count": 8, "seed": 0}}
    new_payload = copy.deepcopy(PAYLOAD)
    new_payload["resolved_config"] = {"count": 8, "sweep": [4, 6]}
    new_payload["results"]["rows"][0]["gap_sampled"] = 0.5
    old, new = _write(tmp_path / "old", old_payload), _write(tmp_path / "new", new_payload)
    code, lines = _compare(old, new)
    assert code == 1 and lines == [
        "sweep.json: results.rows[].gap_sampled 5.000e-01",
        f"sweep.json: resolved_config.seed only in {old}",
        f"sweep.json: resolved_config.sweep only in {new}",
    ]


def test_a_file_whose_values_agree_but_bytes_differ_is_reported(tmp_path):
    # The old tool parsed and re-serialized every payload, so a change in the
    # CLI's own writer (here: key order and indent) compared clean.
    old, new = _write(tmp_path / "old", PAYLOAD), _write(tmp_path / "new", PAYLOAD)
    (new / "sweep.json").write_text(json.dumps(PAYLOAD, indent=4) + "\n", encoding="utf-8")
    assert _compare(old, new) == (1, ["sweep.json: bytes differ"])


def test_masking_replaces_only_the_top_level_runtime_value():
    payload = {"command": "mk", "results": {"runtime_ms": 1.5}, "runtime_ms": 12.25}
    text = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    assert _tool().mask_runtime(text) == text.replace(b'"runtime_ms": 12.25', b'"runtime_ms": null')
    with pytest.raises(ValueError, match="found 0"):
        _tool().mask_runtime(json.dumps(payload).encode())


def _tool():
    spec = importlib.util.spec_from_file_location("golden_payloads", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_rejected_config_exits_2_naming_its_field(tmp_path, monkeypatch):
    from matprox.cli import main

    tool = _tool()
    monkeypatch.chdir(tmp_path)
    tool.write_inputs()
    tool.write_rejections(main)
    for name, _, _, field in tool.REJECTED:
        record = json.loads((tmp_path / f"{name}.error.json").read_text(encoding="utf-8"))
        assert (record["exit_code"], record["exception"], record["error"]["field"]) == (2, None, field), name
    # Nothing was written for any of them, not even a temp file.
    assert [p.name for p in (tmp_path / "rejected").iterdir()] == ["csv_onto_dir.csv"]
    assert not any((tmp_path / "rejected" / "csv_onto_dir.csv").iterdir())


def test_an_escaped_exception_is_recorded_by_type():
    def escapes(argv):
        print("partial", file=sys.stderr)
        raise IsADirectoryError(21, "Is a directory")

    record = _tool().rejection(escapes, ["fixedpoint"])
    assert record == {"argv": ["fixedpoint"], "exit_code": None, "error": None, "exception": "IsADirectoryError"}


def test_a_changed_error_field_is_named(tmp_path):
    old, new = _write(tmp_path / "old", PAYLOAD), _write(tmp_path / "new", PAYLOAD)
    for directory, field in ((old, "argv"), (new, "n")):
        record = {"argv": ["approximate"], "exit_code": 2, "error": {"field": field, "message": "m"}, "exception": None}
        (directory / "bad_n.error.json").write_text(json.dumps(record), encoding="utf-8")
    assert _compare(old, new) == (1, ["bad_n.error.json: error.field changed"])
