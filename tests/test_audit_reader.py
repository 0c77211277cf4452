"""The audit's CSV reader at the edges of the format: blank lines, line ends, quoting, encodings.

Each expected problem list here is what the audit gave while every file was
still read by ``csv.reader`` line by line, so these pin the reader's line
numbers, its ``csv.Error`` messages and its decode errors; the one exception
is a header with a field over the size limit, on which that audit raised
``RuntimeError``. The property test
at the end compares the audit of each edited file with its audit after the
file is rewritten with every field quoted.
"""

import csv
import json
import tempfile
from dataclasses import replace
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gridp2p.cli import EXIT_OK, main
from gridp2p.core import make_case_study_scenario, save_scenario
from gridp2p.engine import run_horizon
from gridp2p.reports import PRICES_HEADER, TRADES_HEADER, audit_run, write_run


def _p2p_run(out: Path, seed: int = 3, **sizes) -> Path:
    """A clean p2p run in ``out``; its trades.csv."""
    write_run(run_horizon(make_case_study_scenario(seed, **{"slots": 6, **sizes})), out)
    assert audit_run(out) == []
    return out / "trades.csv"


def _compare_run(out: Path) -> None:
    assert main(["simulate", "--seed", "3", "--mode", "compare", "--out", str(out)]) == EXIT_OK
    assert audit_run(out) == []


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


def test_a_blank_line_is_a_row_of_no_fields(tmp_path):
    path = _p2p_run(tmp_path)
    lines = _lines(path)
    lines.insert(5, "\n")
    path.write_text("".join(lines), encoding="utf-8")
    assert audit_run(tmp_path) == ["trades.csv line 6: expected 7 fields, got 0"]


@pytest.mark.parametrize("end", ["crlf", "lone-cr", "no-final-newline"])
def test_every_line_end_csv_reads_audits_clean(tmp_path, end):
    # Every file of a compare run: each line end as CRLF, one mid-file line
    # end as a lone CR, or the last line end removed.
    _compare_run(tmp_path)
    for path in tmp_path.glob("*.csv"):
        text = path.read_text(encoding="utf-8")
        if end == "crlf":
            text = text.replace("\n", "\r\n")
        elif end == "lone-cr":
            middle = text.index("\n", len(text) // 2)
            text = text[:middle] + "\r" + text[middle + 1:]
        else:
            text = text[:-1]
        path.write_bytes(text.encode("utf-8"))
    assert audit_run(tmp_path) == []


def test_a_row_cut_mid_field_is_a_row_with_an_empty_field(tmp_path):
    path = _p2p_run(tmp_path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: text.rindex(",") + 1], encoding="utf-8")
    assert audit_run(tmp_path) == [f"trades.csv line {text.count(chr(10))}: buyer_price '' is not a number"]


_QUOTED_IDS = ("a,b", 'q"uote', "new\nline", " lead", "semi;colon")


def _quoted_ids_run(out: Path, names, **sizes) -> str:
    """The trades.csv text of a clean compare run in ``out`` whose first prosumers are renamed ``names``."""
    scenario = make_case_study_scenario(5, **sizes)
    renamed = tuple(replace(p, id=name) for p, name in zip(scenario.prosumers, names))
    save_scenario(replace(scenario, prosumers=renamed + scenario.prosumers[len(renamed):]), out.parent / "ids.json")
    code = main(["simulate", "--scenario", str(out.parent / "ids.json"), "--mode", "compare", "--out", str(out)])
    assert code == EXIT_OK
    assert audit_run(out) == []
    return (out / "trades.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "names, sizes",
    [(_QUOTED_IDS, {"n_prosumers": 6, "slots": 6}),
     (_QUOTED_IDS, {"n_prosumers": 48, "slots": 24}),
     ([f"p\n{i}" for i in range(48)], {"n_prosumers": 48, "slots": 24})],
    ids=["6x6", "48x24", "48x24-every-id-two-lines"],
)
def test_line_numbers_count_the_lines_of_a_multi_line_record(tmp_path, names, sizes):
    # Rows whose ids span lines, then a short row inserted: its line number
    # counts every physical line before it. The larger runs hold such records
    # throughout a file of many reads; in the last every record spans lines.
    out = tmp_path / "run"
    text = _quoted_ids_run(out, names, **sizes)
    lines = text.splitlines(keepends=True)
    spanning = [i for i, line in enumerate(lines) if line.count('"') % 2]  # a record's first or last line
    assert len(spanning) > (len(names) > 6 and 100)
    cut = spanning[-3] + 1  # the line after the last record but one that spans lines
    lines.insert(cut, "0,grid,p01\n")
    (out / "trades.csv").write_text("".join(lines), encoding="utf-8")
    assert audit_run(out) == [f"trades.csv line {cut + 1}: expected 7 fields, got 3"]


@pytest.mark.parametrize("name, header", [("prices.csv", PRICES_HEADER), ("trades.csv", TRADES_HEADER)],
                         ids=["prices.csv", "trades.csv"])
def test_an_empty_file_has_no_header(tmp_path, name, header):
    _p2p_run(tmp_path)
    (tmp_path / name).write_bytes(b"")
    assert audit_run(tmp_path) == [f"{name}: expected header {header}, got nothing"]


def test_a_blank_first_line_is_a_header_of_no_fields(tmp_path):
    path = _p2p_run(tmp_path)
    path.write_text("\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
    assert audit_run(tmp_path) == [f"trades.csv: expected header {TRADES_HEADER}, got []"]


def test_a_read_error_keeps_the_problems_of_the_rows_before_it(tmp_path):
    path = _p2p_run(tmp_path)
    lines = _lines(path)
    lines[4] = ",".join(lines[4].split(",")[:3]) + "\n"
    lines[7] = lines[7].replace("grid", "x" * 200_000, 1)
    path.write_text("".join(lines), encoding="utf-8")
    assert audit_run(tmp_path) == [
        "trades.csv line 5: expected 7 fields, got 3",
        f"trades.csv line 8: field larger than field limit ({csv.field_size_limit()})",
    ]


def test_a_field_over_the_limit_in_the_header_is_a_read_problem(tmp_path):
    # The read ends at line 1 with the rest of the file unread, as at any
    # other line; the header is not compared.
    path = _p2p_run(tmp_path)
    path.write_text("x" * 200_000 + path.read_text(encoding="utf-8"), encoding="utf-8")
    assert audit_run(tmp_path) == [f"trades.csv line 1: field larger than field limit ({csv.field_size_limit()})"]


def test_a_byte_order_mark_is_part_of_the_header(tmp_path):
    path = _p2p_run(tmp_path)
    path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
    got = ["\ufeff" + TRADES_HEADER[0], *TRADES_HEADER[1:]]
    assert audit_run(tmp_path) == [f"trades.csv: expected header {TRADES_HEADER}, got {got}"]


def _decode_error(path: Path) -> str:
    """The error reading ``path`` line by line, as ``csv.reader`` reads it, raises."""
    with pytest.raises(UnicodeDecodeError) as info, path.open(newline="", encoding="utf-8") as fh:
        for _ in fh:
            pass
    return str(info.value)


def test_an_invalid_byte_past_64_kib_gives_the_line_readers_message(tmp_path):
    path = _p2p_run(tmp_path, n_prosumers=96)
    data = path.read_bytes()
    at = data.index(b"\n", 70_000) + 1
    assert len(data) > at + 1000
    path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    message = _decode_error(path)
    assert "position" in message
    assert audit_run(tmp_path) == [message]


@pytest.mark.parametrize("kib", [8, 16, 24, 40, 64])
@pytest.mark.parametrize("name", ["ascii", "two-byte-characters"])
def test_an_invalid_byte_keeps_the_problems_of_the_rows_decoded_before_it(tmp_path, name, kib):
    # summary.csv's problems are kept past a read error. The text is decoded
    # 8 KiB at a time: a malformed row just before the 8 KiB block that holds
    # the bad byte is read and listed, then the decode error. Two-byte
    # characters make the text shorter than its bytes.
    _compare_run(tmp_path)
    path = tmp_path / "summary.csv"
    lines = _lines(path)
    pad = "padding_" if name == "ascii" else "éé_"

    def fill(size):
        while len("".join(lines).encode("utf-8")) < size:
            lines.append(f"{pad}{len(lines)},all,1.000000\n")

    fill(kib * 1024 - 100)
    malformed = len(lines) + 1
    lines.append("x\n")
    fill(kib * 1024 + 100)
    path.write_bytes("".join(lines).encode("utf-8") + b"\xff\n")
    assert audit_run(tmp_path) == [f"summary.csv line {malformed}: expected 3 fields, got 1", _decode_error(path)]


def test_a_nul_byte_reads_as_csv_reads_it(tmp_path):
    # Python 3.10's csv module refuses a NUL, and 3.11's reads it.
    path = _p2p_run(tmp_path)
    lines = _lines(path)
    fields = lines[5].split(",")
    fields[4] += "\0"
    lines[5] = ",".join(fields)
    path.write_text("".join(lines), encoding="utf-8")
    try:
        next(csv.reader(["\0\n"]))
        problem = f"qty {fields[4]!r} is not a number"
    except csv.Error as exc:
        problem = str(exc)
    assert audit_run(tmp_path) == [f"trades.csv line 6: {problem}"]


def test_a_quote_first_met_past_plain_text(tmp_path):
    # Far into a file of plain rows: one row with every field quoted, which
    # reads as the row it was, then a quoted seller holding a comma, and a
    # short row after both.
    path = _p2p_run(tmp_path, n_prosumers=96)
    lines = _lines(path)
    quoted = 2000
    assert sum(map(len, lines[:quoted])) > 70_000 and len(lines) > quoted + 1000
    lines[quoted] = ",".join(f'"{field}"' for field in lines[quoted][:-1].split(",")) + "\n"
    fields = lines[quoted + 1].split(",")
    fields[2] = f'"{fields[2]},x"'
    lines[quoted + 1] = ",".join(fields)
    lines[quoted + 500] = ",".join(lines[quoted + 500].split(",")[:3]) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    slot, venue = lines[quoted + 1].split(",")[:2]
    problems = audit_run(tmp_path)
    assert problems == [
        f"trades.csv line {quoted + 501}: expected 7 fields, got 3",
        f"slot {slot}: {venue} trade party {fields[2][1:-1]} not in the {venue} coalition",
    ]


def test_a_read_error_many_records_past_the_first_quote(tmp_path):
    # The line of a read error counts every line before the one where csv.reader takes over.
    path = _p2p_run(tmp_path, n_prosumers=96)
    lines = _lines(path)
    quoted, big = 2000, 2500
    lines[quoted] = ",".join(f'"{field}"' for field in lines[quoted][:-1].split(",")) + "\n"
    fields = lines[big].split(",")
    fields[2] = "x" * 200_000
    lines[big] = ",".join(fields)
    path.write_text("".join(lines), encoding="utf-8")
    problem = f"trades.csv line {big + 1}: field larger than field limit ({csv.field_size_limit()})"
    assert audit_run(tmp_path) == [problem]


# --- Property: one cell edit never makes the audit raise, and quoting every field changes no problem ---

# The scenario fuzz's values, as the JSON text a hand edit would type into a cell.
_CELLS = tuple(json.dumps(v) for v in (0, -0.0, -1, 5e-324, 1e-300, 4e-7, 1e308, -1e308, 2**64, 10**400,
                                       True, None, "", "1.5", [], {}))


@cache
def _clean_run() -> dict[str, list[list[str]]]:
    """Every file of a seed-0, 6-prosumer, 6-slot compare run, as its rows."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        assert main(["simulate", "--seed", "0", "--prosumers", "6", "--slots", "6", "--out", str(out)]) == EXIT_OK
        assert audit_run(out) == []
        runs = {}
        for path in sorted(out.glob("*.csv")):
            with path.open(newline="", encoding="utf-8") as fh:
                runs[path.name] = list(csv.reader(fh))
        return runs


def _cells() -> list[tuple[str, int, int]]:
    return [(name, i, j) for name, rows in _clean_run().items() for i, row in enumerate(rows) for j in range(len(row))]


def _write(path: Path, rows: list[list[str]], quoting: int) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n", quoting=quoting).writerows(rows)


@settings(derandomize=True, max_examples=600)
@given(st.deferred(lambda: st.sampled_from(_cells())), st.sampled_from(_CELLS))
def test_one_cell_edit_audits_the_same_with_every_field_quoted(cell, value):
    name, i, j = cell
    runs = _clean_run()
    edited = [list(row) for row in runs[name]]
    edited[i][j] = value
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for other, rows in runs.items():
            _write(out / other, edited if other == name else rows, csv.QUOTE_MINIMAL)
        problems = audit_run(out)
        _write(out / name, edited, csv.QUOTE_ALL)
        assert audit_run(out) == problems
