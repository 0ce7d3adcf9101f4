"""CSV and JSON file formats shared by the library and the CLI.

Formats (headers are exact):

* per-case results:   ``task_id,method_id,case_id,dsc``
* training pairs:     ``dsc_mean_pct,sd_pct``
* comparison corpus:  ``paper_id,method_id,mean_dsc,test_n,sd`` (sd may be empty)
* calibration input:  ``task_id,method_id,n,mean_dsc,observed_sd``

All numeric fields use a dot decimal separator; floats are written with
6 decimal places.
"""

from __future__ import annotations

import csv
import functools
import math
import re
from pathlib import Path
from sys import intern
from typing import TYPE_CHECKING, Iterable, Iterator

from . import DataFormatError
from .glm import TrainingPair

if TYPE_CHECKING:
    from .corpus import PaperRecord
    from .simulate import CaseResult

__all__ = [
    "DataFormatError",
    "PER_CASE_HEADER",
    "PAIRS_HEADER",
    "CORPUS_HEADER",
    "CALIBRATION_HEADER",
    "read_per_case_csv",
    "iter_per_case_csv",
    "write_per_case_csv",
    "read_pairs_csv",
    "read_corpus_csv",
    "read_calibration_csv",
    "detect_training_format",
]

PER_CASE_HEADER = ["task_id", "method_id", "case_id", "dsc"]
PAIRS_HEADER = ["dsc_mean_pct", "sd_pct"]
CORPUS_HEADER = ["paper_id", "method_id", "mean_dsc", "test_n", "sd"]
CALIBRATION_HEADER = ["task_id", "method_id", "n", "mean_dsc", "observed_sd"]


def _header(reader, path: "str | Path") -> list[str]:
    """The first row of a ``csv.reader``; an empty file is refused."""
    try:
        return next(reader)
    except StopIteration:
        raise DataFormatError("file is empty, expected a header row", path, 1) from None


def _data_reader(fh, path: "str | Path", expected_header: list[str]):
    """A ``csv.reader`` past the header row, which is checked.

    Its ``line_num`` is the physical line on which the last row read
    ends, counting the line breaks inside quoted fields.
    """
    reader = csv.reader(fh)
    header = _header(reader, path)
    if [h.strip() for h in header] != expected_header:
        raise DataFormatError(
            f"unexpected header {header!r}, expected {expected_header!r}", path, 1
        )
    return reader


def _is_data(row: list[str], width: int, path, line_no: int) -> bool:
    """False for a blank row; raises for a row without ``width`` fields."""
    if not "".join(row).strip():
        return False
    if len(row) != width:
        raise DataFormatError(f"expected {width} fields, found {len(row)}", path, line_no)
    return True


def _read_rows(path: "str | Path", expected_header: list[str]) -> list[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank data row, checking shape; none is refused."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = _data_reader(fh, path, expected_header)
        rows = []
        for row in reader:
            line_no = reader.line_num
            if _is_data(row, len(expected_header), path, line_no):
                rows.append((line_no, row))
    if not rows:
        raise DataFormatError("no data rows", path)
    return rows


def _parse_float(cell: str, name: str, path, line_no: int) -> float:
    try:
        if "_" in cell:
            raise ValueError  # float() reads "1_0" as 10
        value = float(cell)
    except ValueError:
        raise DataFormatError(f"field {name!r} is not a number: {cell!r}", path, line_no) from None
    if not math.isfinite(value):
        raise DataFormatError(f"field {name!r} must be finite, got {cell!r}", path, line_no)
    return value


def _parse_int(cell: str, name: str, path, line_no: int) -> int:
    try:
        if "_" in cell:
            raise ValueError  # int() reads "1_0" as 10
        return int(cell)
    except ValueError:
        raise DataFormatError(f"field {name!r} is not an integer: {cell!r}", path, line_no) from None


def detect_training_format(path: "str | Path") -> str:
    """Classify a training CSV as ``per_case`` or ``pairs`` by its header."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = _header(csv.reader(fh), path)
    stripped = [h.strip() for h in header]
    if stripped == PER_CASE_HEADER:
        return "per_case"
    if stripped == PAIRS_HEADER:
        return "pairs"
    raise DataFormatError(
        f"unrecognized header {header!r}; expected {PER_CASE_HEADER!r} or {PAIRS_HEADER!r}",
        path,
        1,
    )


def iter_per_case_csv(path: "str | Path") -> Iterator[tuple[str, str, str, float]]:
    """(task_id, method_id, case_id, dsc) of each data row, ids stripped, as it is read.

    Blank rows are skipped; any other row that is not four fields with a
    dsc in [0, 1] is refused, as is a file without data rows.
    """
    found = False
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = _data_reader(fh, path, PER_CASE_HEADER)
        for row in reader:
            try:
                task_id, method_id, case_id, cell = row
                dsc = float(cell)
                valid = 0.0 <= dsc <= 1.0 and "_" not in cell
            except ValueError:
                valid = False
            if not valid:
                # a blank row is skipped; any other is refused by the shared checks
                line_no = reader.line_num
                if not _is_data(row, len(PER_CASE_HEADER), path, line_no):
                    continue
                dsc = _parse_float(row[3], "dsc", path, line_no)
                raise DataFormatError(f"dsc must lie in [0, 1], got {dsc}", path, line_no)
            found = True
            yield task_id.strip(), method_id.strip(), case_id.strip(), dsc
    if not found:
        raise DataFormatError("no data rows", path)


def read_per_case_csv(path: "str | Path") -> list[CaseResult]:
    # imported here: calibrate and analyze read their CSVs without simulate
    from .simulate import CaseResult

    new_row = tuple.__new__  # CaseResult's own constructor, without its Python-level wrapper
    # interned: a file repeats each id many times, and its rows share one copy
    return [
        new_row(CaseResult, (intern(task_id), intern(method_id), intern(case_id), dsc))
        for task_id, method_id, case_id, dsc in iter_per_case_csv(path)
    ]


class _Echo:
    """A file for ``csv.writer`` whose ``write`` returns the line it is given."""

    @staticmethod
    def write(line: str) -> str:
        return line


def write_per_case_csv(rows: Iterable[CaseResult], path: "str | Path") -> None:
    """Write per-case rows, each as it is iterated; each line ends with ``\\n``.

    A field is quoted by ``csv.writer`` when it holds a ``,``, a ``"``,
    a ``\\r`` or a ``\\n`` (the writer's ``\\r\\n`` terminator makes it
    quote both: unquoted, a reader ends the row there) and written as it
    is otherwise. Task and method ids are formatted once each; every row
    is then one f-string.
    """
    csv_line = csv.writer(_Echo, lineterminator="\r\n").writerow
    # the empty second field keeps an empty id unquoted, as inside a row
    quote = lambda text: csv_line([text, ""])[:-3]
    group_field = functools.cache(quote)  # as many entries as tasks and methods
    needs_quotes = re.compile('[,"\r\n]').search
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(PER_CASE_HEADER) + "\n")
        fh.writelines(
            f"{group_field(task_id)},{group_field(method_id)},"
            f"{quote(case_id) if needs_quotes(case_id) else case_id},{dsc:.6f}\n"
            for task_id, method_id, case_id, dsc in rows
        )


def read_pairs_csv(path: "str | Path") -> list[TrainingPair]:
    out = []
    for line_no, (mean_cell, sd_cell) in _read_rows(path, PAIRS_HEADER):
        mean = _parse_float(mean_cell, "dsc_mean_pct", path, line_no)
        sd = _parse_float(sd_cell, "sd_pct", path, line_no)
        if not 0.0 <= mean <= 100.0:
            raise DataFormatError(f"dsc_mean_pct must lie in [0, 100], got {mean}", path, line_no)
        if sd <= 0.0:
            raise DataFormatError(f"sd_pct must be > 0, got {sd}", path, line_no)
        out.append(TrainingPair(dsc_mean_pct=mean, sd_pct=sd))
    return out


def read_corpus_csv(path: "str | Path") -> list[PaperRecord]:
    """Parse a comparison corpus, grouping rows by paper_id.

    Papers keep their order of first appearance; each paper's rows must
    agree on test_n.
    """
    # corpus loads intervals and special, which simulate and fit do not need
    from .corpus import MethodResult, PaperRecord

    rows = _read_rows(path, CORPUS_HEADER)
    methods: dict[str, list[MethodResult]] = {}
    test_ns: dict[str, tuple[int, int]] = {}
    for line_no, (paper_id, method_id, mean_cell, n_cell, sd_cell) in rows:
        paper_id = paper_id.strip()
        mean = _parse_float(mean_cell, "mean_dsc", path, line_no)
        n = _parse_int(n_cell, "test_n", path, line_no)
        sd = _parse_float(sd_cell, "sd", path, line_no) if sd_cell.strip() else None
        try:
            method = MethodResult(method_id.strip(), mean, sd)
        except ValueError as exc:
            raise DataFormatError(str(exc), path, line_no) from None
        if paper_id in test_ns and test_ns[paper_id][0] != n:
            raise DataFormatError(
                f"paper {paper_id!r} has conflicting test_n values "
                f"({test_ns[paper_id][0]} on line {test_ns[paper_id][1]}, {n} here)",
                path,
                line_no,
            )
        test_ns.setdefault(paper_id, (n, line_no))
        methods.setdefault(paper_id, []).append(method)

    papers = []
    for paper_id, method_list in methods.items():
        try:
            papers.append(
                PaperRecord(paper_id, test_ns[paper_id][0], tuple(method_list))
            )
        except ValueError as exc:
            raise DataFormatError(str(exc), path, test_ns[paper_id][1]) from None
    return papers


def read_calibration_csv(path: "str | Path") -> list[tuple[str, str, int, float, float]]:
    rows = _read_rows(path, CALIBRATION_HEADER)
    out = []
    for line_no, (task_id, method_id, n_cell, mean_cell, sd_cell) in rows:
        n = _parse_int(n_cell, "n", path, line_no)
        mean = _parse_float(mean_cell, "mean_dsc", path, line_no)
        sd = _parse_float(sd_cell, "observed_sd", path, line_no)
        if n < 2:
            raise DataFormatError(f"n must be >= 2, got {n}", path, line_no)
        if not 0.0 <= mean <= 1.0:
            raise DataFormatError(f"mean_dsc must lie in [0, 1], got {mean}", path, line_no)
        if sd < 0.0:
            raise DataFormatError(f"observed_sd must be >= 0, got {sd}", path, line_no)
        out.append((task_id.strip(), method_id.strip(), n, mean, sd))
    return out
