"""CSV and JSON file formats shared by the library and the CLI.

Formats (headers are exact):

* per-case results:   ``task_id,method_id,case_id,dsc``
* training pairs:     ``dsc_mean_pct,sd_pct``
* comparison corpus:  ``paper_id,method_id,mean_dsc,test_n,sd`` (sd may be empty)
* calibration input:  ``task_id,method_id,n,mean_dsc,observed_sd``

All numeric fields use a dot decimal separator; floats are written with
6 decimal places; a number with an underscore, such as ``1_0``, is refused.
Ids are quoted by RFC 4180's rule: a field that holds a ``,``, a ``"``, a
carriage return or a line feed is put in double quotes, each ``"`` doubled.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import os
import re
import stat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from . import _FLOAT, _INT, DataFormatError

if TYPE_CHECKING:
    from .corpus import PaperRecord
    from .simulate import CaseResult

__all__ = [
    "DataFormatError",
    "PER_CASE_HEADER",
    "PAIRS_HEADER",
    "CORPUS_HEADER",
    "CALIBRATION_HEADER",
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
    """The first row of a ``csv.reader``; an empty or unreadable file is refused."""
    try:
        return next(reader)
    except StopIteration:
        raise DataFormatError("file is empty, expected a header row", path, 1) from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise _input_error(exc, path, reader) from None


def _input_error(exc: "UnicodeDecodeError | csv.Error", path, reader) -> DataFormatError:
    """The data error for a byte that is not UTF-8, or for a row that ``csv`` refuses."""
    if isinstance(exc, csv.Error):
        return DataFormatError(str(exc), path, reader.line_num)
    # the decoder reads ahead of the rows, so a second pass finds the bad byte's line
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        line = next((n for n, text in enumerate(fh, 1) if re.search("[\udc80-\udcff]", text)), None)
    byte = exc.object[exc.start]
    return DataFormatError(f"byte {byte:#04x} is not UTF-8 ({exc.reason})", path, line)


@contextlib.contextmanager
def _rows(path: "str | Path", expected_header: list[str]) -> Iterator:
    """The ``csv.reader`` past the checked header, and the fields of each non-blank row.

    Every row that is not blank must hold one field per header name, and a
    file without data rows is refused. A ``ValueError`` raised in the block
    is a data error on the row being read, at the physical line where that
    row ends: the reader's ``line_num``, counting line breaks inside quoted
    fields. The per-case reader, the hot path, reads no ``line_num`` per row.
    """
    width = len(expected_header)
    found = False

    def rows():
        nonlocal found
        for row in reader:
            if len(row) != width or not row[0].strip():  # not an ordinary row
                if not "".join(row).strip():
                    continue
                if len(row) != width:
                    raise ValueError(f"expected {width} fields, found {len(row)}")
            found = True
            yield row

    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = _header(reader, path)
        if [h.strip() for h in header] != expected_header:
            raise DataFormatError(f"unexpected header {header!r}, expected {expected_header!r}",
                                  path, 1)
        try:
            yield reader, rows()
        except (UnicodeDecodeError, csv.Error) as exc:  # UnicodeDecodeError is a ValueError
            raise _input_error(exc, path, reader) from None
        except ValueError as exc:
            raise DataFormatError(str(exc), path, reader.line_num) from None
    if not found:
        raise DataFormatError("no data rows", path)


def _parse_float(cell: str, name: str) -> float:
    try:
        value = _FLOAT(cell)
    except ValueError:
        raise ValueError(f"field {name!r} is not a number: {cell!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"field {name!r} must be finite, got {cell!r}")
    return value


def _parse_int(cell: str, name: str) -> int:
    try:
        return _INT(cell)
    except ValueError:
        raise ValueError(f"field {name!r} is not an integer: {cell!r}") from None


def detect_training_format(path: "str | Path") -> str:
    """Classify a training CSV as ``per_case`` or ``pairs`` by its header."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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
    with _rows(path, PER_CASE_HEADER) as (_, rows):
        for task_id, method_id, case_id, cell in rows:
            try:
                dsc = float(cell)
            except ValueError:
                dsc = math.nan
            if not 0.0 <= dsc <= 1.0 or "_" in cell:  # _FLOAT's rule, inline for speed
                raise ValueError(f"dsc must lie in [0, 1], got {_parse_float(cell, 'dsc')}")
            yield task_id.strip(), method_id.strip(), case_id.strip(), dsc


_needs_quotes = re.compile('[,"\r\n]').search


def _field(text: str) -> str:
    """``text`` as a CSV field, by RFC 4180's rule (section 2).

    In double quotes, each ``"`` doubled, if it holds a ``,``, a ``"``, a ``\\r``
    or a ``\\n``, which would end the field or the row for a reader; else as it is.
    """
    if _needs_quotes(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_per_case_csv(rows: Iterable[CaseResult], path: "str | Path") -> None:
    """Write per-case rows, each as it is iterated; each line ends with ``\\n``.

    Each id is written as :func:`_field` quotes it: task and method ids once each,
    and a case id only if it needs quotes, so that every row is one f-string. If a
    row fails to draw or write, ``path`` is removed if it is a regular file:
    opening it truncated any old content.
    """
    group_field = functools.cache(_field)  # as many entries as tasks and methods
    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(",".join(PER_CASE_HEADER) + "\n")
            fh.writelines(
                f"{group_field(task_id)},{group_field(method_id)},"
                f"{_field(case_id) if _needs_quotes(case_id) else case_id},{dsc:.6f}\n"
                for task_id, method_id, case_id, dsc in rows
            )
    except BaseException:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.remove(path)
        raise


def read_pairs_csv(path: "str | Path") -> list[TrainingPair]:
    from .glm import TrainingPair  # here, so that `segci simulate` does not load glm

    out = []
    with _rows(path, PAIRS_HEADER) as (_, rows):
        for mean_cell, sd_cell in rows:
            mean = _parse_float(mean_cell, "dsc_mean_pct")
            sd = _parse_float(sd_cell, "sd_pct")
            if not 0.0 <= mean <= 100.0:
                raise ValueError(f"dsc_mean_pct must lie in [0, 100], got {mean}")
            if sd <= 0.0:
                raise ValueError(f"sd_pct must be > 0, got {sd}")
            out.append(TrainingPair(dsc_mean_pct=mean, sd_pct=sd))
    return out


def read_corpus_csv(path: "str | Path") -> list[PaperRecord]:
    """Parse a comparison corpus, grouping rows by paper_id.

    Papers keep their order of first appearance; each paper's rows must
    agree on test_n and name each method once.
    """
    # corpus loads intervals and special, which simulate and fit do not need
    from .corpus import MethodResult, PaperRecord

    papers = {}  # paper_id -> (test_n, first line, {method_id: (line, method)})
    with _rows(path, CORPUS_HEADER) as (reader, rows):
        for paper_id, method_id, mean_cell, n_cell, sd_cell in rows:
            mean = _parse_float(mean_cell, "mean_dsc")
            n = _parse_int(n_cell, "test_n")
            sd = _parse_float(sd_cell, "sd") if sd_cell.strip() else None
            method = MethodResult(method_id.strip(), mean, sd)
            paper_id, line = paper_id.strip(), reader.line_num
            test_n, first_line, methods = papers.setdefault(paper_id, (n, line, {}))
            if n != test_n:
                raise ValueError(f"paper {paper_id!r} has conflicting test_n values "
                                 f"({test_n} on line {first_line}, {n} here)")
            if method.method_id in methods:
                raise ValueError(f"paper {paper_id!r} lists method {method.method_id!r} "
                                 f"twice (on line {methods[method.method_id][0]} and here)")
            methods[method.method_id] = (line, method)

    out = []
    for paper_id, (test_n, first_line, methods) in papers.items():
        try:
            out.append(PaperRecord(paper_id, test_n, tuple(m for _, m in methods.values())))
        except ValueError as exc:
            raise DataFormatError(str(exc), path, first_line) from None
    return out


def read_calibration_csv(path: "str | Path") -> list[tuple[str, str, int, float, float]]:
    out = []
    with _rows(path, CALIBRATION_HEADER) as (_, rows):
        for task_id, method_id, n_cell, mean_cell, sd_cell in rows:
            n = _parse_int(n_cell, "n")
            mean = _parse_float(mean_cell, "mean_dsc")
            sd = _parse_float(sd_cell, "observed_sd")
            if n < 2:
                raise ValueError(f"n must be >= 2, got {n}")
            if not 0.0 <= mean <= 1.0:
                raise ValueError(f"mean_dsc must lie in [0, 1], got {mean}")
            if sd < 0.0:
                raise ValueError(f"observed_sd must be >= 0, got {sd}")
            out.append((task_id.strip(), method_id.strip(), n, mean, sd))
    return out
