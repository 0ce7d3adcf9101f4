import csv
import io
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import segci
import segci.io as sio
from segci import CaseResult, SimSpec, cli, generate_results, make_training_pairs
from segci.io import (
    PER_CASE_HEADER,
    DataFormatError,
    detect_training_format,
    iter_per_case_csv,
    read_calibration_csv,
    read_corpus_csv,
    read_pairs_csv,
    write_per_case_csv,
)
from test_simulate import summarize_pairs


def test_data_format_error_is_the_package_root_class():
    # the CLI raises and catches the root's class without loading segci.io
    assert DataFormatError is segci.DataFormatError
    assert "DataFormatError" in segci.__all__


def test_per_case_roundtrip(tmp_path):
    rows = generate_results(SimSpec(n_tasks=2, methods_per_task=2, cases_per_task=5, seed=3))
    path = tmp_path / "cases.csv"
    write_per_case_csv(rows, path)
    loaded = list(iter_per_case_csv(path))
    assert len(loaded) == len(rows)
    for (task_id, _, _, dsc), want in zip(loaded, rows):
        assert task_id == want.task_id
        assert dsc == pytest.approx(want.dsc, abs=5e-7)  # 6-decimal file precision


def test_detect_format(tmp_path):
    per_case = tmp_path / "a.csv"
    per_case.write_text("task_id,method_id,case_id,dsc\n")
    pairs = tmp_path / "b.csv"
    pairs.write_text("dsc_mean_pct,sd_pct\n")
    assert detect_training_format(per_case) == "per_case"
    assert detect_training_format(pairs) == "pairs"


def test_detect_rejects_unknown_header(tmp_path):
    bad = tmp_path / "c.csv"
    bad.write_text("mean,sd\n0.9,0.1\n")
    with pytest.raises(DataFormatError):
        detect_training_format(bad)


@pytest.mark.parametrize("reader", [iter_per_case_csv, read_pairs_csv, read_corpus_csv,
                                    read_calibration_csv], ids=lambda f: f.__name__)
def test_unexpected_header_is_refused_on_line_1(tmp_path, reader):
    # segci fit classifies the header first, so the CLI never reaches this
    # check in the per-case and pairs readers
    path = tmp_path / "in.csv"
    path.write_text("mean,sd\n0.9,0.1\n")
    with pytest.raises(DataFormatError, match=r"line 1: unexpected header \['mean', 'sd'\], "
                                              r"expected \[") as info:
        list(reader(path))
    assert info.value.line == 1


def test_empty_file(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataFormatError) as info:
        detect_training_format(empty)
    assert info.value.line == 1


def test_header_only_per_case(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text("task_id,method_id,case_id,dsc\n")
    with pytest.raises(DataFormatError):
        list(iter_per_case_csv(path))


def test_bad_number_reports_line(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text("task_id,method_id,case_id,dsc\nt,m,c,0.5\nt,m,c2,oops\n")
    with pytest.raises(DataFormatError) as info:
        list(iter_per_case_csv(path))
    assert info.value.line == 3
    assert "dsc" in str(info.value)


def test_out_of_range_dsc(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text("task_id,method_id,case_id,dsc\nt,m,c,1.5\n")
    with pytest.raises(DataFormatError) as info:
        list(iter_per_case_csv(path))
    assert info.value.line == 2


def test_pairs_csv(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("dsc_mean_pct,sd_pct\n80.0,14.142136\n90.0,8.0\n")
    pairs = read_pairs_csv(path)
    assert len(pairs) == 2
    assert pairs[0].dsc_mean_pct == 80.0


@pytest.mark.parametrize("row, message", [
    ("80.0,-1", "sd_pct must be > 0, got -1.0"),
    ("80.0,0", "sd_pct must be > 0, got 0.0"),
    ("80.0,-0.0", "sd_pct must be > 0, got -0.0"),
    ("170,5.0", "dsc_mean_pct must lie in [0, 100], got 170.0"),
    ("-1e-9,5.0", "dsc_mean_pct must lie in [0, 100], got -1e-09"),
])
def test_pairs_csv_range(tmp_path, row, message):
    path = tmp_path / "pairs.csv"
    path.write_text(f"dsc_mean_pct,sd_pct\n0,1e-300\n100,5\n{row}\n")
    with pytest.raises(DataFormatError, match=re.escape(message)) as info:
        read_pairs_csv(path)
    assert info.value.line == 4


def test_corpus_csv_grouping(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text(
        "paper_id,method_id,mean_dsc,test_n,sd\n"
        "p1,a,0.90,100,\n"
        "p1,b,0.85,100,0.07\n"
        "p2,a,0.70,30,\n"
    )
    papers = read_corpus_csv(path)
    assert [p.paper_id for p in papers] == ["p1", "p2"]
    assert papers[0].test_n == 100
    assert papers[0].methods[0].reported_sd is None
    assert papers[0].methods[1].reported_sd == 0.07


def test_corpus_csv_conflicting_test_n(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text(
        "paper_id,method_id,mean_dsc,test_n,sd\n"
        "p1,a,0.90,100,\n"
        "p1,b,0.85,90,\n"
    )
    with pytest.raises(DataFormatError) as info:
        read_corpus_csv(path)
    assert info.value.line == 3


def test_corpus_csv_invalid_mean(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text("paper_id,method_id,mean_dsc,test_n,sd\np1,a,1.90,100,\n")
    with pytest.raises(DataFormatError):
        read_corpus_csv(path)


def test_wrong_field_count(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text("paper_id,method_id,mean_dsc,test_n,sd\np1,a,0.9\n")
    with pytest.raises(DataFormatError) as info:
        read_corpus_csv(path)
    assert info.value.line == 2


def test_calibration_csv(tmp_path):
    path = tmp_path / "cal.csv"
    path.write_text(
        "task_id,method_id,n,mean_dsc,observed_sd\nliver,unet,100,0.90,0.10\n"
    )
    rows = read_calibration_csv(path)
    assert rows == [("liver", "unet", 100, 0.90, 0.10)]


def test_calibration_csv_validation(tmp_path):
    path = tmp_path / "cal.csv"
    path.write_text("task_id,method_id,n,mean_dsc,observed_sd\nliver,unet,1,0.90,0.10\n")
    with pytest.raises(DataFormatError):
        read_calibration_csv(path)


@pytest.mark.parametrize("row, message", [
    ("t,m,1,0.9,0.1", "n must be >= 2, got 1"),
    ("t,m,100,1.5,0.1", "mean_dsc must lie in [0, 1], got 1.5"),
    ("t,m,100,-0.0001,0.1", "mean_dsc must lie in [0, 1], got -0.0001"),
    ("t,m,100,0.9,-0.1", "observed_sd must be >= 0, got -0.1"),
], ids=["n", "mean_above", "mean_below", "sd"])
def test_calibration_csv_range_messages(tmp_path, row, message):
    path = tmp_path / "cal.csv"
    path.write_text("task_id,method_id,n,mean_dsc,observed_sd\nt,m,100,0.9,0.1\n\n" + row + "\n")
    with pytest.raises(DataFormatError, match=f"^{re.escape(f'{path}: line 4: {message}')}$"):
        read_calibration_csv(path)


NON_FINITE = ["nan", "inf", "-inf", "1e400"]


@pytest.mark.parametrize("token", NON_FINITE)
@pytest.mark.parametrize("row", ["{t},8.0", "80.0,{t}"], ids=["mean", "sd"])
def test_pairs_csv_rejects_non_finite(tmp_path, row, token):
    path = tmp_path / "pairs.csv"
    path.write_text("dsc_mean_pct,sd_pct\n80.0,14.0\n" + row.format(t=token) + "\n")
    with pytest.raises(DataFormatError, match="finite") as info:
        read_pairs_csv(path)
    assert info.value.line == 3


@pytest.mark.parametrize("token", NON_FINITE)
@pytest.mark.parametrize("row", ["t,m,100,{t},0.1", "t,m,100,0.9,{t}"], ids=["mean", "sd"])
def test_calibration_csv_rejects_non_finite(tmp_path, row, token):
    path = tmp_path / "cal.csv"
    path.write_text("task_id,method_id,n,mean_dsc,observed_sd\n" + row.format(t=token) + "\n")
    with pytest.raises(DataFormatError, match="finite") as info:
        read_calibration_csv(path)
    assert info.value.line == 2


@pytest.mark.parametrize("token", NON_FINITE)
def test_corpus_and_per_case_reject_non_finite(tmp_path, token):
    # a NaN SD would otherwise widen the leader CI to [0, 1]
    corpus = tmp_path / "corpus.csv"
    corpus.write_text(f"paper_id,method_id,mean_dsc,test_n,sd\np1,a,0.9,100,{token}\n")
    with pytest.raises(DataFormatError) as info:
        read_corpus_csv(corpus)
    assert info.value.line == 2
    cases = tmp_path / "cases.csv"
    cases.write_text(f"task_id,method_id,case_id,dsc\nt,m,c,{token}\n")
    with pytest.raises(DataFormatError) as info:
        list(iter_per_case_csv(cases))
    assert info.value.line == 2


def test_blank_rows_skipped(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("dsc_mean_pct,sd_pct\n\n , \n80.0,14.0\n,\n")
    assert len(read_pairs_csv(path)) == 1


ODD_IDS = ["a,b", 'say "hi"', '"', "two\nlines", "cr\rid", "", " padded ", "tab\tid", "caf\u00e9",
           "nul\0id"]


def test_per_case_writer_matches_csv_writer(tmp_path):
    # every odd id in every id column, next to plain ones
    rows = [CaseResult(*ids, 0.5) for ids in zip(ODD_IDS, ODD_IDS[1:] + ODD_IDS[:1], ODD_IDS[::-1])]
    rows += [CaseResult(task, "m", "c", 1.0 / 3.0) for task in ODD_IDS]
    rows += generate_results(SimSpec(n_tasks=2, methods_per_task=2, cases_per_task=3, seed=8))
    want = io.StringIO()
    # the "\r\n" terminator makes csv.writer quote an id that holds a "\r",
    # as the file's "\n" alone would not; no id here holds "\r\n"
    writer = csv.writer(want, lineterminator="\r\n")
    writer.writerow(PER_CASE_HEADER)
    for row in rows:
        writer.writerow([row.task_id, row.method_id, row.case_id, f"{row.dsc:.6f}"])
    path = tmp_path / "cases.csv"
    write_per_case_csv(rows, path)
    assert path.read_bytes() == want.getvalue().replace("\r\n", "\n").encode("utf-8")


def test_per_case_quoted_ids_round_trip(tmp_path):
    rows = [CaseResult(t, "m", "c", 0.25) for t in ODD_IDS if t.strip() == t]
    path = tmp_path / "cases.csv"
    write_per_case_csv(rows, path)
    assert list(iter_per_case_csv(path)) == rows


@given(st.text())
def test_field_quotes_as_csv_writer(text):
    # RFC 4180's rule, as csv.writer applies it with a "\r\n" terminator; the
    # second field keeps an empty id unquoted, as inside a row
    line = io.StringIO()
    csv.writer(line, lineterminator="\r\n").writerow([text, ""])
    assert sio._field(text) == line.getvalue()[:-3]


def test_numeric_fields_and_flags_share_one_parser():
    assert sio._INT is cli._INT is segci._INT and sio._FLOAT is cli._FLOAT is segci._FLOAT


def test_per_case_carriage_return_id_round_trips(tmp_path):
    # a csv.writer ending lines with "\n" leaves a "\r" unquoted, and a reader splits there
    rows = [CaseResult("cr\rid", "m", "c", 0.5)]
    path = tmp_path / "cases.csv"
    write_per_case_csv(rows, path)
    assert path.read_bytes() == b'task_id,method_id,case_id,dsc\n"cr\rid",m,c,0.500000\n'
    assert list(iter_per_case_csv(path)) == rows


# A quoted id that holds a line break puts every later record one line
# further down the file than its record count.
MULTILINE_FIRST_ROW = {
    iter_per_case_csv: ("task_id,method_id,case_id,dsc\n", '"two\nlines",m,c,0.5\n', "t,m,c,oops\n"),
    read_pairs_csv: ("dsc_mean_pct,sd_pct\n", '"80.0\n",14.0\n', "80.0,oops\n"),
    read_corpus_csv: ("paper_id,method_id,mean_dsc,test_n,sd\n", '"p\n1",a,0.9,100,\n',
                      "p2,a,oops,100,\n"),
    read_calibration_csv: ("task_id,method_id,n,mean_dsc,observed_sd\n",
                           '"two\nlines",m,100,0.9,0.1\n', "t,m,100,oops,0.1\n"),
}


@pytest.mark.parametrize("reader", list(MULTILINE_FIRST_ROW), ids=lambda f: f.__name__)
def test_errors_name_the_physical_line(tmp_path, reader):
    header, two_lines, bad = MULTILINE_FIRST_ROW[reader]
    path = tmp_path / "in.csv"
    path.write_text(header + two_lines + bad)
    with pytest.raises(DataFormatError, match="not a number") as info:
        list(reader(path))
    assert info.value.line == 4
    assert "line 4: " in str(info.value)


FIRST_BAD_THEN_SHORT = {
    iter_per_case_csv: "task_id,method_id,case_id,dsc\nt,m,c,oops\nt,m,c\n",
    read_pairs_csv: "dsc_mean_pct,sd_pct\noops,14.0\n80.0\n",
    read_corpus_csv: "paper_id,method_id,mean_dsc,test_n,sd\np1,a,oops,100,\np1,b,0.8\n",
    read_calibration_csv: "task_id,method_id,n,mean_dsc,observed_sd\nt,m,100,oops,0.1\nt,m,100\n",
}


@pytest.mark.parametrize("reader", list(FIRST_BAD_THEN_SHORT), ids=lambda f: f.__name__)
def test_first_bad_line_is_reported(tmp_path, reader):
    # each row is checked as it is read, so a short row after a bad one is never reached
    path = tmp_path / "in.csv"
    path.write_text(FIRST_BAD_THEN_SHORT[reader])
    with pytest.raises(DataFormatError, match="not a number") as info:
        list(reader(path))
    assert info.value.line == 2


@pytest.mark.parametrize("reader, text, line", [
    (iter_per_case_csv, "task_id,method_id,case_id,dsc\nt,m,c,0.5\nt,m,c2,0.1_5\n", 3),
    (read_pairs_csv, "dsc_mean_pct,sd_pct\n80.0,14.0\n1_0,2\n", 3),
    (read_pairs_csv, "dsc_mean_pct,sd_pct\n80.0,1_4.0\n", 2),
    (read_corpus_csv, "paper_id,method_id,mean_dsc,test_n,sd\np1,a,0.9,1_00,\n", 2),
    (read_corpus_csv, "paper_id,method_id,mean_dsc,test_n,sd\np1,a,0.9,100,0.0_5\n", 2),
    (read_calibration_csv, "task_id,method_id,n,mean_dsc,observed_sd\nt,m,100,0.9,0.1\nt,m,1_00,0.9,0.1\n", 3),
    (read_calibration_csv, "task_id,method_id,n,mean_dsc,observed_sd\nt,m,100,0.9_0,0.1\n", 2),
], ids=["per_case", "pairs_mean", "pairs_sd", "corpus_n", "corpus_sd", "calibration_n",
        "calibration_mean"])
def test_underscore_literals_refused(tmp_path, reader, text, line):
    # float("1_0") and int("1_00") accept the underscore and read 10 and 100
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError, match="not a") as info:
        list(reader(path))
    assert info.value.line == line


def test_per_case_blank_and_malformed_rows(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text("task_id,method_id,case_id,dsc\n\n , , , \nt,m,c,0.5\n,\nt,m,c\n")
    with pytest.raises(DataFormatError, match="expected 4 fields") as info:
        list(iter_per_case_csv(path))
    assert info.value.line == 6
    path.write_text("task_id,method_id,case_id,dsc\n\n , , , \n t , m ,c,0.5\n,\n")
    assert list(iter_per_case_csv(path)) == [("t", "m", "c", 0.5)]


# Cells the readers must refuse or read as documented: non-finite and
# overflowing numbers, empty and blank cells, underscore literals, and
# values just outside each field's range.
FUZZ_CELLS = ["nan", "inf", "-inf", "1e400", "", " ", "1_0", "1.5", "-1", "0.9", "2"]
IDS = ["p1", "p2", ""]
CORPUS_CELLS = [IDS, IDS, ["0.9", "0.05", "0", "1"], ["100"], ["", " ", "0.05", "0"]]
CALIBRATION_CELLS = [IDS, IDS, ["2", "100"], ["0.9", "0.05", "0", "1"], ["0.05", "0"]]


def fuzz_rows(valid_cells):
    """Rows of valid cells, up to three of them replaced by a fuzz cell."""
    row = st.tuples(*(st.sampled_from(cells) for cells in valid_cells)).map(list)
    edit = st.tuples(st.integers(0, 5), st.integers(0, len(valid_cells) - 1),
                     st.sampled_from(FUZZ_CELLS))

    def apply(drawn):
        rows, edits = drawn
        for i, j, cell in edits:
            rows[i % len(rows)][j] = cell
        return [",".join(r) for r in rows]

    return st.tuples(st.lists(row, min_size=1, max_size=6), st.lists(edit, max_size=3)).map(apply)


def read_or_refuse(reader, path):
    """The reader's result, or None after checking that it refused with a line number."""
    try:
        return reader(path)
    except DataFormatError as exc:
        # only a file without data rows is refused as a whole
        assert exc.line is not None or str(exc).endswith("no data rows"), exc
        assert exc.line is None or f"line {exc.line}: " in str(exc)
        return None


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzz_rows(CORPUS_CELLS))
def test_corpus_reader_fuzz(tmp_path, rows):
    path = tmp_path / "corpus.csv"
    path.write_text("\n".join(["paper_id,method_id,mean_dsc,test_n,sd", *rows]) + "\n")
    papers = read_or_refuse(read_corpus_csv, path)
    if papers is not None:
        for paper in papers:
            assert paper.test_n >= 2
            for method in paper.methods:
                assert 0.0 <= method.mean_dsc <= 1.0
                assert method.reported_sd is None or 0.0 <= method.reported_sd < math.inf


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzz_rows(CALIBRATION_CELLS))
def test_calibration_reader_fuzz(tmp_path, rows):
    path = tmp_path / "cal.csv"
    path.write_text("\n".join(["task_id,method_id,n,mean_dsc,observed_sd", *rows]) + "\n")
    results = read_or_refuse(read_calibration_csv, path)
    if results is not None:
        assert len(results) == sum(1 for row in rows if row.replace(",", "").strip())
        for _, _, n, mean, sd in results:
            assert n >= 2 and 0.0 <= mean <= 1.0 and 0.0 <= sd < math.inf


PER_CASE_CELLS = [IDS, IDS, ["c1", "c2", ""], ["0.9", "0", "1", "0.5"]]
PAIRS_CELLS = [["90", "0", "100", "55.5"], ["5", "0.5", "0"]]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzz_rows(PER_CASE_CELLS))
def test_per_case_reader_fuzz(tmp_path, rows):
    path = tmp_path / "cases.csv"
    path.write_text("\n".join([",".join(PER_CASE_HEADER), *rows]) + "\n")
    results = read_or_refuse(lambda p: list(iter_per_case_csv(p)), path)
    if results is not None:
        assert len(results) == sum(1 for row in rows if row.replace(",", "").strip())
        for _, _, _, dsc in results:
            assert 0.0 <= dsc <= 1.0


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzz_rows(PAIRS_CELLS))
def test_pairs_reader_fuzz(tmp_path, rows):
    path = tmp_path / "pairs.csv"
    path.write_text("\n".join(["dsc_mean_pct,sd_pct", *rows]) + "\n")
    pairs = read_or_refuse(read_pairs_csv, path)
    if pairs is not None:
        assert len(pairs) == sum(1 for row in rows if row.replace(",", "").strip())
        for mean, sd in pairs:
            assert 0.0 <= mean <= 100.0 and 0.0 < sd < math.inf


# Ids that need quoting or stripping: a task or method id read with and
# without its padding is one group.
GROUP_IDS = ["t", " t ", "t ", "a,b", 'say "hi"', "cr\rid", "two\nlines", "", "tab\tid"]
BLANK_ROWS = ["", " , , , ", ",", "  "]
group_values = st.one_of(
    st.builds(lambda v, n: [v] * n, st.floats(0.0, 1.0), st.integers(1, 6)),  # constant or single
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    st.lists(st.sampled_from([0.0, 0.5, 1.0, 0.333333]), min_size=1, max_size=6),
)


def csv_line(fields) -> str:
    text = io.StringIO()
    csv.writer(text, lineterminator="\r\n").writerow(fields)  # "\r\n" quotes a "\r" id
    return text.getvalue()[:-2] + "\n"


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(st.tuples(st.sampled_from(GROUP_IDS), st.sampled_from(GROUP_IDS), group_values),
             min_size=1, max_size=8),
    st.lists(st.sampled_from(BLANK_ROWS), max_size=4),
    st.sampled_from(["{:.6f}", "{!r}"]),
    st.randoms(use_true_random=False),
)
def test_streamed_aggregate_matches_row_path(tmp_path, groups, blanks, number, rand):
    lines = [
        csv_line([task, method, f"c{i}", number.format(value)])
        for task, method, values in groups
        for i, value in enumerate(values)
    ]
    lines += [blank + "\n" for blank in blanks]
    rand.shuffle(lines)
    path = tmp_path / "cases.csv"
    path.write_text(",".join(PER_CASE_HEADER) + "\n" + "".join(lines), encoding="utf-8")

    def by_hex(result):
        pairs = [(p.dsc_mean_pct.hex(), p.sd_pct.hex()) for p in result.pairs]
        return pairs, result.n_groups, result.n_dropped_zero_sd, result.n_skipped_small

    got = by_hex(make_training_pairs(iter_per_case_csv(path)))
    pairs, dropped, skipped = summarize_pairs(list(iter_per_case_csv(path)))
    assert (got[0], got[2], got[3]) == (pairs, dropped, skipped)
