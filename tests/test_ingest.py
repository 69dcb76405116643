import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from canaudit import (
    AuditDataset,
    DatasetError,
    dataset_summary,
    ingest,
    parse_dataset,
    serialize_dataset,
)

from conftest import make_dataset


def test_minimal_csv():
    d = parse_dataset(b"role,loss\ncanary,2.5\nreference,3.1\n")
    assert d.m == 1 and d.n == 1
    assert d.canary_losses[0] == 2.5
    assert d.reference_losses[0] == 3.1
    assert d.replications == 1


def test_csv_nan_loss_reports_line_number():
    text = "role,loss\ncanary,2.5\ncanary,NaN\nreference,1.0\n"
    with pytest.raises(DatasetError, match=r"line 3.*non-finite"):
        parse_dataset(text)


def test_csv_infinite_loss_rejected():
    with pytest.raises(DatasetError, match="non-finite"):
        parse_dataset("role,loss\ncanary,inf\nreference,1.0\n")


def test_jsonl_mixed_replications_rejected():
    lines = [
        {"role": "canary", "loss": 1.0, "replications": 2},
        {"role": "canary", "loss": 2.0, "replications": 3},
        {"role": "reference", "loss": 0.5},
    ]
    text = "\n".join(json.dumps(obj) for obj in lines)
    with pytest.raises(DatasetError, match="mixed"):
        parse_dataset(text)


def test_replications_below_one_rejected():
    with pytest.raises(DatasetError, match=r"line 2.*replications"):
        parse_dataset("role,loss,replications\ncanary,1.0,0\nreference,2.0,1\n")


def test_unknown_role_reports_line_number():
    with pytest.raises(DatasetError, match=r"line 2.*role"):
        parse_dataset("role,loss\nholdout,1.0\n")


def test_role_is_case_insensitive():
    d = parse_dataset("role,loss\nCanary,1.0\nREFERENCE,2.0\n")
    assert d.m == 1 and d.n == 1


def test_unknown_csv_column_rejected():
    with pytest.raises(DatasetError, match="unknown column"):
        parse_dataset("role,loss,weight\ncanary,1.0,2\n")


def test_unknown_jsonl_key_rejected():
    with pytest.raises(DatasetError, match=r"line 1.*unknown keys"):
        parse_dataset('{"role": "canary", "loss": 1.0, "weight": 2}')


def test_malformed_csv_row_field_count():
    with pytest.raises(DatasetError, match=r"line 3.*fields"):
        parse_dataset("role,loss\ncanary,1.0\nreference\n")


def test_malformed_loss_token():
    with pytest.raises(DatasetError, match=r"line 2.*malformed loss"):
        parse_dataset("role,loss\ncanary,abc\n")


def test_malformed_jsonl_line():
    with pytest.raises(DatasetError, match=r"line 2.*malformed JSON"):
        parse_dataset('{"role": "canary", "loss": 1.0}\n{oops')


def test_jsonl_boolean_loss_rejected():
    with pytest.raises(DatasetError, match="loss"):
        parse_dataset('{"role": "canary", "loss": true}')


def test_empty_canary_set_rejected():
    with pytest.raises(DatasetError, match="no canary"):
        parse_dataset("role,loss\nreference,1.0\n")


def test_empty_reference_set_rejected():
    with pytest.raises(DatasetError, match="no reference"):
        parse_dataset("role,loss\ncanary,1.0\n")


def test_reference_with_replications_rejected():
    with pytest.raises(DatasetError, match="references must have replications"):
        parse_dataset(
            "role,loss,replications\ncanary,1.0,2\nreference,2.0,2\n"
        )


def test_optional_columns_parsed():
    text = "role,loss,id,replications\ncanary,1.5,c-1,4\nreference,2.5,,\n"
    d = parse_dataset(text)
    assert d.canary_ids[0] == "c-1"
    assert d.replications == 4
    assert d.reference_ids is None


def test_input_order_preserved():
    text = "role,loss\ncanary,3.0\nreference,9.0\ncanary,1.0\ncanary,2.0\nreference,8.0\n"
    d = parse_dataset(text)
    assert d.canary_losses.tolist() == [3.0, 1.0, 2.0]
    assert d.reference_losses.tolist() == [9.0, 8.0]


@pytest.mark.parametrize("format", ["csv", "jsonl"])
def test_round_trip_identity(format):
    import numpy as np

    rng = np.random.default_rng(5)
    for trial in range(20):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        reps = int(rng.integers(1, 4))
        ids = None
        if rng.random() < 0.5:
            ids = [f"c{i}" if rng.random() < 0.7 else None for i in range(m)]
        d = make_dataset(rng.normal(size=m), rng.normal(size=n),
                         replications=reps, ids=ids)
        text = serialize_dataset(d, format)
        assert parse_dataset(text) == d


# Every diagnostic ingest can raise, pinned to the byte: (format, input, message).
ERROR_CASES = [
    ("csv", b"", "empty file: missing CSV header"),
    ("csv", "loss,role\n1.0,canary\n",
     "header: expected leading columns role,loss, got ['loss', 'role']"),
    ("csv", "role,loss,weight\ncanary,1.0,2\n", "header: unknown column 'weight'"),
    ("csv", "role,loss,id,id\ncanary,1.0,a,b\n",
     "header: duplicate columns in ['role', 'loss', 'id', 'id']"),
    ("csv", "role,loss\ncanary,1.0\nreference\n", "line 3: expected 2 fields, got 1"),
    ("csv", "role,loss\nholdout,1.0\n", "line 2: unknown role 'holdout'"),
    ("csv", "role,loss\ncanary,abc\n", "line 2: malformed loss 'abc'"),
    ("csv", "role,loss\ncanary,2.5\ncanary,NaN\nreference,1.0\n",
     "line 3: non-finite loss 'NaN'"),
    ("csv", "role,loss\ncanary,-inf\nreference,1.0\n", "line 2: non-finite loss '-inf'"),
    ("csv", "role,loss,replications\ncanary,1.0,x\nreference,2.0,\n",
     "line 2: malformed replications 'x'"),
    ("csv", "role,loss,replications\ncanary,1.0,0\nreference,2.0,1\n",
     "line 2: replications must be >= 1, got 0"),
    ("csv", "role,loss,replications\ncanary,1.0,2\nreference,2.0,2\n",
     "line 3: references must have replications = 1, got 2"),
    ("csv", "role,loss\nreference,1.0\n",
     "dataset has no canary records (m >= 1 required)"),
    ("csv", "role,loss\ncanary,1.0\n",
     "dataset has no reference records (n >= 1 required)"),
    ("csv", "role,loss,replications\ncanary,1.0,2\ncanary,2.0,3\nreference,0.5,\n",
     "mixed canary replication counts [2, 3]; "
     "all canaries must share one replication count"),
    # emptiness is reported before mixed replications, line errors before both
    ("csv", "role,loss,replications\ncanary,1.0,2\ncanary,2.0,3\n",
     "dataset has no reference records (n >= 1 required)"),
    ("csv", "role,loss,replications\ncanary,1.0,2\ncanary,2.0,3\nreference,x,\n",
     "line 4: malformed loss 'x'"),
    ("csv", b"role,loss\ncanary,\xff\n",
     "input is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 17: "
     "invalid start byte"),
    ("jsonl", '{"role": "canary", "loss": 1.0}\n{oops',
     "line 2: malformed JSON (Expecting property name enclosed in double quotes)"),
    ("jsonl", '{"role": "canary", "loss": 1.0}\n[1, 2]',
     "line 2: expected a JSON object, got [1, 2]"),
    # json.loads keeps a repeated key's last value; CSV rejects a repeated column too
    ("jsonl", '{"role": "canary", "role": "reference", "loss": 1.0}',
     "line 1: duplicate keys in ['role', 'role', 'loss']"),
    ("jsonl", '{"role": "canary", "loss": 1.0}\n'
              '{"role": "reference", "loss": 2.0, "lo\\u0073s": 0.5}',
     "line 2: duplicate keys in ['role', 'loss', 'loss']"),
    ("jsonl", '{"role": "canary", "loss": 1.0, "weight": 2}',
     "line 1: unknown keys ['weight']"),
    ("jsonl", '{"role": "canary"}', "line 1: missing required keys 'role' and 'loss'"),
    ("jsonl", '{"role": 1, "loss": 1.0}', "line 1: role must be a string, got 1"),
    ("jsonl", '{"role": "holdout", "loss": 1.0}', "line 1: unknown role 'holdout'"),
    ("jsonl", '{"role": "canary", "loss": true}', "line 1: loss must be a number, got True"),
    ("jsonl", '{"role": "canary", "loss": "abc"}', "line 1: malformed loss 'abc'"),
    ("jsonl", '{"role": "canary", "loss": null}', "line 1: malformed loss None"),
    ("jsonl", '{"role": "canary", "loss": NaN}', "line 1: non-finite loss nan"),
    ("jsonl", '{"role": "canary", "loss": 1e400}', "line 1: non-finite loss inf"),
    ("jsonl", '{"role": "canary", "loss": 1.0, "id": 5}', "line 1: id must be a string, got 5"),
    # UTF-8 cannot encode a lone surrogate, so no Markdown or CSV report could write it
    ("jsonl", '{"role": "canary", "loss": 1.0, "id": "\\ud800"}',
     "line 1: id must not hold a lone surrogate, got '\\ud800'"),
    ("csv", "role,loss,id\ncanary,1.0,a\udfffb\n",
     "line 2: id must not hold a lone surrogate, got 'a\\udfffb'"),
    ("jsonl", '{"role": "canary", "loss": 1.0, "replications": true}',
     "line 1: replications must be an integer, got True"),
    ("jsonl", '{"role": "canary", "loss": 1.0, "replications": "x"}',
     "line 1: malformed replications 'x'"),
    ("jsonl", '{"role": "canary", "loss": 1.0, "replications": 0}',
     "line 1: replications must be >= 1, got 0"),
    ("jsonl", '{"role": "canary", "loss": 1.0}\n'
              '{"role": "reference", "loss": 2.0, "replications": 2}',
     "line 2: references must have replications = 1, got 2"),
    ("jsonl", '{"role": "reference", "loss": 1.0}',
     "dataset has no canary records (m >= 1 required)"),
    ("jsonl", '\n{"role": "canary", "loss": 1.0}\n',
     "dataset has no reference records (n >= 1 required)"),
    ("jsonl", '{"role": "canary", "loss": 1.0, "replications": 2}\n'
              '{"role": "canary", "loss": 2.0, "replications": 3}\n'
              '{"role": "reference", "loss": 0.5}',
     "mixed canary replication counts [2, 3]; "
     "all canaries must share one replication count"),
    ("jsonl", b'{"role": "canary", "loss": 1.0, "id": "\xc3"}',
     "input is not valid UTF-8: 'utf-8' codec can't decode byte 0xc3 in position 39: "
     "invalid continuation byte"),
    ("jsonl", '{"role": "canary", "loss": 1.0}\n{"role": "reference", "loss": 1%s}'
              % ("0" * 400), "line 2: loss 1%s out of float range" % ("0" * 400)),
    ("jsonl", '{"role": "canary", "loss": 1%s}' % ("0" * 5000),
     "line 1: Exceeds the limit (4300 digits) for integer string conversion: "
     "value has 5001 digits; use sys.set_int_max_str_digits() to increase the limit"),
    ("jsonl", '{"role": "canary", "loss": %s1%s}' % ("[" * 100_000, "]" * 100_000),
     "line 1: maximum recursion depth exceeded while decoding a JSON array "
     "from a unicode string"),
    ("jsonl", '{"role": "canary", "loss": 1.0, "replications": 2.7}',
     "line 1: replications must be an integer, got 2.7"),
    ("jsonl", '{"role": "canary", "loss": 1.0, "replications": 2.0}',
     "line 1: replications must be an integer, got 2.0"),
    ("csv", "role,loss\ncanary,1.0\nreference,0.%s1\n" % ("0" * 131072),
     "line 3: field larger than field limit (131072)"),
    ("csv", "role,loss\ncanary,1.0\rreference,2.0\n",
     "line 2: new-line character seen in unquoted field - "
     "do you need to open the file in universal-newline mode?"),
    # a quoted field spans lines: later records keep their physical line numbers
    ("csv", 'role,loss,id\ncanary,1.0,"a\nb"\nreference,x,\n',
     "line 4: malformed loss 'x'"),
    ("csv", 'role,loss,id\ncanary,1.0,"a\nb\nc"\n\nreference,2.0\n',
     "line 6: expected 3 fields, got 2"),
    # replications that equal 1 but are no plain integer still get the full check
    ("jsonl", '{"role": "canary", "loss": 1}\n'
              '{"role": "reference", "loss": 2, "replications": 1.0}',
     "line 2: replications must be an integer, got 1.0"),
    ("jsonl", '{"role": "canary", "loss": 1}\n'
              '{"role": "reference", "loss": 2, "replications": true}',
     "line 2: replications must be an integer, got True"),
    ("jsonl", '{"role": "canary", "loss": 1, "replications": null}',
     "line 1: malformed replications None"),
    # an empty first line is the CSV header, never an empty line to skip
    ("csv", "\nrole,loss\ncanary,1.0\nreference,2.0\n",
     "header: expected leading columns role,loss, got []"),
    ("csv", "\r\nrole,loss\r\ncanary,1.0\r\nreference,2.0\r\n",
     "header: expected leading columns role,loss, got []"),
    # skipped empty lines still count in the line numbers of errors
    ("csv", "role,loss\n\ncanary,1.0\n\ncanary,NaN\nreference,1.0\n",
     "line 5: non-finite loss 'NaN'"),
    ("jsonl", '{"role": "canary", "loss": 1.0}\r\n\r\n{"role": "reference", "loss": x}\r\n',
     "line 3: malformed JSON (Expecting value)"),
    # float() and int() read a digit-group "_" and non-ASCII digits; a number
    # in a file is plain ASCII, with no "_"
    ("csv", "role,loss\ncanary,1_0\nreference,2.0\n", "line 2: malformed loss '1_0'"),
    ("csv", "role,loss\ncanary,1.0\nreference,\uff12.\uff15\n",
     "line 3: malformed loss '\uff12.\uff15'"),
    ("csv", "role,loss,replications\ncanary,1.0,1_0\nreference,2.0,\n",
     "line 2: malformed replications '1_0'"),
    ("csv", "role,loss,replications\ncanary,1.0,\uff12\nreference,2.0,\n",
     "line 2: malformed replications '\uff12'"),
    ("jsonl", '{"role": "canary", "loss": "1_0"}\n{"role": "reference", "loss": 2.0}',
     "line 1: malformed loss '1_0'"),
    ("jsonl", '{"role": "canary", "loss": 1.0, "replications": "1_0"}\n'
              '{"role": "reference", "loss": 2.0}',
     "line 1: malformed replications '1_0'"),
]


def test_replications_of_one_accepted():
    jsonl = ('{"role": "canary", "loss": 1}\n'
             '{"role": "reference", "loss": 2, "replications": 1}\n')
    csv_text = "role,loss,replications\ncanary,1, 1 \nreference,2, 1 \n"
    for raw in (jsonl, csv_text):
        assert parse_dataset(raw).replications == 1


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_jsonl_lines_end_at_line_feed_only(newline):
    # json.dumps(ensure_ascii=False) leaves U+2028 and U+0085 in strings as
    # they are; str.splitlines() would break the line inside them.
    rows = [{"role": "canary", "loss": 1.0, "id": "a\u2028b"},
            {"role": "reference", "loss": 2.0, "id": "a\x85b"}]
    text = "".join(json.dumps(row, ensure_ascii=False) + newline for row in rows)
    d = parse_dataset(text)
    assert d.canary_ids == ("a\u2028b",) and d.reference_ids == ("a\x85b",)


@pytest.mark.parametrize("format,raw,message", ERROR_CASES)
def test_error_messages_are_pinned(format, raw, message):
    with pytest.raises(DatasetError) as exc:
        parse_dataset(raw)
    assert str(exc.value) == message


@pytest.mark.parametrize("format,raw,message",
                         [case for case in ERROR_CASES if isinstance(case[1], str)])
def test_bulk_reader_defers_on_every_error(format, raw, message):
    assert ingest._read_bulk(raw, format) is None


def test_bulk_reader_reads_plain_files():
    canaries = np.random.default_rng(3).normal(size=30_000)
    references = np.random.default_rng(4).normal(size=20_000)
    # Losses rounded to two decimals repeat within a block, so blocks are
    # read a distinct line at a time until the first mostly distinct block.
    tied_canaries = np.random.default_rng(5).normal(size=100_000).round(2)
    tied_references = np.random.default_rng(6).normal(size=80_000).round(2)
    datasets = [make_dataset(canaries, references),
                make_dataset(tied_canaries, tied_references),
                make_dataset(tied_canaries, references),  # tied blocks, then distinct
                make_dataset(canaries, tied_references)]  # distinct blocks, then tied
    for d in datasets:
        for format in ("csv", "jsonl"):
            text = serialize_dataset(d, format)
            assert len(text) > ingest._BLOCK_CHARS  # at least two blocks
            assert _identical(ingest._read_bulk(text, format), d)


@pytest.mark.parametrize("format", ["csv", "jsonl"])
def test_bulk_reader_probes_later_blocks_for_ties(format):
    # Distinct canaries come first and turn off reading distinct lines; the
    # probe at block 8 finds the tied references and turns it back on.
    rng = np.random.default_rng(7)
    d = make_dataset(rng.normal(size=40), rng.integers(0, 4, size=600).astype(float))
    text = serialize_dataset(d, format)
    read_block = {"csv": "_csv_block", "jsonl": "_jsonl_block"}[format]
    original, seen = getattr(ingest, read_block), []

    def spy(block):
        seen.append(block.count("\n") + 1)
        return original(block)

    with mock.patch.object(ingest, "_BLOCK_CHARS", 256):
        start = len("role,loss\n") if format == "csv" else 0
        lines = [block.count("\n") + 1 for block in ingest._blocks(text, start)]
        with mock.patch.object(ingest, read_block, spy):
            bulk = ingest._read_bulk(text, format)
    assert len(lines) > 9
    assert _identical(bulk, _line_parse(text)) and _identical(bulk, d)
    assert seen[:8] == lines[:8] and seen[8] < lines[8]


@pytest.mark.parametrize("format", ["csv", "jsonl"])
def test_bulk_reader_reads_crlf_line_ends(format):
    d = make_dataset([1.5, -0.0, 2.25], [2.5, 1e-300])
    text = serialize_dataset(d, format).replace("\n", "\r\n")
    assert _identical(ingest._read_bulk(text, format), d)


@pytest.mark.parametrize("format", ["csv", "jsonl"])
def test_bulk_reader_skips_empty_lines(format):
    # Both line parsers skip empty lines; the bulk reader reads a block again
    # without them, so one empty line no longer sends a file to the line parser.
    # Tied canaries, read a distinct line at a time, then distinct references.
    canaries = np.random.default_rng(8).normal(size=3_000).round(1)
    references = np.random.default_rng(9).normal(size=2_000)
    d = make_dataset(canaries, references)
    lines = serialize_dataset(d, format).split("\n")
    start = 1 if format == "csv" else 0
    for at in ([start], [start, 1000, len(lines) // 2, len(lines) - 1],
               [len(lines) - 1], [len(lines) - 1] * 3):
        with_empty = list(lines)
        for i in sorted(at, reverse=True):
            with_empty.insert(i, "")
        for newline in ("\n", "\r\n"):
            text = newline.join(with_empty)
            with mock.patch.object(ingest, "_BLOCK_CHARS", 1 << 12):
                bulk = ingest._read_bulk(text, format)
            assert bulk is not None and _identical(bulk, d)
            assert _identical(_line_parse(text), d)


@pytest.mark.parametrize("format", ["csv", "jsonl"])
def test_byte_order_mark_is_skipped(format):
    d = make_dataset([1.5, -0.0], [2.5])
    text = serialize_dataset(d, format)
    assert _identical(parse_dataset("\ufeff" + text), d)
    assert _identical(parse_dataset(("\ufeff" + text).encode("utf-8")), d)
    assert _identical(_line_parse("\ufeff" + text), d)


def test_parse_rejects_unknown_format():
    # the content decides the format: there is no argument to pass
    with pytest.raises(TypeError):
        parse_dataset("role,loss\n", "csv")


def test_loss_record_invariants():
    with pytest.raises(DatasetError, match="finite"):
        AuditDataset(canary_losses=[1.0, float("nan")], reference_losses=[2.0])
    with pytest.raises(DatasetError, match="finite"):
        AuditDataset(canary_losses=[1.0], reference_losses=[float("-inf")])
    for bad in (0, -1, True, 2.0, np.float64(2.0)):
        with pytest.raises(DatasetError, match="replications must be a positive integer"):
            AuditDataset(canary_losses=[1.0], reference_losses=[2.0], replications=bad)
    with pytest.raises(DatasetError, match="ids"):
        AuditDataset(canary_losses=[1.0, 2.0], reference_losses=[2.0], canary_ids=["a"])
    with pytest.raises(DatasetError, match="ids"):
        AuditDataset(canary_losses=[1.0], reference_losses=[2.0], reference_ids=["a", "b"])


@pytest.mark.parametrize("reps", [np.int64(2), np.uint8(2)])
def test_numpy_integer_replications_accepted(reps):
    d = AuditDataset(canary_losses=[1.0], reference_losses=[2.0], replications=reps)
    assert type(d.replications) is int and d.replications == 2
    assert json.loads(json.dumps(dataset_summary(d)))["replications"] == 2


def test_dataset_is_not_equal_to_other_types():
    d = make_dataset([1.0], [2.0])
    assert not d == (d.canary_losses, d.reference_losses)
    assert d != "dataset"


def test_ids_must_be_strings():
    with pytest.raises(DatasetError, match="id must be a string, got 1"):
        AuditDataset([1.0], [2.0], canary_ids=[1])


def test_serialize_rejects_unknown_format():
    with pytest.raises(ValueError, match="format"):
        serialize_dataset(make_dataset([1.0], [2.0]), "xml")


def test_dataset_requires_consistent_roles():
    with pytest.raises(DatasetError, match="no canary"):
        AuditDataset(canary_losses=[], reference_losses=[2.0])
    with pytest.raises(DatasetError, match="no reference"):
        AuditDataset(canary_losses=[1.0], reference_losses=np.array([]))
    with pytest.raises(DatasetError, match="1-D"):
        AuditDataset(canary_losses=[[1.0]], reference_losses=[2.0])


def test_summary_statistics():
    d = make_dataset([1.0, 3.0], [5.0, 5.0, 5.0])
    summary = dataset_summary(d)
    assert summary["m"] == 2 and summary["n"] == 3
    assert summary["canary_loss"]["mean"] == 2.0
    assert summary["reference_loss"]["min"] == 5.0
    assert summary["reference_loss"]["max"] == 5.0


def test_summary_minimal_dataset():
    d = make_dataset([7.0], [9.0])
    summary = dataset_summary(d)
    assert summary["m"] == 1 and summary["n"] == 1
    assert summary["replications"] == 1


def _identical(a, b):
    """Equal datasets whose losses also match bit for bit (so -0.0 != 0.0)."""
    return a == b and all(
        getattr(a, name).tobytes() == getattr(b, name).tobytes()
        for name in ("canary_losses", "reference_losses")
    )


def _line_parse(raw):
    """parse_dataset with the bulk reader turned off: the line parser alone."""
    with mock.patch.object(ingest, "_read_bulk", lambda text, format: None):
        return parse_dataset(raw)


def _outcome(parse, raw):
    try:
        return parse(raw)
    except DatasetError as exc:
        return str(exc)


# Finite losses both readers agree on, then tokens the line parser must judge.
VALID_LOSSES = ["2.5", "-0.0", "0.0", "5e-324", "2.2e-308", "1e308", "-1e308", "3", "-7"]
ODD_LOSSES = ["1" + "0" * 400, "NaN", "inf", "-Infinity", "1e400", "true", "null"]
CSV_ODD_LOSSES = ODD_LOSSES + ["1_0", " 1.5 ", "", "abc", '"1.5"', "1.5\u2028"]
JSON_ODD_LOSSES = ODD_LOSSES + ['"1.5"', "1.5e+3", "[1]", "1.0 "]
ODD_ROLES = ["Canary", " canary", "holdout", "REFERENCE", ""]


@st.composite
def _files(draw, valid_row, odd_row, headers):
    """Files of valid rows with up to two odd rows inserted anywhere.

    Mostly valid rows keep both roles present, so the odd row decides
    whether the bulk reader may read the file.
    """
    rows = draw(st.lists(valid_row, min_size=2, max_size=10))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(odd_row))
    newline = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    lines = ([draw(st.sampled_from(headers))] if headers else []) + rows
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


csv_file = _files(
    st.tuples(st.sampled_from(["canary", "reference"]),
              st.sampled_from(VALID_LOSSES)).map(",".join),
    st.one_of(
        st.tuples(st.sampled_from(["canary", "reference"] + ODD_ROLES),
                  st.sampled_from(VALID_LOSSES + CSV_ODD_LOSSES)).map(",".join),
        st.sampled_from(["", "  ", '"canary",1.0', '"canary,1.0"', "canary,1.0,x",
                         "reference", "canary,", "canary,1.0,canary",
                         "canary,1.0,reference,2.0", "canary,1.0\r", "canary,\r1.0",
                         "canary,1.0\rreference,2.0"]),
    ),
    ["role,loss", "role,loss", "role,loss", "Role,Loss", "role,loss,id", " role,loss"],
)


def _object(role, loss):
    return '{"role": %s, "loss": %s}' % (role, loss)


jsonl_file = _files(
    st.tuples(st.sampled_from(['"canary"', '"reference"']),
              st.sampled_from(VALID_LOSSES)).map(lambda t: _object(*t)),
    st.one_of(
        st.tuples(st.sampled_from(['"canary"', '"reference"', '"Canary"', '" canary"',
                                   '"holdout"', '"canary\u2028"', '"canary\\u2028"',
                                   '"c\\u0061nary"', "1"]),
                  st.sampled_from(VALID_LOSSES + JSON_ODD_LOSSES)).map(lambda t: _object(*t)),
        st.sampled_from([
            "", "  ",
            '{"role": "canary"', '"loss": 1}',
            '{"role": "canary", "loss": 1}{"role": "reference", "loss": 2}',
            '{"role": "canary", "loss": 1}, {"role": "reference", "loss": 2}',
            '{"role": "canary", "loss": 1} ', ' {"role": "canary", "loss": 1}',
            '{"role": "canary", "loss": 1, "id": "a"}',
            '{"role": "canary", "loss": 1, "replications": 1}',
            '{"role": "reference", "role": "canary", "loss": 1}',
            '{"role": "canary",\r"loss": 1}', '{"role":\t"canary",\u2028"loss": 1}',
            '{"role": "}', '{", "role": "canary", "loss": 1}',
            '[{"role": "canary", "loss": 1}]',
        ]),
    ),
    [],
)


def _check_bulk_matches_line_parser(raw):
    with mock.patch.object(ingest, "_BLOCK_CHARS", 64):
        bulk = _outcome(parse_dataset, raw)
        lines = _outcome(_line_parse, raw)
    if isinstance(lines, str) or isinstance(bulk, str):
        assert bulk == lines
    else:
        assert _identical(bulk, lines)


@settings(max_examples=400)
@given(csv_file, st.booleans())
# Lines whose commas add up but split differently: one line too few fields,
# another too many.
@example("role,loss\ncanary,1,reference\n5\n", False)
@example("role,loss\ncanary,1,reference,2\nreference,3\n", False)
# csv ends a record at "\r", where float() takes it for whitespace.
@example("role,loss\ncanary,\r1.0\nreference,2.0\n", False)
# Identical lines fill the first blocks, which are read a distinct line at
# a time; a later block holds an odd row.
@example("role,loss\n" + "canary,1\n" * 16
         + "canary,1_0\ncanary,1\ncanary,1\nreference,2\n" * 2, False)
def test_bulk_csv_matches_line_parser(text, as_bytes):
    _check_bulk_matches_line_parser(text.encode("utf-8") if as_bytes else text)


@settings(max_examples=400)
@given(jsonl_file, st.booleans())
# A string that spans two lines, with duplicate keys to make the quote count
# come out at six per line; and that merge offset by a line holding two objects.
@example('{"role": "}\n{", "role": "canary", "loss": 1, "loss": 2}\n'
         '{"role": "reference", "loss": 3}\n', False)
@example('{"role": "}\n{", "role": "canary", "loss": 1}\n'
         '{"role": "canary", "loss": 1},{"role": "reference", "loss": 2}\n', False)
# Six quotes a line, but one object split over two lines after another.
@example('{"role": "canary", "loss": 1}, {"role": "reference"\n"loss": 2}\n', False)
# JSON takes "\r" for whitespace; the line parser splits lines at "\n" only.
@example('{"role": "canary",\r"loss": 1}\n{"role": "reference", "loss": 2}\n', False)
# Identical lines fill the first blocks, which are read a distinct line at
# a time; a later block holds an odd row.
@example('{"role": "canary", "loss": 1}\n' * 6 + '{"role": "canary", "loss": 1e400}\n' * 2
         + '{"role": "reference", "loss": 2}\n', False)
@example('{"role": "canary", "loss": 1}\n' * 6
         + '{"role": "reference", "role": "canary", "loss": 1}\n' * 2
         + '{"role": "reference", "loss": 2}\n', False)
@example('{"role": "canary", "loss": 1}\n' * 6 + '{"loss": 2, "role": "reference"}\n' * 2
         + '{"role": "reference", "loss": 2}\n', False)
def test_bulk_jsonl_matches_line_parser(text, as_bytes):
    _check_bulk_matches_line_parser(text.encode("utf-8") if as_bytes else text)
