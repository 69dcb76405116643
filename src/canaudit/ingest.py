"""Loading, validating, and writing canary/reference loss datasets.

A loss file assigns each example a role (``canary`` or ``reference``) and a
loss value. Losses are opaque monotone scores: the library only ever uses
their ordering, so any score where lower means "more probable under the
model" works (negative log-likelihood in nats, perplexity, ...).

In memory a dataset is columnar: one float64 loss array per role, optional
per-role ids, and the single replication count all canaries share.
Duplicated canaries appear once, with a ``replications`` count, rather than
as repeated rows; repeating rows would inflate the canary count m.

A file with only roles and losses is read in bulk, about a megabyte of
lines per conversion, and a line repeated within that megabyte (as
low-precision losses are) is converted once. Any file the bulk reader
cannot prove it reads as the line-by-line parser would goes to that
parser, the single source of every diagnostic. The line parser is one
record path: each format's generator checks its own syntax and yields raw
records, and ``_dataset`` checks every field of one record before the
next is read, so the first fault in the file is the one reported. A loss
or replication count is read in two steps: a text token must first be a
number to ``_number`` (else it is ``malformed``), and the value then
meets the rule, and the message, the library applies to it in memory.

Every shared input rule of the library lives here, once:
``_positive_integer`` (counts), ``_non_negative_integer`` (seeds, hit
counts), ``_real`` (thresholds, losses, parameters), ``_unit_interval``
(probabilities, confidences, fpr targets), ``_sequence`` (points, ids)
and ``_column`` (arrays). Each raises ``ValueError`` with one message,
and the CLI checks a flag by calling the same rule under the flag's name.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import re
from dataclasses import dataclass, fields as dataclass_fields
from functools import cached_property
from itertools import chain, islice, repeat
from operator import itemgetter

import numpy as np

ROLES = ("canary", "reference")

_CSV_REQUIRED = ("role", "loss")
_CSV_OPTIONAL = ("id", "replications")
_JSONL_KEYS = frozenset(("role", "loss", "id", "replications"))
# An id holding any of these is written quoted; csv.reader ends an unquoted
# field at "\r" as at "\n".
_CSV_SPECIAL = frozenset(',"\n\r')
# Code points UTF-8 cannot encode (JSON reads "\ud800" as one): no report could write them.
_SURROGATE = re.compile("[\ud800-\udfff]")
# A JSON Lines file opens with an object; a CSV header's first cell strips to "role".
_JSONL_START = re.compile("[ \t\n\r\f\v]*{")

# The bulk reader converts about this many characters of whole lines at a
# time, so its transient lists and objects stay a few MB whatever the file.
_BLOCK_CHARS = 1 << 20


class DatasetError(ValueError):
    """A loss file or in-memory dataset violates the dataset contract."""


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _integer(value, name: str, least: int) -> int:
    """``value`` as an int, if it is an integer of any type but bool and >= ``least``."""
    # An exact int skips the numbers ABC check, which costs ~0.5 us a parsed record.
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)) or value < least:
        sign = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {sign} integer, got {value!r}")
    return int(value)


def _positive_integer(value, name: str) -> int:
    return _integer(value, name, 1)


def _non_negative_integer(value, name: str) -> int:
    return _integer(value, name, 0)


def _real(value, name: str, finite: bool = False) -> float:
    """``value`` as a float: a real number of any type but bool, finite if ``finite``."""
    # An exact float or int skips the numbers ABC check, as in ``_integer``.
    if type(value) not in (float, int) and (isinstance(value, bool)
                                            or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # beyond the doubles; a huge int's repr can exceed the digit limit
        raise ValueError(f"{name} must be within the float range") from None
    if finite and not math.isfinite(real):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return real


def _unit_interval(value, name: str, closed: bool = False) -> float:
    """``value`` as a float, if it is a real number in (0, 1), or in [0, 1] if ``closed``."""
    real = _real(value, name)
    if not (0.0 <= real <= 1.0 if closed else 0.0 < real < 1.0):
        raise ValueError(f"{name} must be in {'[0, 1]' if closed else '(0, 1)'}, got {value}")
    return real


def _sequence(value, what: str) -> list:
    """``value`` read once into a list; a bare string, bytes or number is not a sequence."""
    if isinstance(value, (str, bytes, numbers.Number)):
        raise ValueError(f"expected a sequence of {what}, got {value!r}")
    return list(value)


def _column(values, name: str, integer: bool = False, empty: str | None = None) -> np.ndarray:
    """``values`` as a non-empty 1-D array: integers if ``integer``, else finite float64."""
    try:
        array = np.asarray(values)
    except ValueError:  # nested sequences of unequal lengths have no shape
        raise ValueError(f"{name} must be 1-D, got a ragged sequence") from None
    if array.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {array.shape}")
    if array.size == 0:
        raise ValueError(empty or f"{name} must be non-empty")
    what, kinds = ("integers", "iu") if integer else ("real numbers", "iufO")
    if array.dtype.kind not in kinds:
        raise ValueError(f"{name} must be {what}, got dtype {array.dtype}")
    for value in array if array.dtype.kind == "O" else ():
        _real(value, f"an element of {name}")
    if isinstance(values, (list, tuple)):  # np.asarray reads a bool among numbers as 1 or 0
        for value in values:
            if isinstance(value, (bool, np.bool_)):
                _real(value, f"an element of {name}")
    array = array if integer else array.astype(np.float64, copy=False)
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite")
    return array


def _normalize_id(rec_id: str | None) -> str | None:
    if rec_id is not None and not isinstance(rec_id, str):
        raise DatasetError(f"id must be a string, got {rec_id!r}")
    if rec_id and _SURROGATE.search(rec_id):
        raise DatasetError(f"id must not hold a lone surrogate, got {rec_id!r}")
    return (rec_id or "").strip() or None


@dataclass(frozen=True, eq=False)
class AuditDataset:
    """Validated m canary and n reference losses, as read-only float64 arrays.

    Order within each role is preserved from the source so report rows
    can be joined back to user metadata by position or id. An id is a
    string with surrounding whitespace removed, and an empty one is None
    (no id), whichever format it came from. A role's ids are None when no
    example of that role has one. All canaries share one replication
    count: one experiment audits one duplication level. ``_column`` checks losses.
    """

    canary_losses: np.ndarray
    reference_losses: np.ndarray
    canary_ids: tuple[str | None, ...] | None = None
    reference_ids: tuple[str | None, ...] | None = None
    replications: int = 1

    def __post_init__(self):
        try:
            for role, count in (("canary", "m"), ("reference", "n")):
                losses = _column(getattr(self, f"{role}_losses"), f"{role} losses",
                                 empty=f"dataset has no {role} records ({count} >= 1 required)")
                ids = getattr(self, f"{role}_ids")
                if ids is not None:
                    ids = tuple(map(_normalize_id, _sequence(ids, f"{role} ids")))
                    if len(ids) != losses.size:
                        raise ValueError(f"{role} ids: got {len(ids)} for {losses.size} losses")
                    ids = ids if any(rec_id is not None for rec_id in ids) else None
                object.__setattr__(self, f"{role}_losses", _read_only(np.array(losses)))
                object.__setattr__(self, f"{role}_ids", ids)
            object.__setattr__(self, "replications",
                               _positive_integer(self.replications, "replications"))
        except ValueError as exc:
            raise DatasetError(str(exc)) from None

    def __eq__(self, other):
        if not isinstance(other, AuditDataset):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in dataclass_fields(self)
        )

    @property
    def m(self) -> int:
        return self.canary_losses.size

    @property
    def n(self) -> int:
        return self.reference_losses.size

    @cached_property
    def sorted_canary_losses(self) -> np.ndarray:
        """Canary losses in ascending order, sorted once per dataset."""
        return _read_only(np.sort(self.canary_losses))

    @cached_property
    def sorted_reference_losses(self) -> np.ndarray:
        """Reference losses in ascending order, sorted once per dataset."""
        return _read_only(np.sort(self.reference_losses))


def _normalize_role(token: str) -> str:
    role = token.strip().lower()
    if role not in ROLES:
        raise ValueError(f"unknown role {token!r}")
    return role


def _number(convert, token, name: str):
    """A text ``token`` as ``convert`` reads it, and any other value as it is.
    Text that float() and int() read and a file never means, a digit-group
    "_" or a non-ASCII digit such as "２", is malformed."""
    if not isinstance(token, str):
        return token
    try:
        if "_" in token or not token.isascii():
            raise ValueError
        return convert(token)
    except ValueError:
        raise ValueError(f"malformed {name} {token!r}") from None


def _csv_rows(text: str):
    """(line, fields) per CSV record, numbered by the line the record starts on:
    a quoted field may span lines."""
    rows = csv.reader(io.StringIO(text))
    start = 1
    try:
        for row in rows:
            yield start, row
            start = rows.line_num + 1
    except csv.Error as exc:
        raise DatasetError(f"line {rows.line_num}: {exc}") from None


def _csv_records(text: str):
    """(line, role, loss, id, replications) per CSV row, as the row spells
    them but for replications: stripped, and 1 when the cell is absent or empty."""
    rows = _csv_rows(text)
    _, first = next(rows, (None, None))
    if first is None:
        raise DatasetError("empty file: missing CSV header")
    header = [col.strip().lower() for col in first]
    if tuple(header[: len(_CSV_REQUIRED)]) != _CSV_REQUIRED:
        raise DatasetError(
            f"header: expected leading columns {','.join(_CSV_REQUIRED)}, got {first!r}"
        )
    extras = header[len(_CSV_REQUIRED):]
    for col in extras:
        if col not in _CSV_OPTIONAL:
            raise DatasetError(f"header: unknown column {col!r}")
    if len(set(extras)) != len(extras):
        raise DatasetError(f"header: duplicate columns in {first!r}")
    id_at = header.index("id") if "id" in header else None
    reps_at = header.index("replications") if "replications" in header else None
    for line, row in rows:
        if not row:
            continue  # blank line
        if len(row) != len(header):
            raise DatasetError(f"line {line}: expected {len(header)} fields, got {len(row)}")
        yield (line, row[0], row[1], None if id_at is None else row[id_at],
               1 if reps_at is None else row[reps_at].strip() or 1)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict, unless a key repeats: ``json.loads`` keeps its last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError(f"duplicate keys in {[key for key, _ in pairs]!r}")
    return obj


# One decoder for every line: ``json.loads`` with a hook builds a decoder per call.
_JSON_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _jsonl_records(text: str):
    """(line, role, loss, id, replications) per JSON Lines object, as the
    object holds them; replications is 1 when absent. A line ends at a line
    feed only, so a string may hold U+2028; JSON takes a carriage return
    before the line feed for whitespace."""
    for line, raw in enumerate(text.split("\n"), start=1):
        if not raw.strip(" \t\r"):  # a line of JSON whitespace; json.loads rejects any other
            continue
        try:
            obj = _JSON_DECODER.decode(raw)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"line {line}: malformed JSON ({exc.msg})") from None
        except (ValueError, RecursionError) as exc:  # too many digits, too deep, a repeated key
            raise DatasetError(f"line {line}: {exc}") from None
        if not isinstance(obj, dict):
            raise DatasetError(f"line {line}: expected a JSON object, got {obj!r}")
        if not _JSONL_KEYS.issuperset(obj):
            raise DatasetError(f"line {line}: unknown keys {sorted(set(obj) - _JSONL_KEYS)}")
        if "role" not in obj or "loss" not in obj:
            raise DatasetError(f"line {line}: missing required keys 'role' and 'loss'")
        if not isinstance(obj["role"], str):
            raise DatasetError(f"line {line}: role must be a string, got {obj['role']!r}")
        yield line, obj["role"], obj["loss"], obj.get("id"), obj.get("replications", 1)


def _dataset(records) -> AuditDataset:
    """The dataset of (line, role, loss, id, replications) records, each
    checked in file order before the next record is read."""
    losses = {role: [] for role in ROLES}
    ids = {role: [] for role in ROLES}
    canary_replications = set()
    for line, role, loss, rec_id, reps in records:
        try:
            role = _normalize_role(role)
            losses[role].append(_real(_number(float, loss, "loss"), "loss", finite=True))
            ids[role].append(_normalize_id(rec_id))
            if type(reps) is not int or reps != 1:  # a plain 1 needs no check
                reps = _positive_integer(_number(int, reps, "replications"), "replications")
                if role == "reference" and reps != 1:
                    raise ValueError(f"references must have replications = 1, got {reps}")
        except ValueError as exc:
            raise DatasetError(f"line {line}: {exc}") from None
        if role == "canary":
            canary_replications.add(reps)
    counts = sorted(canary_replications)
    # float64 arrays: _real returns floats, so _column need not scan lists
    d = AuditDataset(np.array(losses["canary"]), np.array(losses["reference"]), ids["canary"],
                     ids["reference"], counts[0] if counts else 1)
    # Checked after the dataset's own checks, so empty roles report first.
    if len(counts) > 1:
        raise DatasetError(
            f"mixed canary replication counts {counts}; "
            "all canaries must share one replication count"
        )
    return d


def _blocks(text: str, start: int):
    """text[start:] as runs of about _BLOCK_CHARS characters of whole lines.

    Each run lacks its final newline; one newline at the end of the text
    ends the last line rather than starting an empty one.
    """
    stop = len(text) - text.endswith("\n")
    while start < stop:
        end = text.find("\n", start + _BLOCK_CHARS, stop)
        if end < 0:
            end = stop
        yield text[start:end]
        start = end + 1


def _csv_block(block: str):
    """Losses and roles of a block of ``role,loss`` lines, or None."""
    lines = block.count("\n") + 1
    # ``_read_bulk`` relies on each check holding for a block exactly when it
    # holds for each line alone. Every line starts with an exact role and a
    # comma, and the block holds one comma per line, so each line is one role
    # token and one loss token. A loss token float() parses holds no quote;
    # "\r" ends a csv record.
    starts = (block.startswith(("canary,", "reference,"))
              + block.count("\ncanary,") + block.count("\nreference,"))
    if "\r" in block or block.count(",") != lines or starts != lines:
        return None
    tokens = block.replace("\n", ",").split(",")
    loss_tokens = tokens[1::2]
    if max(map(len, loss_tokens)) > csv.field_size_limit():
        return None
    try:
        return np.fromiter(map(float, loss_tokens), np.float64, lines), tokens[0::2]
    except ValueError:
        return None


def _jsonl_block(block: str):
    """Losses and roles of a block of ``{"role": ..., "loss": ...}`` lines, or None."""
    lines = block.count("\n") + 1
    # ``_read_bulk`` relies on each check holding for a block exactly when it
    # holds for each line alone. Every line opens with "{" and closes with
    # "}", and six quotes per line leave room for no string but "role",
    # "loss" and the role itself. So no string hides a brace or a line break,
    # and one json.loads of the joined lines yields one object per line, each
    # what json.loads of its line yields. A lone "\r" (``_read_bulk`` made
    # each "\r\n" a "\n") sends the block to the line parser.
    if ("\r" in block or not (block.startswith("{") and block.endswith("}"))
            or block.count("}\n{") != lines - 1 or block.count('"') != 6 * lines):
        return None
    try:
        objs = json.loads("[" + block.replace("\n", ",") + "]")
        roles = list(map(itemgetter("role"), objs))
        losses = list(map(itemgetter("loss"), objs))
    except (ValueError, RecursionError, KeyError, TypeError):
        return None
    if (len(objs) != lines or set(map(len, objs)) != {2}
            or roles.count("canary") + roles.count("reference") != lines
            or not set(map(type, losses)) <= {int, float}):
        return None
    try:
        return np.fromiter(map(float, losses), np.float64, lines), roles
    except OverflowError:
        return None


def _block_columns(read_block, block: str, dedupe: bool):
    """(losses, is_canary, dedupe) of a block, or None; ``_read_bulk`` says how it dedupes."""
    inverse = None
    if dedupe:
        lines = block.split("\n")
        distinct = dict.fromkeys(lines)
        dedupe = 2 * len(distinct) <= len(lines)
        if dedupe:
            index = dict(zip(distinct, range(len(distinct))))
            inverse = np.fromiter(map(index.__getitem__, lines), np.intp, len(lines))
            block = "\n".join(distinct)
        del lines, distinct
    parsed = read_block(block)
    if parsed is None or not np.isfinite(parsed[0]).all():
        return None
    losses, roles = parsed
    is_canary = np.fromiter(map("canary".__eq__, roles), bool, len(roles))
    if inverse is not None:
        losses, is_canary = losses[inverse], is_canary[inverse]
    return losses, is_canary, dedupe


def _read_bulk(text: str, format: str) -> AuditDataset | None:
    r"""The dataset of a file with only role and loss, read a block at a time.

    Returns None unless every line is one exactly spelled role and one
    finite loss that the line parser would read to the same float, and
    both roles occur; the line parser then reads the file and reports
    what is wrong with it. A "\r\n" line end reads as "\n", and a block
    it rejects is read again without its empty lines, which both line
    parsers skip.

    Each distinct line of a block is converted once, and ``inverse`` puts
    its loss and role back at every line that repeats it. This is sound
    because both block readers accept a text exactly when they accept each
    of its lines alone. Their counts are per line (a role start and one
    comma; six quotes, and a "}\n{" at each line break), and once the later
    checks pass no line can make up for another: an accepted CSV line
    holds a comma and an accepted object at least six quotes. So the
    distinct lines give the same verdict and the same floats as the whole
    block. A block where over half the lines are distinct is read whole,
    as are the blocks after it up to the next 8th, which probes again:
    tied references may follow distinct canaries.
    """
    if "\r" in text:  # a scan is ~30x cheaper than a replace that finds nothing
        text = text.replace("\r\n", "\n")
    if "_" in text or not text.isascii():  # float() reads "1_0" and "２"; ``_number`` does not
        return None
    if format == "csv":
        header = ",".join(_CSV_REQUIRED) + "\n"
        if not text.startswith(header):
            return None
        start, read_block = len(header), _csv_block
    else:
        start, read_block = 0, _jsonl_block
    canaries, references = [], []
    dedupe = True
    for i, block in enumerate(_blocks(text, start)):
        probe = dedupe or i % 8 == 0
        columns = (_block_columns(read_block, block, probe) or
                   _block_columns(read_block, "\n".join(filter(None, block.split("\n"))), probe))
        if columns is None:
            return None
        losses, is_canary, dedupe = columns
        canaries.append(losses[is_canary])
        references.append(losses[~is_canary])
    if not (any(map(len, canaries)) and any(map(len, references))):
        return None
    return AuditDataset(np.concatenate(canaries), np.concatenate(references))


def parse_dataset(raw: bytes | str) -> AuditDataset:
    """Parse a loss file into a validated AuditDataset.

    The content decides the format: past one leading byte order mark and
    any ASCII whitespace, ``{`` opens JSON Lines (one object per line with
    keys ``role``, ``loss``, optional ``id`` and ``replications``, none
    repeated), and anything else reads as CSV (header
    ``role,loss[,id][,replications]``).

    Args:
      raw: File contents, UTF-8 bytes or text.

    Returns:
      An AuditDataset preserving input order within each role.

    Raises:
      DatasetError: On malformed rows (with line number), non-finite
        losses, unknown roles or columns, empty canary or reference sets,
        or mixed canary replication counts.
    """
    if isinstance(raw, bytes):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DatasetError(f"input is not valid UTF-8: {exc}") from None
    else:
        text = raw
    text = text.removeprefix("\ufeff")
    format = "jsonl" if _JSONL_START.match(text) else "csv"
    d = _read_bulk(text, format)
    if d is None:
        d = _dataset(_csv_records(text) if format == "csv" else _jsonl_records(text))
    return d


def _roles(d: AuditDataset):
    """(role, losses, ids, replications) per role, canaries first."""
    return (("canary", d.canary_losses, d.canary_ids, d.replications),
            ("reference", d.reference_losses, d.reference_ids, 1))


def _csv_field(rec_id: str | None) -> str:
    """An id as a CSV field, quoted when it holds a delimiter, quote or line break."""
    if rec_id is None:
        return ""
    if _CSV_SPECIAL.isdisjoint(rec_id):
        return rec_id
    return '"' + rec_id.replace('"', '""') + '"'


def _text(lines) -> str:
    """Lines as text, each ended by a newline. They are joined 16384 at a
    time, so no more line objects than that are alive at once."""
    lines, blocks = iter(lines), []
    while block := list(islice(lines, 1 << 14)):
        blocks.append("\n".join(block))
    blocks.append("")
    return "\n".join(blocks)


def _csv_text(header, columns) -> str:
    """CSV text of a header and columns of finished cells, joined row by row."""
    return _text(chain([",".join(header)], map(",".join, zip(*columns))))


def _jsonl_lines(role: str, losses: np.ndarray, ids, reps: int):
    """Per example of a role, one JSON object with the keys it needs."""
    id_keys = (repeat("") if ids is None else
               ("" if rec_id is None else f', "id": {json.dumps(rec_id)}' for rec_id in ids))
    end = "}" if reps == 1 else f', "replications": {reps}}}'
    return (f'{{"role": "{role}", "loss": {loss!r}{id_key}{end}'
            for loss, id_key in zip(losses.tolist(), id_keys))


def serialize_dataset(d: AuditDataset, format: str) -> str:
    """Write a dataset back to text in one of the parseable formats.

    Canaries are written first, then references; optional columns are
    emitted only when some record needs them, and a CSV id holding a comma,
    quote or line break is quoted. ``parse_dataset`` on the result
    reconstructs an identical dataset.
    """
    if format not in ("csv", "jsonl"):
        raise ValueError(f"format must be 'csv' or 'jsonl', got {format!r}")
    if format == "jsonl":
        return _text(chain.from_iterable(_jsonl_lines(*role) for role in _roles(d)))
    header = list(_CSV_REQUIRED)
    header += ["id"] if d.canary_ids is not None or d.reference_ids is not None else []
    header += ["replications"] if d.replications != 1 else []
    per_role = []  # each role's cells, a column at a time
    for role, losses, ids, reps in _roles(d):
        cells = {"role": repeat(role, losses.size), "loss": map(repr, losses.tolist()),
                 "id": repeat("", losses.size) if ids is None else map(_csv_field, ids),
                 "replications": repeat(str(reps), losses.size)}
        per_role.append([cells[col] for col in header])
    return _csv_text(header, map(chain, *per_role))


def _mean(losses: np.ndarray) -> float:
    """Mean of finite losses, finite also where their float64 sum overflows."""
    with np.errstate(over="ignore"):
        mean = float(losses.mean())
    if math.isinf(mean):  # no partial sum of losses / m can overflow
        mean = float((losses / losses.size).sum())
    return mean


def dataset_summary(d: AuditDataset) -> dict:
    """Per-role loss statistics plus the dataset's shape parameters."""
    summary = {"m": d.m, "n": d.n, "replications": d.replications}
    for role, losses in (("canary", d.canary_losses), ("reference", d.reference_losses)):
        summary[f"{role}_loss"] = {
            "min": float(losses.min()),
            "max": float(losses.max()),
            "mean": _mean(losses),
        }
    return summary
