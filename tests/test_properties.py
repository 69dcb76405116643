"""Property tests of the invariants exposure, audit, report and ingest promise."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import ndtr, ndtri

from canaudit import (
    AuditDataset,
    DatasetError,
    analytic_operating_point,
    audit_pipeline,
    build_report,
    epsilon_confident,
    exposure_all,
    parse_dataset,
    quantile_p_value,
    rank,
    render_csv,
    render_markdown,
    roc,
    serialize_dataset,
    threshold_attack,
)

from conftest import csv_writer_serialize, json_dumps_serialize, make_dataset

# Losses from a coarse grid tie often; arbitrary finite floats rarely do.
tie_prone_losses = st.lists(
    st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3)),
    min_size=1, max_size=30,
)

OPERATING_POINTS = ("median", 0.0, 0.1, 0.5, 1.0)


@given(tie_prone_losses, tie_prone_losses, st.data())
def test_aggregates_and_rows_are_permutation_invariant(canaries, references, data):
    c_order = data.draw(st.permutations(range(len(canaries))))
    r_order = data.draw(st.permutations(range(len(references))))
    d = make_dataset(canaries, references)
    shuffled = make_dataset(np.array(canaries)[c_order], np.array(references)[r_order])

    report = exposure_all(d)
    again = exposure_all(shuffled)
    assert again.quantile_exposures == report.quantile_exposures
    # the mean sums in another order, so it may differ in the last bits
    assert math.isclose(again.mean_exposure, report.mean_exposure,
                        rel_tol=1e-12, abs_tol=1e-12)
    assert again.exposures.tolist() == report.exposures[c_order].tolist()

    rows, rows_again = (audit_pipeline(x, OPERATING_POINTS).outcomes for x in (d, shuffled))
    assert rows_again == rows


@given(tie_prone_losses, tie_prone_losses, st.integers(-30, 30))
def test_audits_see_only_the_order_of_losses(canaries, references, k):
    # times 2^k every loss is exact and keeps its order, so every rank and
    # count stays bit for bit and only the thresholds scale
    scale = 2.0 ** k
    scaled_canaries, scaled_references = np.array(canaries) * scale, np.array(references) * scale
    assume((scaled_canaries / scale == canaries).all())
    assume((scaled_references / scale == references).all())
    d = make_dataset(canaries, references)
    scaled = make_dataset(scaled_canaries, scaled_references)

    report, again = exposure_all(d), exposure_all(scaled)
    assert again.ranks.tolist() == report.ranks.tolist()
    assert _bits(again.exposures) == _bits(report.exposures)
    documents = [build_report(x, audit_pipeline(x, OPERATING_POINTS)) for x in (d, scaled)]
    for key in ("exposure", "baselines", "histogram"):  # p-values are in the baselines
        assert documents[1][key] == documents[0][key]
    rows, rows_again = (doc["epsilon_bounds"] for doc in documents)
    for row in rows:
        row["threshold"] = None if row["threshold"] is None else row["threshold"] * scale
    assert rows_again == rows

    curve, curve_again = roc(d), roc(scaled)
    assert curve_again.canary_hits.tolist() == curve.canary_hits.tolist()
    assert curve_again.reference_hits.tolist() == curve.reference_hits.tolist()
    assert curve_again.threshold.tolist() == (curve.threshold * scale).tolist()


@given(st.floats(0.0, 6.0), st.floats(-8.0, 8.0))
def test_analytic_operating_point_is_the_gaussian_dp_curve(mu, threshold):
    # with unit variance the model's trade-off is tpr = Phi(Phi^-1(fpr) + mu)
    tpr, fpr = analytic_operating_point(mu, threshold)
    assert abs(fpr - ndtr(threshold)) <= 1e-12
    assert abs(tpr - ndtr(ndtri(fpr) + mu)) <= 1e-12


@given(tie_prone_losses, tie_prone_losses, st.sampled_from([0.5, 0.75]), st.data())
def test_quantile_p_value_falls_as_canary_losses_fall(canaries, references, q, data):
    drops = data.draw(st.lists(st.floats(0.0, 10.0), min_size=len(canaries),
                               max_size=len(canaries)))
    lowered = np.array(canaries) - np.array(drops)
    p, p_lowered = (quantile_p_value(exposure_all(make_dataset(c, references)).ranks,
                                     len(references), q)
                    for c in (canaries, lowered))
    assert 0.0 < p_lowered <= p <= 1.0


@given(tie_prone_losses, tie_prone_losses)
@example([1.0], [0.5, 1.0, 2.0])
@example([0.5, 1.0, 1.0], [1.0])
# at n = 1621, math.log2(n) - math.log2(rank) misses np.log2's bits for ranks 1-3
@example([-1.0, 0.5, 1.5], [float(loss) for loss in range(1621)])
# more canaries than the Markdown lists
@example([float(loss) for loss in range(25)], [0.5, 10.5])
def test_rendered_exposures_are_the_arrays_bits(canaries, references):
    # the JSON stores ranks only; the Markdown (its first 20 rows) and the
    # CSV (every row) derive each exposure, and the CSV each empirical FPR
    d = make_dataset(canaries, references)
    report = exposure_all(d)
    exposures = report.exposures.tolist()
    document = build_report(d, audit_pipeline(d))
    md = render_markdown(document)
    md_rows = md[md.index("## Per-canary exposure"):].splitlines()[4:4 + min(d.m, 20)]
    assert [row.split(" | ")[3] for row in md_rows] == [json.dumps(e) for e in exposures[:20]]
    csv_rows = list(csv.reader(io.StringIO(render_csv(document))))[1:]
    assert [row[4] for row in csv_rows] == [repr(e) for e in exposures]
    assert [row[5] for row in csv_rows] == [repr((rank - 1) / d.n)
                                            for rank in report.ranks.tolist()]


@given(st.integers(1, 2000), st.integers(1, 2000), st.data(),
       st.floats(0.001, 0.999999), st.floats(0.001, 0.999999))
def test_certified_epsilon_does_not_rise_with_confidence(m, n, data, c1, c2):
    h = data.draw(st.integers(0, m))
    k = data.draw(st.integers(0, n))
    # h canaries and k references below the threshold 1.0
    d = make_dataset([0.0] * h + [2.0] * (m - h), [0.0] * k + [2.0] * (n - k))
    mi = threshold_attack(d, 1.0)
    low, high = sorted((c1, c2))
    assert (epsilon_confident(mi, high).confident_lower_bound
            <= epsilon_confident(mi, low).confident_lower_bound)


EDGE_LOSSES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
               1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]
any_loss = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from(EDGE_LOSSES))
any_id = st.one_of(st.none(), st.text(), st.sampled_from(["", " a", "a ", "\t", "x,y",
                                                          'q"', "l\nm", "r\r", " ",
                                                          "a\rb"]))


@st.composite
def datasets(draw, one_id=any_id):
    canaries = draw(st.lists(any_loss, min_size=1, max_size=12))
    references = draw(st.lists(any_loss, min_size=1, max_size=12))
    ids = [draw(st.none() | st.lists(one_id, min_size=len(losses), max_size=len(losses)))
           for losses in (canaries, references)]
    return AuditDataset(canaries, references, *ids, replications=draw(st.integers(1, 4)))


def _bits(losses):
    return losses.view(np.uint64).tolist()


@given(datasets(), st.sampled_from(["csv", "jsonl"]))
@example(make_dataset([1.0, 2.0], [3.0], ids=["", " a"]), "csv")
@example(make_dataset([1.0], [3.0], ids=["a\rb"]), "csv")
def test_parse_inverts_serialize_bit_for_bit(d, format):
    again = parse_dataset(serialize_dataset(d, format))
    assert again == d
    assert again.canary_ids == d.canary_ids and again.reference_ids == d.reference_ids
    assert _bits(again.canary_losses) == _bits(d.canary_losses)
    assert _bits(again.reference_losses) == _bits(d.reference_losses)


@given(datasets(one_id=any_id.filter(lambda rec_id: rec_id is None or "\r" not in rec_id)))
@example(make_dataset([1.0, -0.0], [3.0], ids=["x,y", 'q"']))
@example(make_dataset([1.0], [2.0, 3.0], ids=["l\nm"], replications=4))
@example(make_dataset([5e-324], [1e308], replications=3))
@example(make_dataset([-0.0, 1.0], [2.0], ids=[None, 'a\u2028\\"\x00\U0001f600']))
def test_csv_matches_csv_writer_byte_for_byte(d):
    # csv.writer quotes ids with a comma, quote or "\n" exactly as the
    # column-wise writer does; it differs only on "\r". json.dumps escapes
    # "\r", so the filter is needed only for the CSV.
    assert serialize_dataset(d, "csv") == csv_writer_serialize(d)
    assert serialize_dataset(d, "jsonl") == json_dumps_serialize(d)


# Each entry that takes an array, the error its column rule raises, and the
# dtype of the 1-D array it must treat any accepted column like.
COLUMN_ENTRIES = {
    "AuditDataset": (lambda c: AuditDataset(c, [1.0]).canary_losses, DatasetError, np.float64),
    "rank": (lambda refs: rank(0.5, refs), ValueError, np.float64),
    "quantile_p_value": (lambda r: quantile_p_value(r, 6, 0.5), ValueError, np.int64),
}
column_shapes = st.one_of(hnp.array_shapes(max_dims=1, max_side=6),
                          hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4))
any_column = st.one_of(
    hnp.arrays(st.one_of(hnp.boolean_dtypes(), hnp.integer_dtypes(),
                         hnp.unsigned_integer_dtypes(), hnp.floating_dtypes(),
                         hnp.complex_number_dtypes(), hnp.unicode_string_dtypes(),
                         hnp.datetime64_dtypes()), column_shapes),
    hnp.arrays(st.one_of(hnp.integer_dtypes(), hnp.unsigned_integer_dtypes(),
                         hnp.floating_dtypes()), column_shapes, elements=st.integers(0, 7)),
    hnp.arrays(object, column_shapes,
               elements=st.one_of(st.floats(), st.integers(-2 ** 100, 2 ** 100),
                                  st.booleans(), st.text(max_size=3), st.none())),
)


@pytest.mark.parametrize("entry", sorted(COLUMN_ENTRIES))
@given(values=any_column)
@example(values=np.array([10**30]))
@example(values=np.array([3, 1, 5], dtype=np.uint8))
def test_array_entries_take_a_column_or_reject_it_by_the_rule(entry, values):
    call, error, dtype = COLUMN_ENTRIES[entry]
    try:
        got = call(values)
    except ValueError as exc:
        assert type(exc) is error, exc
        return
    assert values.ndim == 1
    assert np.array_equal(got, call(values.astype(dtype)))
