import json
import math

import numpy as np

from canaudit import (
    GaussianShiftModel,
    audit_pipeline,
    build_report,
    render_csv,
    render_json,
    render_markdown,
    simulate,
)

from conftest import make_dataset


def _sample_document(replications=1, bins=None):
    rng = np.random.default_rng(61)
    d = make_dataset(rng.normal(-1.0, 1.0, size=40), rng.normal(size=50),
                     replications=replications,
                     ids=[f"c{i}" for i in range(40)])
    result = audit_pipeline(d, operating_points=("median", 0.02))
    return d, build_report(d, result, histogram_bins=bins)


def test_json_round_trip_equality():
    _, document = _sample_document()
    assert json.loads(render_json(document)) == document


def test_json_round_trip_with_infinite_point_estimate():
    d = make_dataset([1.0, 2.0], [5.0, 6.0])  # separated: tpr 1 at fpr 0
    result = audit_pipeline(d, operating_points=(0.0,))
    document = build_report(d, result)
    assert document["epsilon_bounds"][0]["point_estimate"] == math.inf
    again = json.loads(render_json(document))
    assert again == document
    assert math.isinf(again["epsilon_bounds"][0]["point_estimate"])


def test_document_records_bound_context():
    _, document = _sample_document(replications=3)
    assert document["schema_version"] == 1
    for row in document["epsilon_bounds"]:
        assert row["confidence"] == 0.95
        assert row["tie_policy"] == "pessimistic"
        assert row["replications"] == 3
        assert row["operating_point"] in ("median", "fpr_target=0.02")
    flags = [row["per_example"] for row in document["epsilon_bounds"]]
    assert flags.count(True) == 2 and flags.count(False) == 2


def test_document_baselines_cover_all_statistics():
    _, document = _sample_document()
    rows = {(row["statistic"], row["q"]) for row in document["baselines"]}
    assert rows == {("mean", None), ("quantile", 0.5), ("quantile", 0.75)}
    for row in document["baselines"]:
        if row["statistic"] == "mean":
            assert row["exact"] is not None
        assert row["mc_trials"] >= 1


def test_independence_notice_always_present():
    _, document = _sample_document()
    assert any("independent" in w for w in document["warnings"])


def test_histogram_default_bins():
    d, document = _sample_document()
    hist = document["histogram"]
    edges = hist["bin_edges"]
    n = document["exposure"]["n"]
    assert edges[0] == math.log2(n) - math.log2(n + 1)
    assert edges[-1] >= math.log2(n)
    widths = np.diff(edges)
    assert np.allclose(widths, 0.5)
    assert sum(hist["counts"]) == d.m


def test_histogram_explicit_bins():
    d, document = _sample_document(bins=7)
    hist = document["histogram"]
    assert len(hist["counts"]) == 7
    assert len(hist["bin_edges"]) == 8
    assert sum(hist["counts"]) == d.m


def test_markdown_numbers_appear_verbatim_in_json():
    _, document = _sample_document(replications=2)
    md = render_markdown(document)
    json_text = render_json(document)
    for row in document["epsilon_bounds"]:
        for key in ("point_estimate", "confident_lower_bound", "tpr", "fpr",
                    "confidence"):
            token = json.dumps(row[key])
            assert token in md
            assert token in json_text
    for row in document["baselines"]:
        for key in ("observed", "asymptotic", "mc_mean"):
            assert json.dumps(row[key]) in md
            assert json.dumps(row[key]) in json_text


def test_markdown_extracted_numbers_all_come_from_json():
    import re

    _, document = _sample_document()
    md = render_markdown(document)
    json_text = render_json(document)
    # every numeric token in the rendering must appear verbatim in the JSON
    for token in re.findall(r"-?\d+\.\d+(?:e-?\d+)?", md):
        assert token in json_text, token


def test_csv_rendering_parses():
    d, document = _sample_document()
    text = render_csv(document)
    lines = text.strip().splitlines()
    assert lines[0].startswith("index,id,loss")
    assert len(lines) == d.m + 1
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "c0"
    assert float(first[2]) == d.canary_losses[0]


def test_markdown_includes_warnings_section():
    d = simulate(GaussianShiftModel(mu=1.0, sigma=1.0, m=50, n=100, seed=71))
    result = audit_pipeline(d, operating_points=("median", 0.001))
    document = build_report(d, result)
    md = render_markdown(document)
    assert "## Warnings" in md
    assert "resolution" in md
