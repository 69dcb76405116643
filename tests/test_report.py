import csv
import io
import json
import math
import re

import numpy as np
import pytest

from canaudit import (
    __version__,
    audit_pipeline,
    build_report,
    exposure_all,
    render_csv,
    render_json,
    render_markdown,
    simulate,
)

from conftest import comb_quantile_p_value, make_dataset


def _sample_document(replications=1, ids=None):
    rng = np.random.default_rng(61)
    d = make_dataset(rng.normal(-1.0, 1.0, size=40), rng.normal(size=50),
                     replications=replications,
                     ids=ids or [f"c{i}" for i in range(40)])
    result = audit_pipeline(d, operating_points=("median", 0.02))
    return d, build_report(d, result)


def test_json_round_trip_equality():
    _, document = _sample_document()
    assert json.loads(render_json(document)) == document


def _strict_loads(text):
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def test_json_is_strict_with_infinite_point_estimate():
    d = make_dataset([1.0, 2.0], [5.0, 6.0])  # separated: tpr 1 at fpr 0
    document = build_report(d, audit_pipeline(d, operating_points=(0.0,)))
    again = _strict_loads(render_json(document))
    assert again == document
    row = again["epsilon_bounds"][0]
    assert (row["tpr"], row["fpr"]) == (1.0, 0.0)
    assert row["point_estimate"] is None
    assert row["threshold"] == 5.0
    assert "| fpr_target=0 | false | null |" in render_markdown(document)


def test_json_is_strict_with_infinite_thresholds():
    # canaries above every reference: nothing is classified a member until
    # fpr 1, where the threshold is +inf
    d = make_dataset([5.0, 6.0], [1.0, 2.0])
    document = build_report(d, audit_pipeline(d, operating_points=(0.0, 1.0)))
    at_zero, at_one = _strict_loads(render_json(document))["epsilon_bounds"]
    assert at_zero["threshold"] is None  # -inf: no example classified a member
    assert (at_zero["canary_hits"], at_zero["reference_hits"]) == (0, 0)
    assert at_one["threshold"] is None  # +inf: every example classified a member
    assert (at_one["canary_hits"], at_one["reference_hits"]) == (2, 2)


def test_document_records_bound_context():
    _, document = _sample_document(replications=3)
    assert document["schema_version"] == 8
    assert list(document["parameters"]) == ["confidence", "operating_points"]
    # each row's confidence and replication count are stated once, outside the rows
    assert document["parameters"]["confidence"] == 0.95
    assert document["dataset"]["replications"] == 3
    for row in document["epsilon_bounds"]:
        assert not {"confidence", "alpha_split", "replications"} & set(row)
        assert row["operating_point"] in ("median", "fpr_target=0.02")
    flags = [row["per_example"] for row in document["epsilon_bounds"]]
    assert flags.count(True) == 2 and flags.count(False) == 2


def test_per_canary_columns_match_the_arrays():
    d, document = _sample_document(replications=2)
    report = audit_pipeline(d, operating_points=("median", 0.02)).exposure_report
    columns = document["exposure"]["per_canary"]
    assert list(columns) == ["id", "rank"]
    assert all(len(column) == d.m for column in columns.values())
    assert columns["id"] == list(d.canary_ids)
    assert columns["rank"] == report.ranks.tolist()
    assert _strict_loads(render_json(document))["exposure"]["per_canary"] == columns


def test_per_canary_id_column_is_null_without_ids():
    d = make_dataset([0.5, 2.5], [1.0, 2.0, 3.0, 4.0])
    document = build_report(d, audit_pipeline(d))
    assert document["exposure"]["per_canary"]["id"] is None


def test_document_baselines_cover_all_statistics():
    _, document = _sample_document()
    rows = {(row["statistic"], row["q"]) for row in document["baselines"]}
    assert rows == {("mean", None), ("quantile", 0.5), ("quantile", 0.75)}
    for row in document["baselines"]:
        if row["statistic"] == "mean":
            assert row["exact"] is not None
            assert row["p_value"] is None
        else:
            assert 0.0 < row["p_value"] <= 1.0


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


@pytest.mark.parametrize("n", [1621, 7957])
def test_histogram_keeps_canaries_at_both_extreme_ranks(n):
    # At these n, math.log2 and np.log2 differ by one ulp, so the edges
    # must come from exposure_all's np.log2 to hold ranks 1 and n+1.
    d = make_dataset([-1.0, 0.5, 2.0], np.linspace(0.0, 1.0, n))
    document = build_report(d, audit_pipeline(d))
    assert sum(document["histogram"]["counts"]) == d.m


@pytest.mark.parametrize("n", [1, 2, 3, 4, 1000])
def test_histogram_has_the_fewest_width_half_bins_that_reach_log2_n(n):
    # Canaries at ranks 1 and n+1 sit on the first and the last edge.
    d = make_dataset([-1.0, 0.5, 2.0], np.linspace(0.0, 1.0, n))
    edges, counts = build_report(d, audit_pipeline(d))["histogram"].values()
    assert edges[0] == exposure_all(make_dataset([2.0], d.reference_losses)).exposures[0]
    assert np.diff(edges).tolist() == [0.5] * len(counts)
    assert edges[-2] < math.log2(n) <= edges[-1]
    assert counts[0] >= 1 and counts[-1] >= 1 and sum(counts) == d.m


def test_build_report_takes_no_histogram_bins():
    # The binning is fixed; rebin the exposures of per_canary.rank instead.
    d, _ = _sample_document()
    with pytest.raises(TypeError, match="histogram_bins"):
        build_report(d, audit_pipeline(d), histogram_bins=7)


def test_markdown_numbers_appear_verbatim_in_json():
    _, document = _sample_document(replications=2)
    md = render_markdown(document)
    json_text = render_json(document)
    assert f"confidence {json.dumps(document['parameters']['confidence'])}," in md
    for row in document["epsilon_bounds"]:
        for key in ("point_estimate", "confident_lower_bound", "tpr", "fpr"):
            token = json.dumps(row[key])
            assert token in md
            assert token in json_text
    for row in document["baselines"]:
        for key in ("observed", "exact", "asymptotic", "p_value"):
            if row[key] is not None:
                assert json.dumps(row[key]) in md
                assert json.dumps(row[key]) in json_text


def test_markdown_baseline_table():
    _, document = _sample_document()
    mean, median, upper = document["baselines"]
    f = json.dumps
    table = [
        "| statistic | observed | exact baseline | asymptotic baseline | p-value |",
        "|---|---|---|---|---|",
        f"| mean | {f(mean['observed'])} | {f(mean['exact'])} | {f(mean['asymptotic'])} | - |",
        f"| quantile 0.5 | {f(median['observed'])} | - | 1.0 | {f(median['p_value'])} |",
        f"| quantile 0.75 | {f(upper['observed'])} | - | 2.0 | {f(upper['p_value'])} |",
    ]
    md = render_markdown(document)
    assert md[md.index(table[0]):].splitlines()[:5] == table


def test_quantile_rows_read_the_integer_rank():
    d, document = _sample_document()
    ranks = np.sort(exposure_all(d).ranks)
    for row in document["baselines"][1:]:
        r = int(ranks[d.m - math.ceil(row["q"] * d.m)])  # the k-th smallest rank
        assert row["observed"] == float(np.log2(d.n) - np.log2(r))
        assert row["p_value"] == pytest.approx(
            comb_quantile_p_value(ranks.tolist(), d.n, row["q"]), rel=1e-9)


def test_markdown_extracted_numbers_all_come_from_json():
    import re

    d, document = _sample_document()
    md = render_markdown(document)
    json_text = render_json(document)
    exposures = exposure_all(d).exposures.tolist()
    # every numeric token in the rendering must appear verbatim in the JSON,
    # except each canary's exposure and empirical fpr, which the renderings
    # derive from its rank
    head, table = md.split("## Per-canary exposure")
    rows = [line.strip("| ").split(" | ") for line in table.splitlines()
            if line.startswith("| ") and not line.startswith("| index")]
    assert len(rows) == 20
    n, ranks = document["exposure"]["n"], document["exposure"]["per_canary"]["rank"]
    for index, _, rank, exposure, fpr in rows:
        assert int(rank) == ranks[int(index)]
        assert exposure == json.dumps(exposures[int(index)])
        assert fpr == json.dumps((int(rank) - 1) / n)
    verbatim = head + "\n".join(" | ".join(cells[:-2]) for cells in rows)
    for token in re.findall(r"-?\d+\.\d+(?:e-?\d+)?", verbatim):
        assert token in json_text, token


def test_csv_rendering_parses():
    # ids that need quoting; csv.reader ends an unquoted field at "\r" as at "\n"
    ids = ["x,y", 'q"', "l\nm", "a\rb"] + [f"c{i}" for i in range(4, 40)]
    d, document = _sample_document(ids=ids)
    rows = list(csv.reader(io.StringIO(render_csv(document))))
    assert rows[0] == ["index", "id", "replications", "rank", "exposure", "empirical_fpr"]
    assert [row[0] for row in rows[1:]] == [str(i) for i in range(d.m)]
    assert [row[1] for row in rows[1:]] == ids
    assert [int(row[3]) for row in rows[1:]] == document["exposure"]["per_canary"]["rank"]


def test_markdown_includes_warnings_section():
    d = simulate(mu=1.0, m=50, n=100, seed=71)
    result = audit_pipeline(d, operating_points=("median", 0.001))
    document = build_report(d, result)
    md = render_markdown(document)
    assert "## Warnings" in md
    assert "resolution" in md


def _golden_document():
    # ids with a missing one and one that needs CSV quoting, canaries
    # replicated twice
    d = make_dataset([0.5, 1.5, 2.5, 3.5, 0.25], [1.0, 2.0, 3.0, 4.0],
                     replications=2, ids=["a", "b", None, "d,e", "f"])
    return build_report(d, audit_pipeline(d, operating_points=("median", 0.25)))


def test_csv_rendering_golden():
    assert render_csv(_golden_document()) == (
        "index,id,replications,rank,exposure,empirical_fpr\n"
        "0,a,2,1,2.0,0.0\n"
        "1,b,2,2,1.0,0.25\n"
        "2,,2,3,0.4150374992788439,0.5\n"
        '3,"d,e",2,4,0.0,0.75\n'
        "4,f,2,1,2.0,0.0\n"
    )


def test_csv_rendering_golden_without_ids():
    d = make_dataset([0.5, 2.5], [1.0, 2.0, 3.0, 4.0])
    document = build_report(d, audit_pipeline(d))
    assert render_csv(document) == (
        "index,id,replications,rank,exposure,empirical_fpr\n"
        "0,,1,1,2.0,0.0\n"
        "1,,1,3,0.4150374992788439,0.5\n"
    )


def _document_of_many_canaries(m):
    # four canaries at each rank from 1 up against four references; one has no id
    ids = [None if i == 2 else f"c{i}" for i in range(m)]
    d = make_dataset([0.25 * i for i in range(m)], [1.0, 2.0, 3.0, 4.0], ids=ids)
    return build_report(d, audit_pipeline(d))


def test_markdown_per_canary_table_golden():
    md = render_markdown(_document_of_many_canaries(21))
    assert md[md.index("## Per-canary exposure"):] == (
        "## Per-canary exposure\n\n"
        "| index | id | rank | exposure | empirical fpr |\n"
        "|---|---|---|---|---|\n"
        "| 0 | c0 | 1 | 2.0 | 0.0 |\n"
        "| 1 | c1 | 1 | 2.0 | 0.0 |\n"
        "| 2 | - | 1 | 2.0 | 0.0 |\n"
        "| 3 | c3 | 1 | 2.0 | 0.0 |\n"
        "| 4 | c4 | 2 | 1.0 | 0.25 |\n"
        "| 5 | c5 | 2 | 1.0 | 0.25 |\n"
        "| 6 | c6 | 2 | 1.0 | 0.25 |\n"
        "| 7 | c7 | 2 | 1.0 | 0.25 |\n"
        "| 8 | c8 | 3 | 0.4150374992788439 | 0.5 |\n"
        "| 9 | c9 | 3 | 0.4150374992788439 | 0.5 |\n"
        "| 10 | c10 | 3 | 0.4150374992788439 | 0.5 |\n"
        "| 11 | c11 | 3 | 0.4150374992788439 | 0.5 |\n"
        "| 12 | c12 | 4 | 0.0 | 0.75 |\n"
        "| 13 | c13 | 4 | 0.0 | 0.75 |\n"
        "| 14 | c14 | 4 | 0.0 | 0.75 |\n"
        "| 15 | c15 | 4 | 0.0 | 0.75 |\n"
        "| 16 | c16 | 5 | -0.3219280948873622 | 1.0 |\n"
        "| 17 | c17 | 5 | -0.3219280948873622 | 1.0 |\n"
        "| 18 | c18 | 5 | -0.3219280948873622 | 1.0 |\n"
        "| 19 | c19 | 5 | -0.3219280948873622 | 1.0 |\n"
        "\n(table truncated; the JSON report carries every row)\n"
    )
    untruncated = render_markdown(_document_of_many_canaries(20))
    assert untruncated.endswith("| 19 | c19 | 5 | -0.3219280948873622 | 1.0 |\n")


def test_markdown_rendering_golden():
    assert render_markdown(_golden_document()) == (
        "# Canary exposure audit\n\n"
        f"tool version {__version__}, schema version 8\n\n"
        "## Dataset\n\n"
        "- canaries (m): 5\n"
        "- references (n): 4\n"
        "- canary replications: 2\n"
        "- canary loss: min 0.25, max 3.5, mean 1.65\n"
        "- reference loss: min 1.0, max 4.0, mean 2.5\n\n"
        "## Exposure vs. random guessing\n\n"
        "| statistic | observed | exact baseline | asymptotic baseline | p-value |\n"
        "|---|---|---|---|---|\n"
        "| mean | 1.0830074998557688 | 0.6186218808782962 | 1.4426950408889634 | - |\n"
        "| quantile 0.5 | 1.0 | - | 1.0 | 0.3571428571428594 |\n"
        "| quantile 0.75 | 2.0 | - | 2.0 | 0.27777777777777946 |\n\n"
        "epsilon from median exposure, ln(2) * (median exposure - 1): 0.0\n\n"
        "## Epsilon lower bounds\n\n"
        "confidence 0.95, each Clopper-Pearson side at (1 - confidence)/2\n\n"
        "| operating point | per-example | point estimate | confident lower bound "
        "| tpr | fpr |\n"
        "|---|---|---|---|---|---|\n"
        "| median | false | 0.47000362924573563 | 0.0 | 0.4 | 0.25 |\n"
        "| median | true | 0.23500181462286782 | 0.0 | 0.4 | 0.25 |\n"
        "| fpr_target=0.25 | false | 0.8754687373538999 | 0.0 | 0.6 | 0.25 |\n"
        "| fpr_target=0.25 | true | 0.4377343686769499 | 0.0 | 0.6 | 0.25 |\n\n"
        "## Warnings\n\n"
        "- canary and reference losses are assumed independent (heuristic); "
        "dependence-aware corrections are out of scope\n\n"
        "## Exposure histogram\n\n"
        "| bin | count |\n"
        "|---|---|\n"
        "| [-0.3219280948873622, 0.17807190511263782] | 1 |\n"
        "| [0.17807190511263782, 0.6780719051126378] | 1 |\n"
        "| [0.6780719051126378, 1.1780719051126378] | 1 |\n"
        "| [1.1780719051126378, 1.6780719051126378] | 0 |\n"
        "| [1.6780719051126378, 2.178071905112638] | 2 |\n\n"
        "## Per-canary exposure\n\n"
        "| index | id | rank | exposure | empirical fpr |\n"
        "|---|---|---|---|---|\n"
        "| 0 | a | 1 | 2.0 | 0.0 |\n"
        "| 1 | b | 2 | 1.0 | 0.25 |\n"
        "| 2 | - | 3 | 0.4150374992788439 | 0.5 |\n"
        "| 3 | d,e | 4 | 0.0 | 0.75 |\n"
        "| 4 | f | 1 | 2.0 | 0.0 |\n"
    )


def test_epsilon_bound_row_key_order():
    row = _golden_document()["epsilon_bounds"][0]
    assert list(row) == [
        "operating_point", "threshold", "tpr", "fpr", "canary_hits", "reference_hits",
        "point_estimate", "confident_lower_bound", "tpr_lower", "fpr_upper", "per_example",
    ]


def test_json_is_strict_when_the_loss_sum_overflows():
    # finite losses whose float64 sum is infinite: the summary mean stays finite
    d = make_dataset([1e308, 1.7e308, 1.7e308], [-1e308, -1.5e308])
    document = build_report(d, audit_pipeline(d))
    summary = _strict_loads(render_json(document))["dataset"]
    assert math.isclose(summary["canary_loss"]["mean"], 4.4 / 3 * 1e308, rel_tol=1e-12)
    assert summary["reference_loss"]["mean"] == -1.25e308


def test_median_row_is_its_own_attack_on_tied_losses():
    # ties at the median canary loss: the median attack and the fpr 0.3
    # attack are the same point, threshold 1.0 with 1 canary and no
    # reference below it; the tied references count against the median
    # canary's rank (5 of 10 references), so the exposure form reads 0
    d = make_dataset([0.0, 1.0, 1.0, 1.0, 5.0],
                     [1.0, 1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0])
    result = audit_pipeline(d, operating_points=("median", 0.3))
    document = _strict_loads(render_json(build_report(d, result)))
    median, at_target = document["epsilon_bounds"]
    for row in (median, at_target):
        assert row["threshold"] == 1.0
        assert (row["canary_hits"], row["reference_hits"]) == (1, 0)
        assert (row["tpr"], row["fpr"]) == (0.2, 0.0)
        assert row["point_estimate"] is None  # ln(0.2 / 0), infinite
    assert {**median, "operating_point": None} == {**at_target, "operating_point": None}
    assert document["exposure"]["epsilon_from_median_exposure"] == 0.0


def test_markdown_per_canary_table_escapes_ids():
    d = make_dataset([0.5, 1.5, 2.5], [1.0, 2.0], ids=["a|b", "x\ny", "p\\|q"])
    md = render_markdown(build_report(d, audit_pipeline(d)))
    table = md[md.index("## Per-canary exposure"):].splitlines()[2:]
    assert table == [
        "| index | id | rank | exposure | empirical fpr |",
        "|---|---|---|---|---|",
        "| 0 | a\\|b | 1 | 1.0 | 0.0 |",
        "| 1 | x<br>y | 2 | 0.0 | 0.5 |",
        "| 2 | p\\\\\\|q | 3 | -0.5849625007211561 | 1.0 |",
    ]
    for row in table:  # six pipes once each escaped character is removed
        assert re.sub(r"\\.", "", row).count("|") == 6


def test_markdown_shows_the_exposure_form_epsilon():
    _, document = _sample_document()
    value = document["exposure"]["epsilon_from_median_exposure"]
    median_exposure = document["exposure"]["quantile_exposures"]["0.5"]
    assert value == math.log(2.0) * (median_exposure - 1.0)
    assert ("\nepsilon from median exposure, ln(2) * (median exposure - 1): "
            f"{json.dumps(value)}\n") in render_markdown(document)
