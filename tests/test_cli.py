import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import canaudit
from canaudit import audit_pipeline, parse_dataset, serialize_dataset
from canaudit.cli import main

from conftest import make_dataset


def _write_dataset(tmp_path, d, format="csv", name="losses"):
    path = tmp_path / f"{name}.{format}"
    path.write_text(serialize_dataset(d, format), encoding="utf-8")
    return str(path)


def test_simulate_then_audit_round_trip(tmp_path, capsys):
    out_file = str(tmp_path / "null.csv")
    assert main(["simulate", "--mu", "0", "--m", "301", "--n", "300",
                 "--seed", "5", "--out-file", out_file]) == 0
    capsys.readouterr()
    assert main(["audit", out_file]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["dataset"]["m"] == 301
    assert document["exposure"]["quantile_exposures"]["0.5"] == pytest.approx(1.0, abs=0.4)
    bounds = document["epsilon_bounds"]
    assert len(bounds) == 1 and bounds[0]["operating_point"] == "median"
    assert bounds[0]["confident_lower_bound"] == 0.0


def test_audit_memorizing_model_certifies_leakage(tmp_path, capsys):
    out_file = str(tmp_path / "leaky.jsonl")
    assert main(["simulate", "--mu", "4", "--m", "2000", "--n", "2000",
                 "--seed", "6", "--out-file", out_file, "--format", "jsonl"]) == 0
    capsys.readouterr()
    assert main(["audit", out_file, "--fpr-target", "0.01"]) == 0
    document = json.loads(capsys.readouterr().out)
    by_op = {row["operating_point"]: row for row in document["epsilon_bounds"]}
    assert by_op["median"]["confident_lower_bound"] > 0.5
    assert by_op["fpr_target=0.01"]["confident_lower_bound"] > 0.5


def test_audit_reports_raw_and_per_example_bounds(tmp_path, capsys):
    import numpy as np

    rng = np.random.default_rng(67)
    d = make_dataset(rng.normal(-4.0, 1.0, size=500), rng.normal(size=500),
                     replications=4)
    path = _write_dataset(tmp_path, d)
    assert main(["audit", path]) == 0
    document = json.loads(capsys.readouterr().out)
    rows = document["epsilon_bounds"]
    assert len(rows) == 2
    raw = next(r for r in rows if not r["per_example"])
    per = next(r for r in rows if r["per_example"])
    assert raw["confident_lower_bound"] > 0.0
    assert per["confident_lower_bound"] == raw["confident_lower_bound"] / 4
    # the per-example row shares the raw row's attack and Clopper-Pearson pair
    divided = {"per_example", "point_estimate", "confident_lower_bound"}
    assert list(per) == list(raw)
    assert all(per[key] == raw[key] for key in raw.keys() - divided)
    # fpr 0: both point estimates are infinite, null in the JSON
    assert raw["fpr"] == 0.0
    assert raw["point_estimate"] is None and per["point_estimate"] is None
    raw_row, per_row = audit_pipeline(d).outcomes
    assert per_row.bound.point_estimate == raw_row.bound.point_estimate / 4


def test_audit_warns_on_unachievable_fpr_target(tmp_path, capsys):
    import numpy as np

    rng = np.random.default_rng(71)
    d = make_dataset(rng.normal(size=100), rng.normal(size=100))
    path = _write_dataset(tmp_path, d)
    assert main(["audit", path, "--fpr-target", "0.001"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert any("resolution" in w for w in document["warnings"])
    row = next(r for r in document["epsilon_bounds"]
               if r["operating_point"] == "fpr_target=0.001")
    assert row["fpr"] == 0.0


def test_audit_markdown_and_csv_outputs(tmp_path, capsys):
    import numpy as np

    rng = np.random.default_rng(73)
    d = make_dataset(rng.normal(size=30), rng.normal(size=30))
    path = _write_dataset(tmp_path, d)
    assert main(["audit", path, "--out", "md"]) == 0
    md = capsys.readouterr().out
    assert md.startswith("# Canary exposure audit")
    assert main(["audit", path, "--out", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.splitlines()[0].startswith("index,")
    assert len(csv_text.strip().splitlines()) == d.m + 1


def test_audit_format_inference_and_override(tmp_path, capsys):
    # the content decides the format: CSV under a .txt name reads with no flag
    d = make_dataset([1.0], [2.0])
    txt_path = tmp_path / "data.txt"
    txt_path.write_text(serialize_dataset(d, "csv"), encoding="utf-8")
    assert main(["audit", str(txt_path)]) == 0
    assert capsys.readouterr().err == ""


_NAMES = ("d.csv", "d.jsonl", "d.txt", "d.ndjson", "d.JSON")


@pytest.mark.parametrize("format,name,prefix", [
    *((format, name, "") for format in ("csv", "jsonl") for name in _NAMES),
    # a byte order mark and blank lines may come before the first record
    *(("jsonl", name, "\ufeff\n\n") for name in _NAMES),
])
def test_format_follows_the_content_not_the_name(tmp_path, capsys, format, name, prefix):
    d = make_dataset([0.5, 1.5, 3.0], [1.0, 2.0, 2.5], ids=["a", None, "c"])
    expected = _write_dataset(tmp_path, d, name="expected")
    path = tmp_path / name
    path.write_text(prefix + serialize_dataset(d, format), encoding="utf-8")
    for command in (["audit", "{}", "--out", "json"], ["roc", "{}"]):
        assert main([arg.format(expected) for arg in command]) == 0
        want = capsys.readouterr().out
        assert main([arg.format(path) for arg in command]) == 0
        assert capsys.readouterr() == (want, "")


def test_quoted_csv_header_reads_as_csv(tmp_path, capsys):
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    plain.write_text("role,loss\ncanary,1.0\nreference,2.0\n", encoding="utf-8")
    quoted.write_text('"role","loss"\ncanary,1.0\nreference,2.0\n', encoding="utf-8")
    assert main(["audit", str(plain)]) == 0
    want = capsys.readouterr().out
    assert main(["audit", str(quoted)]) == 0
    assert capsys.readouterr() == (want, "")


@pytest.mark.parametrize("text,message", [
    # no byte opens a JSON object, so a .jsonl name still reads as CSV
    ("", "empty file: missing CSV header"),
    ("\n\n", "header: expected leading columns role,loss, got []"),
])
def test_empty_or_blank_file_reads_as_csv(tmp_path, capsys, text, message):
    path = tmp_path / "empty.jsonl"
    path.write_text(text, encoding="utf-8")
    assert main(["audit", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_audit_missing_file_exits_one(tmp_path, capsys):
    assert main(["audit", str(tmp_path / "absent.csv")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["roc", "{tmp}/absent.csv"],
    ["simulate", "--mu", "1", "--m", "3", "--n", "3", "--out-file", "{tmp}/no/dir.csv"],
    ["roc", "{data}", "--out-file", "{tmp}/no/dir.csv"],
])
def test_unreadable_input_or_unwritable_output_exits_one(tmp_path, capsys, command):
    data = _write_dataset(tmp_path, make_dataset([1.0], [2.0]))
    argv = [arg.format(tmp=tmp_path, data=data) for arg in command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_stdout_write_error_exits_one(tmp_path, capsys, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    path = _write_dataset(tmp_path, make_dataset([1.0], [2.0]))
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["roc", path]) == 1
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def test_memory_error_exits_one(capsys, monkeypatch):
    # baseline --n 1e11 asks numpy for arrays of 745 GiB; raising stands in for
    # that request, which an overcommitting kernel need not refuse up front
    def exact_baseline(*args):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape "
                          "(100000000001,) and data type int64")

    monkeypatch.setattr("canaudit.cli.exact_baseline", exact_baseline)
    assert main(["baseline", "--m", "1", "--n", "100000000000"]) == 1
    assert capsys.readouterr().err == (
        "error: Unable to allocate 745. GiB for an array with shape "
        "(100000000001,) and data type int64\n")


@pytest.mark.parametrize("name,text", [
    ("bad.csv", "role,loss\ncanary,NaN\n"),
    ("long.csv", "role,loss\ncanary,0.%s1\n" % ("0" * 200_000)),
    ("huge.jsonl", '{"role": "canary", "loss": 1}\n{"role": "canary", "loss": 1%s}\n'
                   % ("0" * 400)),
])
def test_audit_malformed_file_exits_one(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main(["audit", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


@pytest.mark.parametrize("out", ["md", "csv", "json"])
def test_id_that_utf8_cannot_encode_exits_one_with_one_line(tmp_path, capsys, out):
    # json reads the escape as a lone surrogate, which no report could write
    path = tmp_path / "s.jsonl"
    path.write_text('{"role": "canary", "loss": 1.0, "id": "\\ud800"}\n'
                    '{"role": "reference", "loss": 2.0}\n', encoding="utf-8")
    assert main(["audit", str(path), "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: id must not hold a lone surrogate, got '\\ud800'\n"


def test_invalid_flags_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "whatever.csv", "--out", "pdf"])
    assert exc.value.code == 2
    for flags in (["--mu", "0", "--m", "0", "--n", "5"],
                  ["--mu", "-1", "--m", "5", "--n", "5"],
                  ["--mu", "nan", "--m", "5", "--n", "5"],
                  ["--mu", "inf", "--m", "5", "--n", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", *flags, "--out-file", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["audit", "whatever.csv", "--confidence", "1.5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["baseline", "--m", "10", "--n", "10", "--statistic", "mode"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command,message", [
    # the histogram always has width-0.5 bins; rebin from per_canary.rank
    (["audit", "absent.csv", "--histogram-bins", "3"],
     "unrecognized arguments: --histogram-bins 3"),
    # the file is absent: flags are checked before it is read
    (["audit", "absent.csv", "--fpr-target", "1.5"], "--fpr-target must be in [0, 1]"),
    (["baseline", "--m", "0", "--n", "3"], "m must be a positive integer"),
    (["baseline", "--m", "3", "--n", "3", "--statistic", "quantile=x"],
     "malformed quantile in --statistic 'quantile=x'"),
    # the baseline is exact: it has no trials to draw and no seed
    (["baseline", "--m", "3", "--n", "3", "--trials", "200", "--seed", "1"],
     "unrecognized arguments: --trials 200 --seed 1"),
    # ties always count against the canary: there is no policy to pick
    (["audit", "absent.csv", "--tie-policy", "optimistic"],
     "unrecognized arguments: --tie-policy optimistic"),
    # a common scale of the losses changes no rank: the model has none
    (["simulate", "--mu", "1", "--m", "5", "--n", "5", "--out-file", "x.csv", "--sigma", "1"],
     "unrecognized arguments: --sigma 1"),
    # the content of the file decides its format
    (["audit", "absent.csv", "--format", "csv"], "unrecognized arguments: --format csv"),
    (["roc", "absent.jsonl", "--format", "jsonl"], "unrecognized arguments: --format jsonl"),
])
def test_flag_errors_exit_two(tmp_path, monkeypatch, capsys, command, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(command)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command,message", [
    # audit checks its flags under their own names; baseline and simulate
    # report the message of the library rule that rejects the value
    (["audit", "absent.csv", "--confidence", "1"], "--confidence must be in (0, 1), got 1.0"),
    (["audit", "absent.csv", "--fpr-target", "-0.5"],
     "--fpr-target must be in [0, 1], got -0.5"),
    (["simulate", "--mu", "-1", "--m", "5", "--n", "5", "--out-file", "x.csv"],
     "mu must be finite and >= 0, got -1.0"),
    (["baseline", "--m", "0", "--n", "3"], "m must be a positive integer, got 0"),
    (["baseline", "--m", "3", "--n", "0"], "n must be a positive integer, got 0"),
    (["baseline", "--m", "3", "--n", "3", "--statistic", "quantile=1.5"],
     "q must be in (0, 1), got 1.5"),
])
def test_flag_rules_exit_two_with_the_library_message(tmp_path, monkeypatch, capsys,
                                                       command, message):
    monkeypatch.chdir(tmp_path)  # absent.csv is absent: exit 1 would mean it was read
    with pytest.raises(SystemExit) as exc:
        main(command)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_render_value_error_is_not_a_flag_error(tmp_path, monkeypatch):
    # UnicodeEncodeError is a ValueError, but it is no fault of the flags
    def render(document):
        raise UnicodeEncodeError("ascii", "\u03b5", 0, 1, "ordinal not in range(128)")

    monkeypatch.setattr("canaudit.cli.render_markdown", render)
    path = _write_dataset(tmp_path, make_dataset([0.5, 1.5], [1.0, 2.0]))
    with pytest.raises(UnicodeEncodeError):
        main(["audit", path, "--out", "md"])


def test_negative_seed_exits_two_without_traceback(tmp_path):
    command = ["simulate", "--mu", "1", "--m", "3", "--n", "3", "--seed", "-1",
               "--out-file", "x.csv"]
    src = str(Path(canaudit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "canaudit.cli", *command], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 2
    assert "seed" in done.stderr and "Traceback" not in done.stderr
    assert not (tmp_path / "x.csv").exists()


def test_baseline_mean_output(capsys):
    assert main(["baseline", "--m", "10", "--n", "1000000", "--statistic", "mean"]) == 0
    out = capsys.readouterr().out
    assert "exact" in out and "1.4426" in out
    # the mean's null quantiles have no closed form: only its mean and std print
    assert "exact std:" in out and "quantile" not in out


def test_baseline_quantile_output(capsys):
    assert main(["baseline", "--m", "100", "--n", "100", "--statistic", "quantile=0.75"]) == 0
    out = capsys.readouterr().out
    assert "asymptotic:  2.0" in out and "exact:" in out and "exact std:" in out
    assert [line.split(":")[0].strip() for line in out.splitlines() if "null" in line] == [
        f"null quantile {p:g}" for p in (0.05, 0.25, 0.5, 0.75, 0.95)]


def test_roc_command_stdout(tmp_path, capsys):
    d = make_dataset([1.0], [2.0])
    path = _write_dataset(tmp_path, d)
    assert main(["roc", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "threshold,fpr,tpr"
    assert len(lines) == 1 + 4  # two distinct losses plus endpoints
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    assert any(fpr == 0.0 and tpr == 1.0 for _, fpr, tpr in rows)


def test_roc_command_out_file_null_data(tmp_path, capsys):
    out_file = str(tmp_path / "sweep.csv")
    data_file = str(tmp_path / "null.csv")
    assert main(["simulate", "--mu", "0", "--m", "2000", "--n", "2000",
                 "--seed", "9", "--out-file", data_file]) == 0
    assert main(["roc", data_file, "--out-file", out_file]) == 0
    lines = Path(out_file).read_text().strip().splitlines()
    for line in lines[1:]:
        _, fpr, tpr = (float(x) for x in line.split(","))
        assert abs(tpr - fpr) < 0.12


def _run_in_fresh_interpreter(code):
    """Run ``code`` in a fresh interpreter on this checkout; return stdout."""
    src = str(Path(canaudit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_and_roc_leave_scipy_unloaded(tmp_path):
    # scipy.special is a third of the start-up time; simulate samples with
    # numpy's standard normal sampler, so no command but the tests' oracles
    # needs it
    path = _write_dataset(tmp_path, make_dataset([1.0, 3.0], [2.0]))
    out_file = str(tmp_path / "sweep.csv")
    sims = {format: str(tmp_path / f"sim.{format}") for format in ("csv", "jsonl")}
    code = ("import sys\n"
            "import canaudit\n"
            "from canaudit.cli import main\n"
            "assert 'scipy' not in sys.modules\n"
            f"assert main(['roc', {path!r}, '--out-file', {out_file!r}]) == 0\n"
            f"for format, sim in {sims!r}.items():\n"
            "    assert main(['simulate', '--mu', '1', '--m', '500', '--n', '700',\n"
            "                 '--format', format, '--out-file', sim]) == 0\n"
            "print(sorted(name for name in sys.modules if name.startswith('scipy')))\n")
    assert _run_in_fresh_interpreter(code).splitlines() == [
        f"wrote 500 canaries and 700 references to {sim}" for sim in sims.values()] + ["[]"]
    assert Path(out_file).read_text().startswith("threshold,fpr,tpr\n")
    for format, sim in sims.items():
        d = parse_dataset(Path(sim).read_bytes(), format)
        assert (d.m, d.n) == (500, 700)


def test_audit_leaves_scipy_unloaded(tmp_path):
    # bounds and p-values use the standard library: no output format or
    # operating point of an audit imports scipy, and neither does the
    # baseline of either statistic
    import numpy as np

    rng = np.random.default_rng(73)
    path = _write_dataset(tmp_path, make_dataset(rng.normal(-0.5, 1.0, size=300),
                                                 rng.normal(size=400)))
    code = ("import contextlib, io, sys\n"
            "from canaudit.cli import main\n"
            "for out in ('json', 'md', 'csv'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as text:\n"
            f"        assert main(['audit', {path!r}, '--out', out, '--fpr-target', '0',\n"
            "                     '--fpr-target', '0.001', '--fpr-target', '1']) == 0\n"
            "    assert text.getvalue()\n"
            "    print(out, sorted(name for name in sys.modules if name.startswith('scipy')))\n"
            "for statistic in ('mean', 'quantile=0.5'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as text:\n"
            "        assert main(['baseline', '--m', '30', '--n', '40',\n"
            "                     '--statistic', statistic]) == 0\n"
            "    assert '  exact std:   ' in text.getvalue()\n"
            "    print(statistic,\n"
            "          sorted(name for name in sys.modules if name.startswith('scipy')))\n")
    assert _run_in_fresh_interpreter(code).splitlines() == [
        f"{out} []" for out in ("json", "md", "csv")] + ["mean []", "quantile=0.5 []"]


def test_simulate_writes_loadable_file(tmp_path, capsys):
    out_file = tmp_path / "sim.jsonl"
    assert main(["simulate", "--mu", "2", "--m", "10",
                 "--n", "20", "--seed", "3", "--out-file", str(out_file),
                 "--format", "jsonl"]) == 0
    d = parse_dataset(out_file.read_bytes(), "jsonl")
    assert d.m == 10 and d.n == 20
