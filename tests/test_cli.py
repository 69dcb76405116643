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
    # fpr 0: both point estimates are infinite, null in the JSON
    assert raw["fpr"] == 0.0
    assert raw["point_estimate"] is None and per["point_estimate"] is None
    outcome = audit_pipeline(d).outcomes[0]
    assert outcome.per_example_bound.point_estimate == outcome.bound.point_estimate / 4


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
    d = make_dataset([1.0], [2.0])
    jsonl_path = _write_dataset(tmp_path, d, format="jsonl")
    assert main(["audit", jsonl_path]) == 0
    capsys.readouterr()
    # csv contents under a .txt name need the explicit flag
    txt_path = tmp_path / "data.txt"
    txt_path.write_text(serialize_dataset(d, "csv"), encoding="utf-8")
    assert main(["audit", str(txt_path), "--format", "csv"]) == 0
    capsys.readouterr()


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


def test_invalid_flags_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "whatever.csv", "--out", "pdf"])
    assert exc.value.code == 2
    for flags in (["--mu", "0", "--m", "0", "--n", "5"],
                  ["--mu", "-1", "--m", "5", "--n", "5"],
                  ["--mu", "0", "--sigma", "0", "--m", "5", "--n", "5"],
                  ["--mu", "nan", "--m", "5", "--n", "5"],
                  ["--mu", "inf", "--m", "5", "--n", "5"],
                  ["--mu", "0", "--sigma", "nan", "--m", "5", "--n", "5"],
                  ["--mu", "0", "--sigma", "inf", "--m", "5", "--n", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", *flags, "--out-file", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["audit", "whatever.csv", "--confidence", "1.5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["baseline", "--m", "10", "--n", "10", "--statistic", "mode"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    ["baseline", "--m", "3", "--n", "3", "--seed", "-1"],
    ["simulate", "--mu", "1", "--m", "3", "--n", "3", "--seed", "-1", "--out-file", "x.csv"],
])
def test_negative_seed_exits_two_without_traceback(tmp_path, command):
    src = str(Path(canaudit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "canaudit.cli", *command], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 2
    assert "seed" in done.stderr and "Traceback" not in done.stderr
    assert not (tmp_path / "x.csv").exists()


def test_baseline_mean_output(capsys):
    assert main(["baseline", "--m", "10", "--n", "1000000",
                 "--statistic", "mean", "--trials", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "exact" in out and "1.4426" in out


def test_baseline_quantile_output(capsys):
    assert main(["baseline", "--m", "100", "--n", "100",
                 "--statistic", "quantile=0.75", "--trials", "20"]) == 0
    out = capsys.readouterr().out
    assert "asymptotic:  2.0" in out


def test_baseline_deterministic_output(capsys):
    args = ["baseline", "--m", "50", "--n", "50", "--statistic", "mean",
            "--trials", "30", "--seed", "12"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


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
    # its own port of Cephes ndtri, so no command but the tests' oracles
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
    # bounds and p-values use the standard library: no output format, tie
    # policy or operating point of an audit imports scipy
    import numpy as np

    rng = np.random.default_rng(73)
    path = _write_dataset(tmp_path, make_dataset(rng.normal(-0.5, 1.0, size=300),
                                                 rng.normal(size=400)))
    code = ("import contextlib, io, sys\n"
            "from canaudit.cli import main\n"
            "for out in ('json', 'md', 'csv'):\n"
            "    for tie_policy in ('pessimistic', 'optimistic'):\n"
            "        with contextlib.redirect_stdout(io.StringIO()) as text:\n"
            f"            assert main(['audit', {path!r}, '--out', out,\n"
            "                         '--tie-policy', tie_policy, '--fpr-target', '0',\n"
            "                         '--fpr-target', '0.001', '--fpr-target', '1']) == 0\n"
            "        assert text.getvalue()\n"
            "        print(out, tie_policy,\n"
            "              sorted(name for name in sys.modules if name.startswith('scipy')))\n")
    assert _run_in_fresh_interpreter(code).splitlines() == [
        f"{out} {tie_policy} []" for out in ("json", "md", "csv")
        for tie_policy in ("pessimistic", "optimistic")]


def test_simulate_writes_loadable_file(tmp_path, capsys):
    out_file = tmp_path / "sim.jsonl"
    assert main(["simulate", "--mu", "2", "--sigma", "0.5", "--m", "10",
                 "--n", "20", "--seed", "3", "--out-file", str(out_file),
                 "--format", "jsonl"]) == 0
    d = parse_dataset(out_file.read_bytes(), "jsonl")
    assert d.m == 10 and d.n == 20
