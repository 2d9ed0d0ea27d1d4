"""Tests for the experiment command line: specs, reports, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from graphgauge import cli


def _run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# smoke runs, one per kind
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["covariance-sweep", "--seed", "1", "--param", "n_transforms=6"],
        ["oned-demo"],
        ["oned-demo", "--param", "profile=kink", "--param", "delta=0.05"],
        ["embedded-violation"],
        ["continuum-check"],
        ["mc-run", "--seed", "5", "--param", "beta=2.0", "--param", "sweeps=6",
         "--param", "burn_in=2"],
        ["flatness-check", "--seed", "9"],
    ],
)
def test_every_kind_exits_clean(argv, tmp_path):
    out = tmp_path / "report.json"
    assert _run(argv + ["--out", str(out)]) == 0
    rep = cli.load_report(str(out))
    assert rep.spec["kind"] == argv[0]
    assert rep.summary["status"] == "ok"
    assert rep.summary["wall_time_s"] >= 0.0
    assert len(rep.records) > 0


def test_stdout_default(capsys):
    assert _run(["oned-demo"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spec"]["kind"] == "oned-demo"
    assert payload["summary"]["status"] == "ok"


# ---------------------------------------------------------------------------
# report round trips
# ---------------------------------------------------------------------------


def test_json_and_csv_round_trip_identically(tmp_path):
    base = ["covariance-sweep", "--seed", "7", "--param", "n_transforms=6"]
    j = tmp_path / "r.json"
    c = tmp_path / "r.csv"
    assert _run(base + ["--out", str(j), "--format", "json"]) == 0
    assert _run(base + ["--out", str(c), "--format", "csv"]) == 0
    rep_j = cli.load_report(str(j))
    rep_c = cli.load_report(str(c))
    assert rep_j.spec == rep_c.spec
    assert len(rep_j.records) == len(rep_c.records) == 6
    for a, b in zip(rep_j.records, rep_c.records):
        # Floats are written with repr precision, so values survive the CSV
        # round trip exactly, including the last bit.
        assert a == b


def test_csv_cells_cover_value_types(tmp_path):
    out = tmp_path / "r.csv"
    assert _run(["oned-demo", "--out", str(out), "--format", "csv"]) == 0
    rep = cli.load_report(str(out))
    rec = rep.records[0]
    assert isinstance(rec["bit_identical"], bool)
    assert isinstance(rec["sigma"], float)
    assert rep.summary["bit_identical_all"] is True


def test_failure_records_round_trip(tmp_path):
    out = tmp_path / "r.json"
    rc = _run(
        ["flatness-check", "--seed", "3", "--param", "min_ratio=1e9",
         "--out", str(out)]
    )
    assert rc == 1
    rep = cli.load_report(str(out))
    assert rep.summary["status"] == "violation"
    fails = [r for r in rep.records if r.get("record_type") == "failure"]
    assert len(fails) == 1
    assert fails[0]["check"] == "ratio"
    assert fails[0]["value"] < 1e9
    assert fails[0]["threshold"] == 1e9


# ---------------------------------------------------------------------------
# spec handling
# ---------------------------------------------------------------------------


def test_param_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_transforms": 4, "tol": 1e-9}))
    out = tmp_path / "r.json"
    rc = _run(
        ["covariance-sweep", "--seed", "2", "--config", str(cfg),
         "--param", "n_transforms=2", "--out", str(out)]
    )
    assert rc == 0
    rep = cli.load_report(str(out))
    assert rep.spec["params"]["n_transforms"] == 2
    assert rep.spec["params"]["tol"] == 1e-9
    assert len([r for r in rep.records if "transform" in r]) == 2


def test_seed_can_come_from_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta": 1.5, "sweeps": 4, "burn_in": 1, "seed": 4}))
    out = tmp_path / "r.json"
    assert _run(["mc-run", "--config", str(cfg), "--out", str(out)]) == 0
    rep = cli.load_report(str(out))
    assert rep.spec["seed"] == 4
    assert "seed" not in rep.spec["params"]


# ---------------------------------------------------------------------------
# diagnostics, exit code 2
# ---------------------------------------------------------------------------


def test_missing_required_parameter(capsys):
    assert _run(["mc-run", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "graphgauge: error" in err
    assert "'beta'" in err


def test_randomized_kind_requires_seed(capsys):
    assert _run(["covariance-sweep"]) == 2
    err = capsys.readouterr().err
    assert "'seed'" in err
    assert "covariance-sweep" in err


def test_unknown_kind_rejected_by_parser():
    with pytest.raises(SystemExit) as info:
        _run(["teleport"])
    assert info.value.code == 2


def test_unreadable_config(capsys, tmp_path):
    assert _run(["oned-demo", "--config", str(tmp_path / "missing.json")]) == 2
    assert "'config'" in capsys.readouterr().err


def test_invalid_config_json(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert _run(["oned-demo", "--config", str(cfg)]) == 2
    assert "valid JSON" in capsys.readouterr().err


def test_config_must_be_object(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert _run(["oned-demo", "--config", str(cfg)]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_malformed_param_override(capsys):
    assert _run(["oned-demo", "--param", "delta"]) == 2
    assert "name=value" in capsys.readouterr().err


def test_unwritable_out(capsys):
    assert _run(["oned-demo", "--out", "/nonexistent-dir/r.json"]) == 2
    assert "'out'" in capsys.readouterr().err


def test_bad_profile_named(capsys):
    assert _run(["oned-demo", "--param", "profile=step"]) == 2
    assert "'profile'" in capsys.readouterr().err


def test_bad_chain_field_forwarded(capsys):
    rc = _run(["mc-run", "--seed", "1", "--param", "beta=2.0", "--param", "sweeps=0"])
    assert rc == 2
    assert "'sweeps'" in capsys.readouterr().err


@pytest.mark.parametrize("order", [[], ["--param", "order=checkerboard"]], ids=["default", "named"])
def test_checkerboard_with_odd_extent_runs(order, tmp_path):
    out = tmp_path / "r.json"
    rc = _run(
        ["mc-run", "--seed", "1", "--param", "beta=2.0", "--param", "dims=[3,2,2,2]",
         "--param", "sweeps=4", "--param", "burn_in=1", "--out", str(out)] + order
    )
    assert rc == 0
    assert cli.load_report(str(out)).summary["n_measurements"] == 3


def test_hot_start_takes_json_booleans(tmp_path):
    first = {}
    for flag in ("true", "false"):
        out = tmp_path / f"{flag}.json"
        argv = ["mc-run", "--seed", "1", "--param", "beta=2.0", "--param", "sweeps=2",
                "--param", "burn_in=0", "--param", f"hot_start={flag}", "--out", str(out)]
        assert _run(argv) == 0
        first[flag] = cli.load_report(str(out)).records[0]["avg_plaquette"]
    assert first["true"] < 0.5 < first["false"]


@pytest.mark.parametrize(
    "argv, field",
    [
        (["covariance-sweep", "--seed", "1", "--param", "n_colors=4"], "n_colors"),
        (["covariance-sweep", "--seed", "1", "--param", "dims=[1,2,2,2]"], "dims"),
        (["flatness-check", "--seed", "1", "--param", "dims=[1,2,2,2]"], "dims"),
        (["flatness-check", "--seed", "1", "--param", "eps=0"], "eps"),
        (["flatness-check", "--seed", "1", "--param", "eps=Infinity"], "eps"),
        (["oned-demo", "--param", "eps_list=[0]"], "eps_list"),
        (["continuum-check", "--param", "eps_list=[0.2,0.1]"], "eps_list"),
        (["embedded-violation", "--param", "eps_list=[-0.1]"], "eps_list"),
        (["mc-run", "--seed", "1", "--param", "beta=2.0", "--param", "n_colors=2.9"],
         "n_colors"),
        (["mc-run", "--seed", "1", "--param", "beta=2.0", "--param", "sweeps=1e400"],
         "sweeps"),
        (["covariance-sweep", "--param", "seed=2.5", "--param", "n_transforms=3"], "seed"),
        (["mc-run", "--seed", "1", "--param", "beta=2.0", "--param", "hot_start=no"],
         "hot_start"),
        (["mc-run", "--seed", "1", "--param", "beta=2.0", "--param", "hot_start=1"],
         "hot_start"),
        (["mc-run", "--seed", "1", "--param", "beta=2.0", "--param", "order=spiral"], "order"),
    ],
)
def test_invalid_values_rejected_at_spec_time(argv, field, capsys, tmp_path):
    out = tmp_path / "r.json"
    assert _run(argv + ["--out", str(out)]) == 2
    assert f"'{field}'" in capsys.readouterr().err
    assert not out.exists()


def test_threshold_violation_reports_to_stderr(capsys, tmp_path):
    out = tmp_path / "r.json"
    rc = _run(
        ["flatness-check", "--seed", "3", "--param", "min_ratio=1e9",
         "--out", str(out)]
    )
    assert rc == 1
    assert "threshold violation" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run_experiment as a library call
# ---------------------------------------------------------------------------


def test_run_experiment_validates_spec():
    with pytest.raises(cli.SpecError, match="kind"):
        cli.run_experiment(cli.ExperimentSpec(kind="nope"))
    with pytest.raises(cli.SpecError, match="params"):
        cli.run_experiment(cli.ExperimentSpec(kind="oned-demo", params=[1]))
    with pytest.raises(cli.SpecError, match="seed"):
        cli.run_experiment(cli.ExperimentSpec(kind="mc-run", params={"beta": 1.0}))


def test_run_experiment_echoes_spec():
    spec = cli.ExperimentSpec(kind="oned-demo", params={"delta": 0.1}, seed=None)
    report = cli.run_experiment(spec)
    assert report.spec == spec.to_dict()
    assert report.summary["status"] == "ok"
    slopes = report.summary["refinement_slope"]
    assert slopes is None or isinstance(slopes, float)


def test_module_entry_point_runs_clean(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "graphgauge", "oned-demo"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["summary"]["status"] == "ok"
