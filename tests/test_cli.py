"""Tests for the experiment command line: specs, reports, exit codes."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphgauge import baseline, cli, sampler


def _run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# smoke runs, one per kind
# ---------------------------------------------------------------------------


_SMOKE_ARGV = [
    ["covariance-sweep", "--seed", "1", "--param", "n_transforms=6"],
    ["oned-demo"],
    ["oned-demo", "--param", "profile=kink", "--param", "delta=0.05"],
    ["embedded-violation"],
    ["continuum-check"],
    ["mc-run", "--seed", "5", "--param", "beta=2.0", "--param", "sweeps=6",
     "--param", "burn_in=2"],
    ["flatness-check", "--seed", "9"],
]


@pytest.mark.parametrize("argv", _SMOKE_ARGV)
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


def test_every_json_value_round_trips_in_both_formats(tmp_path):
    record = {
        "tenth": 0.1, "huge": 1e300, "inf": float("inf"), "nan": float("nan"), "neg_zero": -0.0,
        "count": 7, "flag": True, "text": "not json, with a comma", "list": [1, 2.5, "x"],
        "table": {"a": 1},
    }
    report = cli.ExperimentReport(spec={"kind": "codec"}, records=[record], summary={})
    for fmt in ("json", "csv"):
        path = tmp_path / f"r.{fmt}"
        cli.write_report(report, str(path), fmt)
        assert json.dumps(cli.load_report(str(path)).records) == json.dumps([record])


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


def test_one_parser_per_process_keeps_no_params_between_calls(capsys, tmp_path):
    # main builds its parser once; a --param of one call must not reach the next,
    # so mc-run without beta is still refused after a call that gave one.
    out = tmp_path / "r.json"
    argv = ["mc-run", "--seed", "1", "--param", "beta=1.0", "--param", "sweeps=2",
            "--param", "burn_in=0", "--out", str(out)]
    assert _run(argv) == 0
    assert _run(["mc-run", "--seed", "1", "--out", str(out)]) == 2
    assert "parameter 'beta' is invalid" in capsys.readouterr().err
    assert cli._parser() is cli._parser()


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


@pytest.mark.parametrize(
    "value, field",
    [
        ("box_extent=NaN", "box_extent"),
        ("box_extent=Infinity", "box_extent"),
        ("box_extent=-1", "box_extent"),
        ("box_extent=0", "box_extent"),
        ("angle_deg=NaN", "angle_deg"),
        ("angle_deg=-Infinity", "angle_deg"),
        ("mass=NaN", "mass"),
        ("mass=Infinity", "mass"),
        ("widths=[0.25,0.5,NaN,0.42]", "widths"),
        ("widths=[0.25,0.5,0.35,Infinity]", "widths"),
    ],
)
def test_embedded_violation_rejects_non_finite_values(value, field, capsys, tmp_path):
    out = tmp_path / "r.json"
    assert _run(["embedded-violation", "--param", value, "--out", str(out)]) == 2
    assert f"'{field}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, field",
    [
        # A NaN threshold would switch its gate off (x < NaN is False).
        (["flatness-check", "--seed", "1", "--param", "min_ratio=NaN"], "min_ratio"),
        (["covariance-sweep", "--seed", "1", "--param", "n_transforms=3", "--param", "tol=NaN"],
         "tol"),
        (["embedded-violation", "--param", "eps_list=[0.2,0.1]", "--param", "box_extent=1.0",
          "--param", "min_slope=NaN"], "min_slope"),
        # Malformed values that would otherwise crash or run silently.
        (["oned-demo", "--param", "delta=NaN"], "delta"),
        (["oned-demo", "--param", "window=[1]"], "window"),
        (["oned-demo", "--param", "window=[6,-6]"], "window"),
        (["oned-demo", "--param", "profile=[1]"], "profile"),
        (["continuum-check", "--param", "deficit_slope_band=[1]"], "deficit_slope_band"),
        (["continuum-check", "--param", "box_extent=NaN"], "box_extent"),
        (["continuum-check", "--param", "box_extent=-1"], "box_extent"),
        (["flatness-check", "--seed", "1", "--param", "amplitude=NaN"], "amplitude"),
        (["flatness-check", "--seed", "-1"], "seed"),
        (["mc-run", "--param", "seed=-3", "--param", "beta=2.0"], "seed"),
        # covariance-sweep takes no beta: the name itself is refused.
        (["covariance-sweep", "--seed", "1", "--param", "n_transforms=3", "--param", "beta=NaN"],
         "beta"),
        # Names the kind does not read.
        (["covariance-sweep", "--seed", "1", "--param", "bogus=1"], "bogus"),
        (["oned-demo", "--param", "bogus=1"], "bogus"),
        (["embedded-violation", "--param", "bogus=1"], "bogus"),
        (["continuum-check", "--param", "bogus=1"], "bogus"),
        (["continuum-check", "--param", "n_colors=2"], "n_colors"),
        (["mc-run", "--seed", "1", "--param", "beta=2.0", "--param", "sweeps=3",
          "--param", "bogus=1"], "bogus"),
        (["flatness-check", "--seed", "1", "--param", "bogus=1"], "bogus"),
        # JSON booleans and strings are not numbers, though float() takes them.
        (["covariance-sweep", "--seed", "1", "--param", "n_transforms=true"], "n_transforms"),
        (["covariance-sweep", "--seed", "1", "--param", 'n_transforms="3"'], "n_transforms"),
        (["mc-run", "--seed", "1", "--param", "beta=true", "--param", "sweeps=3"], "beta"),
        (["flatness-check", "--seed", "1", "--param", 'eps="0.05"'], "eps"),
        # A schedule that measures no sweep, and counts that are not integers.
        (["mc-run", "--seed", "1", "--param", "beta=2.0", "--param", "sweeps=10",
          "--param", "burn_in=5", "--param", "measure_every=10"], "measure_every"),
        (["mc-run", "--seed", "1", "--param", "beta=2.0", "--param", "measure_every=1.5"],
         "measure_every"),
        (["mc-run", "--seed", "1", "--param", "beta=2.0", "--param", "sweeps=4.5"], "sweeps"),
        # A repeated spacing fits a slope through fewer distinct points than it seems.
        (["oned-demo", "--param", "eps_list=[0.1,0.1]"], "eps_list"),
        (["embedded-violation", "--param", "eps_list=[0.2,0.2]", "--param", "min_slope=1.0"],
         "eps_list"),
        (["continuum-check", "--param", "eps_list=[0.2,0.2,0.2]"], "eps_list"),
        # A negative amplitude is a noise scale `random_field` refuses mid-run.
        (["flatness-check", "--seed", "1", "--param", "amplitude=-0.5"], "amplitude"),
        # A box the spacings do not tile averaged 0.8 at eps 0.2 but 0.9 at 0.1.
        (["continuum-check", "--param", "box_extent=0.9"], "box_extent"),
    ],
)
def test_unusable_params_rejected_at_spec_time(argv, field, capsys, tmp_path):
    out = tmp_path / "r.json"
    assert _run(argv + ["--out", str(out)]) == 2
    assert f"parameter '{field}' is invalid" in capsys.readouterr().err
    assert not out.exists()


def test_integral_floats_echoed_as_resolved_ints(tmp_path):
    out = tmp_path / "r.json"
    argv = ["covariance-sweep", "--seed", "1", "--param", "n_transforms=3e0",
            "--param", "dims=[2.0,2,2,2]", "--out", str(out)]
    assert _run(argv) == 0
    params = cli.load_report(str(out)).spec["params"]
    assert params["n_transforms"] == 3 and type(params["n_transforms"]) is int
    assert params["dims"] == [2, 2, 2, 2]
    assert all(type(d) is int for d in params["dims"])


def _shown(default) -> str:
    return " (required)" if default is None else "=" + json.dumps(default)


@pytest.mark.parametrize("kind", cli.KINDS)
def test_help_lists_parameter_table(kind, capsys):
    with pytest.raises(SystemExit) as info:
        _run([kind, "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for name, default in cli._EXPERIMENTS[kind][3].items():
        assert f"\n  {name}{_shown(default)}\n" in out
    assert ("\n  beta (required)\n" in out) == (kind == "mc-run")


def test_readme_parameter_table_matches_registry():
    # The check column is the requirement of each parameter's one rule: mc-run's
    # are the chain's own.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([a-z-]+)` \| `(\w+)` \| (`[^`]*`|required) \| (.+) \|$", readme, re.M)
    documented = {(kind, name): (default.strip("`"), check) for kind, name, default, check in rows}
    declared = {}
    for kind, (_, _, rules, defaults) in cli._EXPERIMENTS.items():
        wants = {field: want for field, _, want in rules or sampler._CHAIN_RULES}
        for name, default in defaults.items():
            shown = "required" if default is None else json.dumps(default)
            declared[(kind, name)] = (shown, wants[name])
    assert len(rows) == len(documented)
    assert documented == declared


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
    assert report.spec == {
        "kind": "oned-demo",
        "params": {
            "eps_list": [0.2, 0.1, 0.05],
            "delta": 0.1,
            "window": [-6.0, 6.0],
            "profile": "gauss",
        },
        "seed": None,
    }
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


# Run in a fresh interpreter with scipy blocked: `import scipy` raises there, and
# the sentinel stays in sys.modules only if nothing imported scipy or a submodule.
_NO_SCIPY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None
import numpy as np
from graphgauge import baseline, cli, sampler
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv + ["--out", "report.json"]) == 0
rep = baseline.violation_sigma_1d(lambda x: np.exp(-x * x), lambda v: v, 0.1, 0.05, (0.0, 8.0))
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                    and sys.modules[m] is not None),
    "exact": sampler.single_plaquette_exact(2.0),
    "violation": vars(rep),
}))
"""


def test_runtime_needs_no_scipy(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    argv = [shlex.split(line)[1:] for line in re.findall(r"^graphgauge .+$", readme, re.M)]
    assert {a[0] for a in argv} == set(cli.KINDS) and len(argv) == 6
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(argv)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["scipy"] == []
    # The same values, to the last bit, as in this process.
    assert got["exact"] == sampler.single_plaquette_exact(2.0)
    want = baseline.violation_sigma_1d(lambda x: np.exp(-x * x), lambda v: v, 0.1, 0.05, (0.0, 8.0))
    assert json.dumps(got["violation"]) == json.dumps(vars(want))
