import argparse
import csv
import importlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import hetfb.montecarlo as mc
from hetfb import analytic, cli
from hetfb.channel import ImpairmentParams
from hetfb.cli import emit, load_config, parse_grid, run, split_users
from hetfb.crossval import CrossValidationEntry, CrossValidationReport
from hetfb.montecarlo import CHUNK_TRIALS
from hetfb.specfun import ConvergenceError
from tests.oracles import i1_mp, variable_outage_over_estimate


def read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(tmp_path: Path, payload: dict) -> str:
    p = tmp_path / "config.json"
    p.write_text(json.dumps(payload))
    return str(p)


BASE = {
    "model": "subband",
    "n_rbs": 8,
    "clusters": [{"eta": 1, "users": 2}, {"eta": 2, "users": 2}],
    "best_m": 2,
    "snr_db": 10.0,
    "trials": 1500,
    "seed": 3,
}


class TestHelpers:
    def test_parse_grid(self):
        assert parse_grid("1,2,5") == [1.0, 2.0, 5.0]
        assert parse_grid("5:15:5") == [5.0, 10.0, 15.0]
        with pytest.raises(ValueError):
            parse_grid("1:2")
        with pytest.raises(ValueError):
            parse_grid("1:5:0")

    def test_range_grid_values(self):
        # built by repeated addition, each point rounded to 12 decimals
        assert parse_grid("0.1:0.9:0.1") == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        assert parse_grid("0.1:0.9:0.2") == [0.1, 0.3, 0.5, 0.7, 0.9]
        assert parse_grid("5:50:1") == [float(k) for k in range(5, 51)]
        assert len(parse_grid("0:99.99:0.01")) == cli._GRID_POINTS
        with pytest.raises(ValueError, match="more than"):
            parse_grid("0:100:0.01")
        with pytest.raises(ValueError, match="finite"):
            parse_grid("1:inf:1")

    def test_split_users(self):
        assert split_users(10, [0.5, 0.5]) == [5, 5]
        assert sum(split_users(7, [0.5, 0.5])) == 7
        assert split_users(10, [0.3, 0.7]) == [3, 7]

    def test_load_config_overrides(self, tmp_path):
        path = write_config(tmp_path, BASE)
        cfg = load_config(path, ["best_m=4", 'clusters=[{"eta":1,"users":3}]', "tag=abc"])
        assert cfg["best_m"] == 4
        assert cfg["clusters"] == [{"eta": 1, "users": 3}]
        assert cfg["tag"] == "abc"

    def test_emit_refuses_empty(self, tmp_path):
        with pytest.raises(ValueError):
            emit([], out_dir=tmp_path, name="x", fmt="csv", command="t", config={}, seed=1)

    def test_emit_round_trip(self, tmp_path):
        rows = [{"a": 1, "b": 0.123456789012345}]
        emit(rows, out_dir=tmp_path, name="x", fmt="csv", command="t", config={}, seed=1)
        got = read_csv(tmp_path / "x.csv")
        assert got[0]["a"] == "1"
        assert float(got[0]["b"]) == pytest.approx(0.123456789012345, rel=1e-11)
        manifest = json.loads((tmp_path / "x.manifest.json").read_text())
        assert manifest["seed"] == 1
        assert manifest["columns"] == ["a", "b"]
        assert manifest["outputs"] == [str(tmp_path / "x.csv")]


class TestSimulate:
    def test_perfect_run_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "simulate.csv")
        assert rows[0]["metric"] == "sum_rate"
        manifest = json.loads((tmp_path / "simulate.manifest.json").read_text())
        assert manifest["config"]["seed"] == 3
        assert manifest["seed"] == 3

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        for sub in ("a", "b"):
            code = run(
                ["simulate", "--config", cfg, "--out", str(tmp_path / sub), "--seed", "7"]
            )
            assert code == 0
        a = (tmp_path / "a" / "simulate.csv").read_bytes()
        b = (tmp_path / "b" / "simulate.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("extra", [{}, {"alpha": 0.95, "est_err_var": 0.02, "beta0": 1.0}])
    def test_csv_independent_of_worker_count(self, tmp_path, monkeypatch, extra):
        cfg = write_config(tmp_path, dict(BASE, trials=3 * CHUNK_TRIALS + 17, **extra))
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "pooled")]) == 0
        monkeypatch.setattr(mc, "_MAX_WORKERS", 1)
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "serial")]) == 0
        pooled = (tmp_path / "pooled" / "simulate.csv").read_bytes()
        assert pooled == (tmp_path / "serial" / "simulate.csv").read_bytes()

    def test_source_date_epoch_fixes_the_manifest(self, tmp_path, monkeypatch):
        # two runs differ only in where they wrote; the timestamp is the epoch's
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        manifests = []
        for sub in ("a", "b"):
            assert run(["simulate", "--trials", "100", "--out", str(tmp_path / sub)]) == 0
            manifests.append(json.loads((tmp_path / sub / "simulate.manifest.json").read_bytes()))
        assert manifests[0]["timestamp"] == "2023-11-14T22:13:20+00:00"
        assert [m.pop("outputs") for m in manifests] == [
            [str(tmp_path / sub / "simulate.csv")] for sub in ("a", "b")
        ]
        assert json.dumps(manifests[0]) == json.dumps(manifests[1])

    def test_imperfect_rows(self, tmp_path):
        payload = dict(BASE, best_m=4, alpha=0.95, est_err_var=0.02, beta1=0.8)
        cfg = write_config(tmp_path, payload)
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "simulate.csv")
        assert [r["metric"] for r in rows] == ["goodput", "outage", "scheduling_outage"]

    def test_cross_validate_ok(self, tmp_path):
        payload = dict(BASE, trials=4000)
        cfg = write_config(tmp_path, payload)
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path), "--cross-validate"])
        assert code == 0
        rows = read_csv(tmp_path / "simulate.csv")
        assert abs(float(rows[0]["z"])) <= 3.0

    def test_cross_validate_without_observed_outage(self, tmp_path):
        # near-perfect feedback: no outage in 4096 trials, so its standard error is 0
        argv = ["simulate", "--trials", "4096", "--set", "est_err_var=1e-9", "--set", "alpha=1",
                "--set", "beta0=0.1", "--cross-validate", "--out", str(tmp_path)]
        assert run(argv) == 0
        outage = read_csv(tmp_path / "simulate.csv")[1]
        assert outage["metric"] == "fixed_rate_outage" and float(outage["std_error"]) == 0.0
        assert math.isnan(float(outage["z"]))

    def test_cross_validate_flagged_exit_code(self, tmp_path, monkeypatch):
        from hetfb import cli

        def fake(spec):
            return CrossValidationReport(
                entries=(CrossValidationEntry("sum_rate", 1.0, 0.01, 2.0),)
            )

        monkeypatch.setattr(cli.crossval, "cross_validate", fake)
        cfg = write_config(tmp_path, BASE)
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path), "--cross-validate"])
        assert code == 4


class TestValidationFailures:
    @pytest.mark.parametrize(
        "patch",
        [
            {"n_rbs": 0},
            {"clusters": []},
            {"clusters": [{"eta": 3, "users": 2}]},
            {"clusters": [{"eta": 2, "users": 1}, {"eta": 2, "users": 1}]},
            {"clusters": [{"eta": 4, "users": 1}, {"eta": 2, "users": 1}]},
            {"n_rbs": 12, "clusters": [{"eta": 8, "users": 2}]},
            {"best_m": 0},
            {"best_m": 99},
            {"clusters": [{"eta": 1, "users": 0}, {"eta": 2, "users": 0}]},
            {"alpha": 1.2},
            {"est_err_var": 1.0},
            {"alpha": 1.0, "est_err_var": 0.0},
            {"beta0": -1.0},
            {"beta1": 2.0},
            {"beta0": 1.0, "beta1": 0.5},
        ],
    )
    def test_invariant_violations_exit_2(self, tmp_path, patch, capsys):
        payload = dict(BASE)
        payload.update(patch)
        if "beta0" in patch or "beta1" in patch:
            payload.setdefault("alpha", 0.95)
            payload.setdefault("est_err_var", 0.02)
        cfg = write_config(tmp_path, payload)
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "validation"

    def test_missing_config_file(self, tmp_path):
        assert run(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_override(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert run(["simulate", "--config", cfg, "--set", "oops"]) == 2

    @pytest.mark.parametrize("cross_validate", [False, True], ids=["run", "cross_validate"])
    def test_strategy_without_impairments_exits_2(self, tmp_path, cross_validate, capsys):
        # a perfect-feedback run would ignore beta1, and its manifest would record it
        argv = ["simulate", "--trials", "100", "--set", "beta1=0.5", "--out", str(tmp_path)]
        assert run(argv + (["--cross-validate"] if cross_validate else [])) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "validation"
        assert not list(tmp_path.iterdir())

    def test_impairments_without_beta_exit_2(self, tmp_path, capsys):
        argv = ["simulate", "--trials", "100", "--set", "est_err_var=0.01", "--set", "alpha=0.98"]
        assert run(argv + ["--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "validation"
        assert "needs beta0 or beta1" in err["error"]["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["min-m", "--users-grid", "5", "--set", "bogus=1"],
            ["analytic", "--users-grid", "5", "--set", "snr=20"],
            ["optimize", "--est-err-grid", "0", "--alpha-grid", "0.9", "--set", "Best_m=2"],
            ["simulate", "--trials", "100", "--set", "est_err=0.01"],
            ["figure", "3", "--set", "bogus=1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unknown_key_override_exits_2(self, tmp_path, argv, capsys):
        key = argv[-1].split("=")[0]
        assert run(argv + ["--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "validation"
        assert repr(key) in err["error"]["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["min-m", "--users-grid", "5", "--set", "est_err_var=0.01", "--set", "alpha=0.9",
              "--set", "beta1=0.5"], ["'alpha'", "'beta1'", "'est_err_var'"]),
            (["optimize", "--est-err-grid", "0.01", "--alpha-grid", "0.98",
              "--set", "est_err_var=0.05", "--set", "beta0=2"], ["'beta0'", "'est_err_var'"]),
            (["figure", "3", "--set", "snr_db=30"], ["'snr_db'"]),
            (["figure", "5", "--trials", "2", "--set", "best_m=2"], ["'best_m'"]),
            (["simulate", "--trials", "100", "--set", "num_taps=16"], ["'num_taps'"]),
            (["analytic", "--beta-grid", "0.1:0.9:0.4"], ["--beta-grid"]),
            (["analytic", "--users-grid", "5", "--beta0-scale", "5"], ["--beta0-scale"]),
            (["analytic", "--users-grid", "5", "--set", "est_err_var=0.01", "--set", "alpha=0.98"],
             ["--users-grid"]),
            (["analytic", "--beta-grid", "0.5", "--set", "est_err_var=0.01", "--set", "alpha=0.98",
              "--set", "beta1=0.5"], ["'beta1'"]),
        ],
        ids=["min-m", "optimize", "figure-3", "figure-5", "simulate", "analytic-beta-grid",
             "analytic-beta0-scale", "analytic-users-grid", "analytic-beta1"],
    )
    def test_unread_input_exits_2(self, tmp_path, argv, named, capsys):
        # a key or grid flag the command would drop is refused, so no run
        # and no manifest describes an input that did not run
        assert run(argv + ["--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "validation"
        assert all(name in err["error"]["message"] for name in named)
        assert not list(tmp_path.iterdir())

    def test_unread_key_in_config_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASE, alpha=0.9, est_err_var=0.01))
        out = tmp_path / "out"
        assert run(["min-m", "--config", cfg, "--users-grid", "4", "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "'alpha'" in err["error"]["message"] and "'est_err_var'" in err["error"]["message"]
        assert not out.exists()

    def test_unknown_key_in_config_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASE, snr=20.0))
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "validation" and "'snr'" in err["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "override",
        [
            'clusters=[{"eta": 1}]',
            "model=correlated",  # no num_subcarriers
            "clusters=3",
            "clusters=[1, 2]",
            "n_rbs=[8]",
            'snr_db={"x": 1}',
            "beta1=[0.5]",
            "trials=[10]",
        ],
    )
    def test_malformed_keys_exit_2(self, tmp_path, override, capsys):
        cfg = write_config(tmp_path, BASE)
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path), "--set", override]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "validation"


    @pytest.mark.parametrize(
        "command,overrides",
        [
            ("simulate", ["snr_db=inf"]),
            ("simulate", ["snr_db=1e400"]),
            ("simulate", ["snr_db=4000"]),  # 10^400 overflows a float
            ("analytic", ["snr_db=Infinity"]),
            ("simulate", ["est_err_var=0.01", "alpha=0.98", "beta0=NaN"]),
            ("simulate", ["est_err_var=0.01", "alpha=0.98", "beta0=Infinity"]),
            ("simulate", ["model=correlated", "num_subcarriers=64", "num_taps=4",
                          "pdp_decay=Infinity"]),
            ("simulate", ["best_m=2.7"]),
            ("simulate", ["best_m=true"]),
            ("simulate", ['clusters=[{"eta": 1, "users": 2.5}]']),
            ("simulate", ["trials=1e400"]),
            ("simulate", ["snr_db=false"]),
        ],
    )
    def test_non_finite_and_non_integral_values_exit_2(self, tmp_path, command, overrides, capsys):
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path, BASE), "--out", str(out)]
        for item in overrides:
            argv += ["--set", item]
        assert run(argv) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "validation"
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("n_rbs", [48, 96, 100, 200, 512])
    def test_correlated_n_rbs_not_dividing_subcarriers_exits_2(self, tmp_path, n_rbs, capsys):
        argv = ["simulate", "--config", write_config(tmp_path, BASE), "--out", str(tmp_path)]
        for item in ["model=correlated", "num_subcarriers=256", "num_taps=16", "pdp_decay=4.0",
                     f"n_rbs={n_rbs}", 'clusters=[{"eta": 4, "users": 3}]']:
            argv += ["--set", item]
        assert run(argv) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "validation"
        assert "n_rbs" in err["error"]["message"]
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["min-m", "--users-grid", "5.5"],
            ["analytic", "--users-grid", "5.5,7.9"],
            ["analytic", "--users-grid", "5,inf"],
            ["min-m", "--users-grid", "nan"],
        ],
    )
    def test_non_integral_users_grid_exits_2(self, tmp_path, argv, capsys):
        assert run(argv + ["--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "validation"
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("grid", ["5:50:1e-9", "1e20:2e20:1"])
    def test_endless_range_grid_exits_2_quickly(self, tmp_path, grid, capsys):
        # too many points, and a step that 1e20 + 1 == 1e20 does not advance:
        # both are refused before any point is built
        start = time.perf_counter()
        assert run(["min-m", "--users-grid", grid, "--out", str(tmp_path)]) == 2
        assert time.perf_counter() - start < 1.0
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "validation"
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("command", ["analytic", "min-m", "optimize"])
    def test_closed_form_commands_refuse_other_models(self, tmp_path, command, capsys):
        # they compute the subband model's closed forms whatever the config says
        argv = [command, "--config", write_config(tmp_path, BASE), "--out", str(tmp_path)]
        assert run(argv + ["--set", "model=correlated"]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "validation"
        assert "model" in err["error"]["message"]
        assert not list(tmp_path.rglob("*.csv"))

    def test_degenerate_impairment_cell_exits_2(self, tmp_path, capsys):
        # (0, 1) is perfect feedback, which the impairment model rejects
        argv = ["optimize", "--est-err-grid", "0,0.01", "--alpha-grid", "0.9,1"]
        assert run(argv + ["--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "validation"
        assert "degenerate impairments" in err["error"]["message"]
        assert not list(tmp_path.rglob("*.csv"))
        with pytest.raises(ValueError) as grid_err:
            cli._optimize_rows(cli.system_from_config(cli.DEFAULT_CONFIG), [0.0, 0.01], [0.9, 1.0])
        with pytest.raises(ValueError) as cell_err:
            ImpairmentParams(est_error_var=0.0, delay_corr=1.0)
        assert str(grid_err.value) == str(cell_err.value)

    def test_integral_float_counts(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path), "--set", "trials=2e3"]) == 0
        assert read_csv(tmp_path / "simulate.csv")[0]["trials"] == "2000"


class TestOutputFailures:
    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["min-m", "--users-grid", "5", "--gamma", "0.9", "--out", str(blocker / "x")]
        assert run(argv) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "validation"

    def test_os_error_in_handler_exits_5(self, tmp_path, monkeypatch, capsys):
        def broken(args, cfg, grids):
            raise FileNotFoundError("handler bug")

        monkeypatch.setitem(cli._HANDLERS, "min-m", broken)
        assert run(["min-m", "--out", str(tmp_path)]) == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "internal"
        assert not list(tmp_path.iterdir())


class TestInternalFailures:
    def test_key_error_in_handler_exits_5(self, tmp_path, monkeypatch, capsys):
        def broken(args, cfg, grids):
            return {}["missing"]

        monkeypatch.setitem(cli._HANDLERS, "simulate", broken)
        cfg = write_config(tmp_path, BASE)
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_INTERNAL == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "internal"

    def test_numerical_failure_in_pooled_chunk_exits_3(self, tmp_path, monkeypatch, capsys):
        raised_on = []

        def failing(*args):
            raised_on.append(threading.current_thread() is threading.main_thread())
            raise ConvergenceError("series did not converge")

        monkeypatch.setattr(mc, "_subband_blocks", failing)
        monkeypatch.setattr(mc, "_worker_count", lambda n_chunks: min(n_chunks, 2))
        cfg = write_config(tmp_path, dict(BASE, trials=3 * CHUNK_TRIALS))
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "numerical"
        assert raised_on and not any(raised_on)

    def test_overflowed_estimate_names_its_metric(self, tmp_path, capsys):
        # past the float range of snr x the goodput of the variable-rate
        # strategy is inf; its refusal says which metric overflowed
        argv = ["simulate", "--trials", "8", "--set", "snr_db=3080", "--set", "est_err_var=0.01",
                "--set", "alpha=0.98", "--set", "beta1=0.7", "--out", str(tmp_path)]
        assert run(argv) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "numerical"
        assert err["error"]["message"].startswith("goodput estimate ")


class TestAnalyticCommand:
    def test_full_feedback_rate_equals_order_statistics(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        code = run(
            [
                "analytic",
                "--config",
                cfg,
                "--out",
                str(tmp_path),
                "--users-grid",
                "4,8",
                "--full-feedback",
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "analytic.csv")
        snr = 10.0
        for row in rows:
            k = int(row["users"])
            assert float(row["sum_rate"]) == pytest.approx(analytic.i1(snr, k), rel=1e-10)

    def test_full_feedback_rates_print_the_oracle_digits(self, tmp_path):
        # the orders 16 to 20 where a float mixture sum lost the 10th to 12th digit
        argv = ["analytic", "--full-feedback", "--users-grid", "16:20:1", "--out", str(tmp_path)]
        assert run(argv) == 0
        rows = read_csv(tmp_path / "analytic.csv")
        assert [int(r["users"]) for r in rows] == list(range(16, 21))
        for row in rows:
            assert row["sum_rate"] == format(i1_mp(10.0, int(row["users"])), ".12g")

    def test_beta_sweep_with_impairments(self, tmp_path):
        payload = dict(BASE, best_m=4, alpha=0.95, est_err_var=0.02)
        cfg = write_config(tmp_path, payload)
        code = run(
            ["analytic", "--config", cfg, "--out", str(tmp_path), "--beta-grid", "0.2,0.6"]
        )
        assert code == 0
        rows = read_csv(tmp_path / "analytic.csv")
        assert {r["strategy"] for r in rows} == {"fixed", "variable"}
        assert len(rows) == 4

    def test_manifest_records_no_seed(self, tmp_path):
        # a closed form uses no random draws: neither the seed nor the trial
        # count changes what it computes
        cfg = write_config(tmp_path, BASE)
        argv = ["analytic", "--config", cfg, "--out", str(tmp_path), "--users-grid", "4"]
        assert run(argv + ["--seed", "9", "--trials", "50"]) == 0
        manifest = json.loads((tmp_path / "analytic.manifest.json").read_text())
        assert manifest["seed"] is None
        expected = {k: v for k, v in BASE.items() if k not in ("seed", "trials")}
        assert manifest["config"] == expected

    @pytest.mark.parametrize("flag, best_m", [([], 2), (["--full-feedback"], 4)])
    def test_manifest_records_the_best_m_that_ran(self, tmp_path, flag, best_m):
        cfg = write_config(tmp_path, BASE)  # m_full = 8 RBs / subband size 2
        argv = ["analytic", "--config", cfg, "--out", str(tmp_path), "--users-grid", "4,6"]
        assert run(argv + flag) == 0
        manifest = json.loads((tmp_path / "analytic.manifest.json").read_text())
        ran = {int(row["best_m"]) for row in read_csv(tmp_path / "analytic.csv")}
        assert ran == {manifest["config"]["best_m"]} == {best_m}


    def test_near_perfect_outages_are_nonnegative(self, tmp_path):
        # near-perfect feedback on a large partial-feedback system, where an
        # outage taken as coverage minus success came out at -1.6e-12
        argv = ["analytic", "--out", str(tmp_path), "--beta-grid", "0.1,0.16,0.3",
                "--set", "n_rbs=1024", "--set", 'clusters=[{"eta":2,"users":27}]',
                "--set", "best_m=312", "--set", "snr_db=15.997",
                "--set", "est_err_var=1e-9", "--set", "alpha=1.0"]
        assert run(argv) == 0
        rows = read_csv(tmp_path / "analytic.csv")
        assert len(rows) == 6
        assert all(0.0 <= float(row["outage"]) <= 1.0 for row in rows)

    def test_near_perfect_outage_cell_matches_oracle(self, tmp_path):
        # the variable-rate outage at beta 0.1 is about 1.2e-46: the quadrature
        # holds it to its own value, as it does an outage of order 1.  On the
        # default 64-RB system the per-feedback-set sum cancels beyond any
        # working precision, so the reference integrates over the estimate.
        argv = ["analytic", "--beta-grid", "0.1:0.9:0.1", "--set", "est_err_var=0.00001",
                "--set", "alpha=0.99999", "--out", str(tmp_path)]
        assert run(argv) == 0
        (row,) = [r for r in read_csv(tmp_path / "analytic.csv")
                  if r["beta"] == "0.1" and r["strategy"] == "variable"]
        system = cli.system_from_config(cli.DEFAULT_CONFIG)
        imp = ImpairmentParams(1e-5, 0.99999)
        ref = variable_outage_over_estimate(system, imp, 0.1, 40)
        assert abs(ref - variable_outage_over_estimate(system, imp, 0.1, 20)) <= 1e-12 * ref
        assert abs(float(row["outage"]) - ref) <= 1e-9 * ref


class TestMinMCommand:
    def test_columns_and_bound(self, tmp_path):
        cfg = write_config(tmp_path, dict(BASE, n_rbs=64, best_m=1))
        code = run(
            [
                "min-m",
                "--config",
                cfg,
                "--out",
                str(tmp_path),
                "--users-grid",
                "6,10",
                "--gamma",
                "0.9",
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "min_m.csv")
        assert list(rows[0]) == ["users", "gamma", "m_exact", "m_approx"]
        for row in rows:
            assert abs(int(row["m_exact"]) - int(row["m_approx"])) <= 1


class TestOptimizeCommand:
    def test_grid(self, tmp_path):
        cfg = write_config(tmp_path, dict(BASE, best_m=4))
        code = run(
            [
                "optimize",
                "--config",
                cfg,
                "--out",
                str(tmp_path),
                "--est-err-grid",
                "0.01",
                "--alpha-grid",
                "0.95",
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "optimize.csv")
        assert len(rows) == 1
        assert 0.0 < float(rows[0]["beta1_opt"]) <= 1.0
        assert float(rows[0]["beta0_opt"]) > 0.0


class TestFigureCommand:
    def test_figure_4b_partition_uniformity(self, tmp_path):
        code = run(["figure", "4b", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "figure_4b.csv")
        by_k = {}
        for row in rows:
            by_k.setdefault(row["users"], set()).add(row["m_exact"])
        assert all(len(v) == 1 for v in by_k.values())

    def test_figure_5_small_trials_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            code = run(["figure", "5", "--out", str(tmp_path / sub), "--trials", "400", "--seed", "1"])
            assert code == 0
        a = (tmp_path / "a" / "figure_5.csv").read_bytes()
        assert a == (tmp_path / "b" / "figure_5.csv").read_bytes()

    def test_json_format(self, tmp_path):
        code = run(["figure", "4b", "--out", str(tmp_path), "--format", "json"])
        assert code == 0
        payload = json.loads((tmp_path / "figure_4b.json").read_text())
        assert payload["columns"] == ["users", "k1_fraction", "m_exact"]

    @pytest.mark.parametrize("trials", ["0", "1", "-5"])
    def test_too_few_trials_exit_2(self, tmp_path, trials, capsys):
        assert run(["figure", "1", "--trials", trials, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        message = "at least two trials are required"
        assert err["error"] == {"type": "validation", "message": message}

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["1", "--trials", "600", "--seed", "7"], {"figure": "1", "seed": 7, "trials": 600}),
            (["5", "--trials", "400"], {"figure": "5", "seed": 12345, "trials": 400}),
            (["4b", "--seed", "1234"], None),
            (["4b", "--set", "seed=3", "--set", "trials=5"], None),
            (["1", "--set", "trials=600", "--seed", "7"], {"figure": "1", "seed": 7, "trials": 600}),
        ],
    )
    def test_manifest_records_what_ran(self, tmp_path, argv, config):
        assert run(["figure", *argv, "--out", str(tmp_path)]) == 0
        (manifest,) = tmp_path.glob("*.manifest.json")
        manifest = json.loads(manifest.read_text())
        assert manifest["config"] == config
        # the top-level seed is the seed of what ran: none for a closed-form figure
        assert manifest["seed"] == (config["seed"] if config else None)


# The column contract: each command form's CSV header, which the manifest echoes.
SMALL = ["--set", "n_rbs=8", "--set", 'clusters=[{"eta": 1, "users": 2}, {"eta": 2, "users": 2}]']
IMPAIRED = SMALL + ["--set", "best_m=4", "--set", "est_err_var=0.02", "--set", "alpha=0.95"]


@pytest.mark.parametrize(
    "argv, columns",
    [
        pytest.param(
            ["simulate", "--trials", "1500"] + SMALL,
            ["metric", "value", "std_error", "trials"],
            id="simulate-perfect",
        ),
        pytest.param(
            ["simulate", "--trials", "1500", "--set", "beta1=0.8"] + IMPAIRED,
            ["metric", "value", "std_error", "trials"],
            id="simulate-imperfect",
        ),
        pytest.param(
            ["simulate", "--trials", "4000", "--cross-validate"] + SMALL,
            ["metric", "empirical", "std_error", "analytic", "z"],
            id="simulate-cross-validate",
        ),
        pytest.param(
            ["analytic", "--users-grid", "4,8"] + SMALL,
            ["users", "best_m", "sum_rate"],
            id="analytic-users",
        ),
        pytest.param(
            ["analytic", "--beta-grid", "0.2,0.6"] + IMPAIRED,
            ["beta", "strategy", "goodput", "outage"],
            id="analytic-beta",
        ),
        pytest.param(
            ["min-m", "--users-grid", "6", "--gamma", "0.9"],
            ["users", "gamma", "m_exact", "m_approx"],
            id="min-m",
        ),
        pytest.param(
            ["optimize", "--est-err-grid", "0.01", "--alpha-grid", "0.95", "--set", "best_m=4"]
            + SMALL,
            ["est_err_var", "alpha", "beta0_opt", "r0_opt", "beta1_opt", "r1_approx_opt", "m_star"],
            id="optimize",
        ),
        pytest.param(
            ["figure", "1", "--trials", "600"],
            ["users", "eta", "best_m", "sum_rate", "std_error", "trials"],
            id="figure-1",
        ),
        pytest.param(
            ["figure", "3"], ["snr_db", "beta1", "best_m", "method", "goodput"], id="figure-3"
        ),
        pytest.param(["figure", "4a"], ["users", "gamma", "m_exact", "m_approx"], id="figure-4a"),
        pytest.param(["figure", "4b"], ["users", "k1_fraction", "m_exact"], id="figure-4b"),
        pytest.param(
            ["figure", "5", "--trials", "600"],
            ["users", "best_m", "strategy", "sum_rate", "std_error"],
            id="figure-5",
        ),
        pytest.param(
            ["figure", "6"], ["users", "beta", "strategy", "goodput", "outage"], id="figure-6"
        ),
        pytest.param(
            ["figure", "8"],
            ["users", "strategy", "beta_opt", "m_star", "goodput", "outage"],
            id="figure-8",
        ),
    ],
)
def test_column_contract(tmp_path, argv, columns):
    assert run(argv + ["--out", str(tmp_path)]) == 0
    (data,) = tmp_path.glob("*.csv")
    with open(data, newline="") as fh:
        header = next(csv.reader(fh))
    (manifest,) = tmp_path.glob("*.manifest.json")
    assert header == columns == json.loads(manifest.read_text())["columns"]


@pytest.mark.parametrize(
    "module, unloaded",
    [
        # mpmath is a test-only dependency: the library must run without it
        ("hetfb.cli", {"mpmath"}),
        # the Monte Carlo engine imports numpy and channel, never the closed forms
        ("hetfb.montecarlo",
         {"scipy", "hetfb.analytic", "hetfb.goodput", "hetfb.specfun", "hetfb._quad"}),
    ],
    ids=["cli", "montecarlo"],
)
def test_cli_import_leaves_mpmath_unloaded(module, unloaded):
    src = str(Path(analytic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = f"import sys, {module}; sys.exit(bool({unloaded!r} & set(sys.modules)))"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# Every export of the package and the module that defines it.
PACKAGE_EXPORTS = {
    "CHUNK_TRIALS": "montecarlo", "Cluster": "channel", "ConvergenceError": "specfun",
    "CorrelatedChannelConfig": "channel", "CrossValidationReport": "crossval",
    "EstimateWithError": "montecarlo", "ExperimentSpec": "montecarlo",
    "ImpairmentParams": "channel", "ImperfectResult": "montecarlo", "MinimumBestM": "analytic",
    "QuadratureError": "_quad", "ReportedCqiLaw": "analytic", "ScheduledCqiMixture": "analytic",
    "StrategyParams": "channel", "SystemConfig": "channel", "analytic": None,
    "average_sum_rate": "analytic", "channel": None, "cluster_feedback_quota": "channel",
    "coverage_prob": "analytic", "cross_validate": "crossval",
    "exp_integral_e1_scaled": "specfun", "fixed_rate_metrics": "goodput",
    "gauss_2f1": "specfun", "goodput": None, "i1": "analytic", "i2": "goodput",
    "i3_jensen": "goodput", "i3_quadrature": "goodput", "i3_upper_bound": "goodput",
    "i4": "goodput", "jensen_mean": "goodput", "marcum_q1": "specfun",
    "minimum_best_m": "analytic", "montecarlo": None, "optimize_beta0": "goodput",
    "optimize_beta1": "goodput", "pdp_exponential": "channel", "run_imperfect": "montecarlo",
    "run_imperfect_grid": "montecarlo", "run_perfect": "montecarlo",
    "run_strategy_comparison": "montecarlo", "specfun": None,
    "variable_rate_metrics": "goodput",
}


def test_package_exports_resolve_to_their_defining_modules():
    import hetfb

    assert sorted(hetfb.__all__) == sorted(PACKAGE_EXPORTS)
    for name, module in PACKAGE_EXPORTS.items():
        # a submodule export is the submodule itself
        owner = importlib.import_module(f"hetfb.{module or name}")
        assert getattr(hetfb, name) is (owner if module is None else getattr(owner, name))
    namespace = {}
    exec("from hetfb import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PACKAGE_EXPORTS)


def test_per_draw_pipeline_is_test_only():
    # the per-draw chain lives in tests/perdraw.py as the kernel's oracle
    import hetfb

    moved = {
        "ChannelRealization", "gen_correlated_channel", "gen_subband_fading",
        "apply_impairments", "FeedbackReport", "best_m_select", "cqi_subband_avg_rate",
        "subband_reports", "ScheduleDecision", "TransmissionOutcome", "schedule",
        "realize_fixed_rate", "realize_variable_rate", "feedback", "scheduler",
    }
    assert not moved & set(hetfb.__all__)
    src = str(Path(analytic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, hetfb.cli; "
        "sys.exit(bool({'hetfb.feedback', 'hetfb.scheduler'} & set(sys.modules)))"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_python_m_runs_the_command(tmp_path):
    src = str(Path(analytic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "hetfb", "figure", "4a", "--out", str(tmp_path)]
    assert subprocess.run(argv, env=env).returncode == 0
    assert len(read_csv(tmp_path / "figure_4a.csv")) == 2 * 46
    usage = subprocess.run(
        [sys.executable, "-m", "hetfb.cli", "--help"], env=env, capture_output=True, text=True
    )
    assert usage.returncode == 0 and usage.stdout.startswith("usage: hetfb")


def test_near_perfect_optimize_runs_with_warnings_as_errors(tmp_path):
    # alpha_w^2 = 2e307 at (1e-307, 1): the fixed-rate closed form must not
    # overflow on the optimizer's thresholds
    src = str(Path(analytic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-W", "error", "-m", "hetfb", "optimize", "--est-err-grid", "1e-307",
            "--alpha-grid", "1", "--out", str(tmp_path)]
    assert subprocess.run(argv, env=env).returncode == 0
    (row,) = read_csv(tmp_path / "optimize.csv")
    assert all(math.isfinite(float(value)) for value in row.values())


def test_snr_edge_exits_3_with_warnings_as_errors(tmp_path):
    # log2(1 + snr x_max) is past the float range at 3080 dB: a refused
    # quadrature limit, not an overflow warning that would exit 5
    src = str(Path(analytic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-W", "error", "-m", "hetfb", "analytic", "--set", "snr_db=3080",
            "--users-grid", "5", "--out", str(tmp_path)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 3
    assert json.loads(done.stderr.strip().splitlines()[-1])["error"]["type"] == "numerical"
    assert not list(tmp_path.iterdir())


def test_successive_runs_do_not_share_overrides(tmp_path):
    # the parser is built once per process; its "--set" list must still start
    # empty on every run
    assert cli._build_parser() is cli._build_parser()
    configs = []
    for i, override in enumerate(["snr_db=20", "best_m=2"]):
        out = tmp_path / str(i)
        argv = ["min-m", "--users-grid", "4", "--set", override, "--out", str(out)]
        assert run(argv + SMALL) == 0
        configs.append(json.loads((out / "min_m.manifest.json").read_text())["config"])
    # min-m sets best-M itself: it records best_m only when it is given
    assert (configs[0]["snr_db"], "best_m" in configs[0]) == (20, False)
    assert (configs[1]["snr_db"], configs[1]["best_m"]) == (10.0, 2)


# A system whose full feedback, 2, lies below the default best_m of 4.
NARROW = ["--set", "n_rbs=4", "--set", 'clusters=[{"eta": 2, "users": 2}]']


@pytest.mark.parametrize(
    "argv, best_m",
    [
        (["min-m", "--users-grid", "4"], None),
        (["optimize", "--est-err-grid", "0.01", "--alpha-grid", "0.98"], None),
        (["analytic", "--full-feedback", "--users-grid", "4"], 2),
    ],
    ids=["min-m", "optimize", "analytic-full-feedback"],
)
def test_commands_that_set_best_m_ignore_its_default(tmp_path, argv, best_m):
    # each scans or sets best-M itself, so the default best_m is neither
    # checked nor recorded; the manifest holds the best_m that ran, if any
    assert run(argv + NARROW + ["--out", str(tmp_path / "a")]) == 0
    (manifest,) = (tmp_path / "a").glob("*.manifest.json")
    assert json.loads(manifest.read_text())["config"].get("best_m") == best_m
    # a best_m that is given is still checked
    assert run(argv + NARROW + ["--set", "best_m=3", "--out", str(tmp_path / "b")]) == 2


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["analytic"], {"users_grid": list(range(5, 51, 5))}),
        (["analytic", "--beta-grid", "0.2:0.6:0.4", "--set", "best_m=4", "--set", "alpha=0.95",
          "--set", "est_err_var=0.02"], {"beta_grid": [0.2, 0.6], "beta0_scale": 10.0}),
        (["min-m", "--users-grid", "4:6:2"], {"users_grid": [4, 6], "gamma": [0.9, 0.99]}),
        (["optimize", "--est-err-grid", "0.01", "--alpha-grid", "0.95,0.98", "--gamma", "0.9"],
         {"est_err_grid": [0.01], "alpha_grid": [0.95, 0.98], "gamma": 0.9}),
    ],
    ids=["analytic-users", "analytic-beta", "min-m", "optimize"],
)
def test_manifest_records_the_grid_flags(tmp_path, argv, flags):
    # the parsed values that ran, defaults resolved
    assert run(argv + SMALL + ["--out", str(tmp_path)]) == 0
    (manifest,) = tmp_path.glob("*.manifest.json")
    assert json.loads(manifest.read_text())["flags"] == flags


# Configs that between them select every run mode: the defaults, impairments, the correlated model.
MODE_SETTINGS = [
    [],
    ["est_err_var=0.01", "alpha=0.98"],
    ["model=correlated", "num_subcarriers=64", "num_taps=4", "pdp_decay=2.0"],
]
# The options every subcommand shares; the other valued options are grid flags.
COMMON_DESTS = {"help", "config", "overrides", "out", "trials", "seed", "format"}


def test_mode_table_matches_the_parser(tmp_path, capsys):
    # every grid flag a subparser defines is read by one of the subcommand's
    # modes and refused by the others, so no flag can be added that no run reads
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, subparser in subparsers.choices.items():
        leads = ([[command, name] for name in sorted(cli._FIGURES)] if command == "figure"
                 else [[command]])
        modes = {}
        for lead in leads:
            for settings in MODE_SETTINGS:
                overrides = [part for item in settings for part in ("--set", item)]
                args = parser.parse_args(lead + overrides)
                label, keys, flags = cli._mode(args, load_config(None, settings))
                assert keys <= cli._CONFIG_KEYS
                if {item.split("=")[0] for item in settings} <= keys:
                    modes.setdefault(label, (lead + overrides, flags))
        grid_flags = [a for a in subparser._actions
                      if a.option_strings and a.nargs != 0 and a.dest not in COMMON_DESTS]
        for action in grid_flags:
            flag = action.option_strings[0]
            readers = [flags[action.dest] for _, flags in modes.values() if flags.get(action.dest)]
            assert readers, f"no mode of {command} reads {flag}"
            _, default = readers[0]
            for label, (argv, flags) in modes.items():
                if flags.get(action.dest):
                    continue
                out = tmp_path / label.replace(" ", "_")
                assert run(argv + [flag, str(default), "--out", str(out)]) == 2, label
                err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
                assert err["error"]["type"] == "validation"
                assert flag in err["error"]["message"]
                assert not out.exists()
