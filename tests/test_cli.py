"""Command line surface: subprocess round trips, exit codes, determinism.

Oracles
-------
* two-state tables carry their closed forms in-band, so the subprocess
  checks reduce to reading the abs_err column; independently, d12 at
  ωt = π/2 must be cos(π/2) - 1 = -1 and the ωt = 2π revival must put
  it back to 0.
* the survival column is checked against cos²ⁿ(ωt/n) and against the
  interruption bound n·(1 - survival) ≤ (ωt)² for n ≥ 100.
* every consistency row must satisfy the sum rule
  p_same + p_cross + 2·Re d12 = 1 regardless of parameters.
* byte-level determinism: one resolved configuration renders to one
  file, across repeated runs, across --parallel, and across feeding the
  emitted metadata lines back in as a config file.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from zenopath.cli import (
    NEUMANN,
    SCHEMAS,
    ConfigError,
    ResultTable,
    RunConfig,
    _format_value,
    _parse_value,
    read_config_file,
)

from conftest import child_env


def run_cli(*args, env_extra=None, cwd=None):
    return subprocess.run([sys.executable, "-m", "zenopath", *args],
                          capture_output=True, text=True,
                          env=child_env(env_extra), cwd=cwd)


def read_table(path):
    """Parse a CSV output file into (metadata, columns, string rows)."""
    meta, columns, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            meta[key] = val
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


def column(columns, rows, name, cast=float):
    k = columns.index(name)
    return [cast(r[k]) for r in rows]


def by_name(columns, rows):
    k = columns.index("name")
    return {r[k]: r for r in rows}


# ---------------------------------------------------------------------------
# configuration plumbing, in process


class TestValueParsing:
    def test_scalar_kinds(self):
        assert _parse_value("float", " 2.5 ") == 2.5
        assert _parse_value("int", "42") == 42
        assert _parse_value("beta", "neumann") is NEUMANN
        assert _parse_value("beta", "0.7") == 0.7
        assert _parse_value("int_list", "1,2,10") == [1, 2, 10]
        assert _parse_value("float_or_auto", "auto") is None
        assert _parse_value("float_or_auto", "5.0") == 5.0
        assert _parse_value("choice:csv|json", "json") == "json"

    @pytest.mark.parametrize("kind,text", [
        ("float", "abc"),
        ("int", "2.5"),
        ("int_list", ","),
        ("choice:a|b", "c"),
        ("beta", "wall"),
    ])
    def test_bad_values_raise(self, kind, text):
        with pytest.raises(ConfigError):
            _parse_value(kind, text)

    def test_format_parse_round_trip_all_defaults(self):
        # every default must survive format -> parse unchanged, since the
        # metadata block doubles as a config file
        for schema in SCHEMAS.values():
            for key, par in schema.items():
                text = _format_value(par.kind, par.default)
                assert _parse_value(par.kind, text) == par.default, key


class TestRunConfig:
    def test_defaults_merged(self):
        cfg = RunConfig("twostate", {"t": 2.0})
        assert cfg.params["t"] == 2.0
        assert cfg.params["n_quad"] == 201
        assert cfg.params["omega"] == 1.0

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="unknown command"):
            RunConfig("teleport", {})

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            RunConfig("twostate", {"bogus": 1.0})

    def test_unknown_format(self):
        with pytest.raises(ConfigError, match="format"):
            RunConfig("twostate", {}, fmt="xml")

    def test_ladder_default_follows_system(self):
        assert RunConfig("pdx-verify", {}).params["ladder"] == [51, 101, 201]
        line = RunConfig("pdx-verify", {"system": "line"})
        assert line.params["ladder"] == [100, 200, 400]
        assert line.metadata()["ladder"] == "100,200,400"
        given = RunConfig("pdx-verify", {"system": "line", "ladder": [60, 120]})
        assert given.params["ladder"] == [60, 120]

    def test_metadata_order_and_strings(self):
        meta = RunConfig("zeno-converge", {}, seed=3).metadata()
        assert list(meta) == ["version", "command", "omega", "t", "n_list",
                              "seed"]
        assert meta["command"] == "zeno-converge"
        assert meta["seed"] == "3"
        assert all(isinstance(v, str) for v in meta.values())


class TestReadConfigFile:
    def test_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\n\nomega = 2.0\nt=1.0  \n")
        assert read_config_file(str(cfg)) == {"omega": "2.0", "t": "1.0"}

    def test_missing_equals(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega 2.0\n")
        with pytest.raises(ConfigError, match=r":1: expected key=value"):
            read_config_file(str(cfg))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            read_config_file(str(tmp_path / "absent.cfg"))


class TestResultTable:
    META = {"version": "0.0", "command": "demo"}

    def test_row_width_checked(self):
        with pytest.raises(ValueError, match="width"):
            ResultTable(("a", "b"), ((1.0,),), dict(self.META))

    def test_metadata_required(self):
        with pytest.raises(ValueError, match="metadata"):
            ResultTable(("a",), ((1.0,),), {"version": "0.0"})

    def test_csv_rendering(self):
        table = ResultTable(("n", "flag", "x"), ((2, True, 0.5),),
                            dict(self.META))
        assert table.render("csv") == (
            "# version=0.0\n# command=demo\n"
            "n,flag,x\n"
            "2,1,5.00000000000e-01\n")

    def test_json_mirrors_rows(self):
        table = ResultTable(("n", "flag", "x"), ((2, False, 0.5),),
                            dict(self.META))
        doc = json.loads(table.render("json"))
        assert doc["columns"] == ["n", "flag", "x"]
        assert doc["rows"] == [[2, 0, 0.5]]
        assert doc["metadata"] == self.META


# ---------------------------------------------------------------------------
# commands, end to end


@pytest.fixture(scope="module")
def twostate_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("twostate") / "twostate.csv"
    proc = run_cli("twostate", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return read_table(out)


@pytest.fixture(scope="module")
def zeno_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("zeno") / "zeno.csv"
    proc = run_cli("zeno-converge", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return read_table(out)


@pytest.fixture(scope="module")
def arrival_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("arrival") / "arrival.csv"
    proc = run_cli("arrival", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return read_table(out)


class TestTwostateCommand:
    def test_shape(self, twostate_run):
        meta, columns, rows = twostate_run
        assert columns == ["name", "value_re", "value_im", "closed_re",
                           "closed_im", "abs_err"]
        assert len(rows) == 26  # 5 matrices of 4 entries + 6 scalars
        assert meta["command"] == "twostate"
        assert meta["t"] == repr(math.pi / 2)

    def test_in_band_errors_small(self, twostate_run):
        _, columns, rows = twostate_run
        errs = dict(zip(column(columns, rows, "name", str),
                        column(columns, rows, "abs_err")))
        # the finite-n restricted propagator and the split residual sit at
        # the 1/n_zeno floor; everything else is at quadrature accuracy
        for name, err in errs.items():
            assert err <= 5e-5, name
        for name in ("u00", "u01", "u10", "u11", "d11", "d22", "d12"):
            assert errs[name] <= 1e-9, name

    def test_d12_closed_form_at_quarter_period(self, twostate_run):
        _, columns, rows = twostate_run
        row = by_name(columns, rows)["d12"]
        assert abs(float(row[1]) - (-1.0)) <= 1e-9
        assert abs(float(row[2])) <= 1e-9

    def test_revival_at_full_period(self, tmp_path):
        out = tmp_path / "revival.csv"
        proc = run_cli("twostate", "--t", repr(2 * math.pi), "--n-zeno",
                       "20000", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        _, columns, rows = read_table(out)
        named = by_name(columns, rows)
        assert abs(float(named["d12"][1])) <= 1e-9
        assert abs(float(named["p_same"][1]) - 1.0) <= 1e-9

    def test_frozen_instant(self, tmp_path):
        # at t = 0 every piece collapses to a projector and the errors
        # drop to the extrapolation floor
        out = tmp_path / "zero.csv"
        proc = run_cli("twostate", "--t", "0", "--n-zeno", "20000",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        _, columns, rows = read_table(out)
        assert max(column(columns, rows, "abs_err")) <= 1e-8


class TestZenoConvergeCommand:
    def test_ladder_against_closed_form(self, zeno_run):
        meta, columns, rows = zeno_run
        ns = column(columns, rows, "n", int)
        surv = column(columns, rows, "survival")
        assert ns == [1, 2, 10, 100, 1000, 10000]
        assert max(column(columns, rows, "closed_gap")) <= 1e-9
        # cos²(π/2) = 0, cos⁴(π/4) = 1/4, then monotone toward freezing
        assert surv[0] <= 1e-12
        assert abs(surv[1] - 0.25) <= 1e-12
        assert all(a < b for a, b in zip(surv, surv[1:]))
        assert surv[-1] >= 0.9997

    def test_interruption_bound(self, zeno_run):
        _, columns, rows = zeno_run
        t = math.pi / 2
        for n, dev in zip(column(columns, rows, "n", int),
                          column(columns, rows, "deviation")):
            if n >= 100:
                assert dev <= t * t / n
        scaled = column(columns, rows, "deviation_scaled")[-1]
        assert abs(scaled - t * t) <= 1e-2


class TestPdxVerifyCommand:
    def test_twostate_order(self, tmp_path):
        out = tmp_path / "pdx.csv"
        proc = run_cli("pdx-verify", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        meta, columns, rows = read_table(out)
        res = column(columns, rows, "residual")
        assert all(a > b for a, b in zip(res, res[1:]))
        assert all(column(columns, rows, "decreased", int))
        assert meta["monotone"] == "1"
        assert float(meta["fitted_order"]) >= 3.5

    def test_line_ladder(self, tmp_path):
        out = tmp_path / "line.csv"
        proc = run_cli("pdx-verify", "--system", "line", "--ladder",
                       "60,120", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        meta, columns, rows = read_table(out)
        res = column(columns, rows, "residual")
        assert res[1] < res[0] < 5e-2
        assert meta["system"] == "line"
        assert meta["monotone"] == "1"

    def test_line_without_wall_contact(self, tmp_path):
        # a packet that never reaches the cut splits exactly at any
        # quadrature resolution, so one ladder level suffices
        out = tmp_path / "free.csv"
        proc = run_cli("pdx-verify", "--system", "line", "--ladder", "80",
                       "--x0", "20", "--p0", "0.5", "--sigma", "1.5",
                       "--t", "0.5", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        meta, columns, rows = read_table(out)
        assert column(columns, rows, "residual")[0] <= 1e-6
        assert meta["fitted_order"] == "nan"

    def test_line_ladder_checked_before_any_rung(self, tmp_path, monkeypatch):
        from zenopath import cli, halfline

        calls = []
        evolve = halfline.spectral_evolve_line
        monkeypatch.setattr(halfline, "spectral_evolve_line",
                            lambda *a, **kw: calls.append(1) or evolve(*a, **kw))
        out = tmp_path / "x.csv"
        assert cli.main(["pdx-verify", "--system", "line", "--ladder",
                         "100,101", "--out", str(out)]) == 3
        assert calls == [] and not out.exists()

    def test_bad_system_choice(self, tmp_path):
        proc = run_cli("pdx-verify", "--system", "ring", "--out",
                       str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert "config error" in proc.stderr


class TestHistoriesCommand:
    def test_generic_packet_loses_consistency(self, tmp_path):
        out = tmp_path / "gen.csv"
        proc = run_cli("histories", "--n-t", "4", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        _, columns, rows = read_table(out)
        assert len(rows) == 4
        flags = column(columns, rows, "consistent", int)
        assert 0 in flags
        for p1, p2, re12 in zip(column(columns, rows, "p_same"),
                                column(columns, rows, "p_cross"),
                                column(columns, rows, "re_d12")):
            assert abs(p1 + p2 + 2 * re12 - 1.0) <= 1e-9
        assert not any(column(columns, rows, "grid_warning", int))

    def test_odd_sector_stays_consistent(self, tmp_path):
        out = tmp_path / "odd.csv"
        proc = run_cli("histories", "--parity", "odd", "--x0", "5",
                       "--n-t", "3", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        _, columns, rows = read_table(out)
        assert all(column(columns, rows, "consistent", int))
        assert max(abs(v) for v in column(columns, rows, "re_d12")) <= 1e-8
        assert min(column(columns, rows, "p_same")) >= 1.0 - 1e-6
        assert max(column(columns, rows, "r_plus")) <= 1e-10
        assert max(column(columns, rows, "directsum_distance")) <= 1e-8

    def test_even_sector_with_neumann_wall(self, tmp_path):
        out = tmp_path / "even.csv"
        proc = run_cli("histories", "--parity", "even", "--beta", "neumann",
                       "--x0", "5", "--n-t", "3", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        meta, columns, rows = read_table(out)
        assert meta["beta"] == "neumann"
        assert all(column(columns, rows, "consistent", int))
        assert max(abs(v) for v in column(columns, rows, "re_d12")) <= 1e-8
        assert max(column(columns, rows, "directsum_distance")) <= 1e-4

    def test_grid_too_small(self, tmp_path):
        proc = run_cli("histories", "--n-grid", "6", "--out",
                       str(tmp_path / "x.csv"))
        assert proc.returncode == 3
        assert "numeric precondition" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("histories", "--t-max", "nan"),
        ("pdx-verify", "--system", "line", "--t", "nan"),
    ], ids=["histories", "pdx-verify-line"])
    def test_non_finite_duration(self, tmp_path, argv):
        out = tmp_path / "x.csv"
        proc = run_cli(*argv, "--out", str(out))
        assert proc.returncode == 3
        assert "t must be" in proc.stderr
        assert not out.exists()

    def test_sweep_past_the_horizon_refused(self, tmp_path):
        # the default packet's reflection-safe horizon is 6.42
        out = tmp_path / "x.csv"
        proc = run_cli("histories", "--t-max", "7", "--out", str(out))
        assert proc.returncode == 3
        assert "reflection-safe horizon 6.419" in proc.stderr
        assert "t = 7" in proc.stderr
        assert not out.exists()


class TestArrivalCommand:
    def test_summary_metadata(self, arrival_run):
        meta, columns, rows = arrival_run
        assert columns == ["t", "density", "right_part", "left_part",
                           "current"]
        assert 4.8 <= float(meta["mean_arrival"]) <= 5.2
        assert float(meta["captured_mass"]) >= 0.999
        assert float(meta["flux_l1"]) <= 0.05
        assert 1.0 <= float(meta["variance_arrival"]) <= 3.0

    def test_rows_nonnegative_and_split(self, arrival_run):
        _, columns, rows = arrival_run
        dens = np.array(column(columns, rows, "density"))
        right = np.array(column(columns, rows, "right_part"))
        left = np.array(column(columns, rows, "left_part"))
        assert dens.min() >= 0.0
        # the split survives the 12-significant-digit CSV format
        assert np.max(np.abs(dens - right - left)) <= 1e-10 * dens.max()

    def test_smeared_column(self, tmp_path):
        out = tmp_path / "smear.csv"
        proc = run_cli("arrival", "--smear-tau", "0.3", "--half-width", "6",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        _, columns, rows = read_table(out)
        assert columns[-1] == "density_smeared"
        dens = np.array(column(columns, rows, "density"))
        smear = np.array(column(columns, rows, "density_smeared"))
        dt = float(rows[1][0]) - float(rows[0][0])
        assert abs(np.trapezoid(smear, dx=dt)
                   - np.trapezoid(dens, dx=dt)) <= 1e-3

    def test_explicit_center(self, tmp_path):
        out = tmp_path / "center.csv"
        proc = run_cli("arrival", "--t-center", "5.0", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        t = column(*read_table(out)[1:3], "t")
        assert t[0] <= 5.0 <= t[-1]

    def test_slow_tail_becomes_advisory(self, tmp_path):
        proc = run_cli("arrival", "--p0", "1.0", "--x0", "-20",
                       "--sigma-p", "0.35", "--p-max", "10",
                       "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 4
        assert "convergence advisory" in proc.stderr

    def test_negative_width_rejected(self, tmp_path):
        proc = run_cli("arrival", "--sigma-p", "-1", "--out",
                       str(tmp_path / "x.csv"))
        assert proc.returncode == 3
        assert "numeric precondition" in proc.stderr

    @pytest.mark.parametrize("flag,value", [
        ("--dt", "0"), ("--dt", "nan"), ("--half-width", "nan"),
        ("--half-width", "0"),
    ])
    def test_bad_window_rejected(self, tmp_path, flag, value):
        proc = run_cli("arrival", flag, value, "--out",
                       str(tmp_path / "x.csv"))
        assert proc.returncode == 3
        assert f"{flag[2:].replace('-', '_')} must be positive and finite" \
            in proc.stderr


# ---------------------------------------------------------------------------
# determinism, formats, resolution order


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            proc = run_cli("zeno-converge", "--out", str(out))
            assert proc.returncode == 0, proc.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_does_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        proc = run_cli("zeno-converge", "--out", str(a))
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("zeno-converge", "--parallel", "--out", str(b))
        assert proc.returncode == 0, proc.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_line_ladder_parallel_does_not_change_bytes(self, tmp_path):
        # the line ladder is one pass, which --parallel leaves whole
        a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        args = ("pdx-verify", "--system", "line", "--beta", "-0.7")
        proc = run_cli(*args, "--out", str(a))
        assert proc.returncode == 0, proc.stderr
        proc = run_cli(*args, "--parallel", "--out", str(b))
        assert proc.returncode == 0, proc.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_metadata_lines_round_trip_as_config(self, tmp_path):
        first = tmp_path / "first.csv"
        proc = run_cli("twostate", "--n-zeno", "2000", "--out", str(first))
        assert proc.returncode == 0, proc.stderr
        meta, _, _ = read_table(first)
        keep = SCHEMAS["twostate"]
        cfg = tmp_path / "replay.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in meta.items()
                               if k in keep))
        second = tmp_path / "second.csv"
        proc = run_cli("twostate", "--config", str(cfg), "--out", str(second))
        assert proc.returncode == 0, proc.stderr
        assert first.read_bytes() == second.read_bytes()

    def test_json_mirrors_csv(self, tmp_path):
        a, b = tmp_path / "t.csv", tmp_path / "t.json"
        proc = run_cli("zeno-converge", "--n-list", "2,10", "--out", str(a))
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("zeno-converge", "--n-list", "2,10", "--format",
                       "json", "--out", str(b))
        assert proc.returncode == 0, proc.stderr
        meta, columns, rows = read_table(a)
        doc = json.loads(b.read_text())
        assert doc["metadata"] == meta
        assert doc["columns"] == columns
        assert len(doc["rows"]) == len(rows)
        for line, row in zip(rows, doc["rows"]):
            assert int(line[0]) == row[0]
            for text, val in zip(line[1:], row[1:]):
                assert abs(float(text) - val) <= 1e-10 * max(1.0, abs(val))


class TestResolutionAndLayout:
    @pytest.mark.parametrize("args", [(cmd,) for cmd in SCHEMAS]
                             + [("pdx-verify", "--system", "line")])
    def test_every_command_runs_on_its_defaults(self, args, tmp_path):
        proc = run_cli(*args, cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / f"{args[0]}.csv").exists()

    # NaN and inf used to reach Operator and fail there on non-finite entries
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["twostate", "zeno-converge",
                                         "pdx-verify"])
    def test_non_finite_time_rejected(self, tmp_path, command, value):
        out = tmp_path / "x.csv"
        proc = run_cli(command, "--t", value, "--out", str(out))
        assert proc.returncode == 3
        assert "t must be finite" in proc.stderr
        assert "Warning" not in proc.stderr
        assert not out.exists()

    # NaN passes a sign check, so each input needs a finiteness check that
    # names it; without one the run writes NaN rows or fails later elsewhere
    @pytest.mark.parametrize("argv, message", [
        (("pdx-verify", "--system", "line", "--x0", "nan"), "x0 must be finite"),
        (("pdx-verify", "--system", "line", "--p0", "nan"), "p0 must be finite"),
        (("pdx-verify", "--system", "line", "--sigma", "nan"),
         "sigma must be positive and finite"),
        (("pdx-verify", "--system", "line", "--length", "nan"),
         "L must be positive and finite"),
        (("twostate", "--omega", "nan"), "omega must be finite"),
        (("histories", "--sigma", "nan"), "sigma must be positive and finite"),
        (("histories", "--tol", "nan"), "tol must be finite"),
        (("histories", "--length", "nan"), "length must be positive and finite"),
        (("histories", "--length", "inf"), "length must be positive and finite"),
        (("arrival", "--smear-tau", "nan"), "smear_tau must be finite"),
        (("arrival", "--p0", "nan"), "p0 must be finite"),
        (("arrival", "--x0", "nan"), "x0 must be finite"),
        (("arrival", "--sigma-p", "nan"), "sigma_p must be positive and finite"),
        (("arrival", "--p-max", "nan"), "p_max must be positive and finite"),
        (("arrival", "--x-arrival", "nan"), "x_arrival must be finite"),
    ], ids=["line-x0", "line-p0", "line-sigma", "line-length", "twostate-omega",
            "histories-sigma", "histories-tol", "histories-length-nan",
            "histories-length-inf", "arrival-smear-tau",
            "arrival-p0", "arrival-x0", "arrival-sigma-p", "arrival-p-max",
            "arrival-x-arrival"])
    def test_non_finite_inputs_rejected(self, tmp_path, argv, message):
        out = tmp_path / "x.csv"
        proc = run_cli(*argv, "--out", str(out))
        assert proc.returncode == 3
        assert message in proc.stderr
        assert "Warning" not in proc.stderr
        assert not out.exists()

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t=1.0\nn_list=2,4\n")
        out = tmp_path / "out.csv"
        proc = run_cli("zeno-converge", "--config", str(cfg), "--t", "2.0",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        meta, columns, rows = read_table(out)
        assert meta["t"] == "2.0"
        assert meta["n_list"] == "2,4"

    def test_seed_is_recorded(self, tmp_path):
        out = tmp_path / "out.csv"
        proc = run_cli("zeno-converge", "--n-list", "2", "--seed", "7",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert read_table(out)[0]["seed"] == "7"

    def test_finite_beta_runs_never_import_scipy(self):
        # scipy serves only the eigensystem oracle; production stays on numpy
        code = (
            "import sys, zenopath, zenopath.cli as cli\n"
            "cli.DISPATCH['histories'](cli.RunConfig('histories', "
            "{'beta': 0.7, 'n_t': 2, 'n_grid': 1024}))\n"
            "cli.DISPATCH['pdx-verify'](cli.RunConfig('pdx-verify', "
            "{'system': 'line', 'beta': -0.8, 'n_grid': 512, "
            "'ladder': [40]}))\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "assert 'scipy' not in sys.modules, loaded\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr

    def test_default_output_lands_in_cwd(self, tmp_path):
        proc = run_cli("zeno-converge", "--n-list", "2", cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "zeno-converge.csv").exists()
        assert "zeno-converge.csv" in proc.stdout

    def test_output_dir_env(self, tmp_path):
        target = tmp_path / "nested" / "runs"
        proc = run_cli("zeno-converge", "--n-list", "2",
                       env_extra={"ZENOPATH_OUT_DIR": str(target)})
        assert proc.returncode == 0, proc.stderr
        assert (target / "zeno-converge.csv").exists()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        proc = run_cli("twostate", "--config", str(cfg), "--out",
                       str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert "config error" in proc.stderr
        assert "bogus" in proc.stderr

    def test_bad_flag_value(self, tmp_path):
        proc = run_cli("twostate", "--n-quad", "many", "--out",
                       str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_missing_config_file(self, tmp_path):
        proc = run_cli("twostate", "--config", str(tmp_path / "absent.cfg"))
        assert proc.returncode == 2

    def test_unknown_flag(self):
        proc = run_cli("twostate", "--warp", "9")
        assert proc.returncode == 2

    def test_help_and_version(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for cmd in SCHEMAS:
            assert cmd in proc.stdout
        proc = run_cli("--version")
        assert proc.returncode == 0
