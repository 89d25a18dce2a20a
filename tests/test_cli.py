"""Command-line front end: scenario files, outputs, exit codes."""

import json
import math

import numpy as np
import pytest

from ctplan import PlanningMode, TrajectoryPlan, replay
from ctplan.cli import (fmt9, load_scenario, main, parse_scenario,
                        read_trajectory_csv, write_trajectory_csv)
from ctplan.errors import ParseError

SMALL_SCENARIO = """\
# scaled-down wall approach
x_init = 1.0
x_g = 0.05
x_w = 0.0
dt = 0.1
a_max = 6.0
a_min = -6.0
v_max = 15.0
restitution = 0.0
"""


@pytest.fixture()
def scenario_path(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_SCENARIO)
    return path


class TestScenarioParsing:
    def test_defaults_and_required(self):
        scenario = parse_scenario(SMALL_SCENARIO)
        assert scenario.config.v_init == 0.0
        assert scenario.config.a_final == 0.0
        assert scenario.config.d_max is None
        capped = parse_scenario(SMALL_SCENARIO + "d_total_max = 2.5\nmax_contact_steps = 3\n")
        assert capped.config.d_total_max == 2.5
        assert capped.config.max_contact_steps == 3
        assert isinstance(capped.config.max_contact_steps, int)

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError, match="unknown key"):
            parse_scenario(SMALL_SCENARIO + "wibble = 3\n")

    def test_missing_key_rejected(self):
        with pytest.raises(ParseError, match="missing required"):
            parse_scenario("x_init = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_scenario(SMALL_SCENARIO + "x_init = 2\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ParseError, match="bad value"):
            parse_scenario(SMALL_SCENARIO.replace("1.0", "one", 1))
        with pytest.raises(ParseError, match="bad value"):
            parse_scenario(SMALL_SCENARIO + "max_contact_steps = 2.5\n")

    def test_run_options(self):
        scenario = parse_scenario(SMALL_SCENARIO + "mode = tolerant\ntau_max = 30\n")
        assert scenario.mode == "tolerant"
        assert scenario.tau_max == 30


class TestFormatting:
    def test_nine_significant_digits(self):
        assert fmt9(2.55) == "2.55"
        assert fmt9(0.15000000000000002) == "0.15"
        assert fmt9(-0.0) == "0"
        assert fmt9(123456789.123) == "123456789"
        assert fmt9(1.5e-12) == "0.0000000000015"


class TestPlanCommand:
    def test_free_mode(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(["plan", "--config", str(scenario_path), "--mode", "free",
                     "--out", str(out)])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["mode"] == "free"
        assert record["collided"] is False
        assert out.exists()

    def test_tolerant_mode_round_trip(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(["plan", "--config", str(scenario_path), "--mode", "tolerant",
                     "--out", str(out)])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())

        t, x, v, a, zeta, dmg = read_trajectory_csv(str(out))
        scenario = load_scenario(str(scenario_path))
        tau = len(t) - 1
        assert t[1] - t[0] == pytest.approx(scenario.config.dt)
        plan = TrajectoryPlan(
            scenario.config.dt, tau, tuple(x), tuple(v), tuple(a),
            tuple(int(z) for z in zeta), tuple(dmg), float(dmg.sum()),
            PlanningMode.COLLISION_TOLERANT, scenario.config)
        result = replay(plan, scenario.config)
        assert result.passed, result
        assert record["min_time"] == pytest.approx(tau * scenario.config.dt)

    def test_byte_stable_output(self, scenario_path, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["plan", "--config", str(scenario_path), "--mode", "tolerant",
                     "--out", str(out1)]) == 0
        assert main(["plan", "--config", str(scenario_path), "--mode", "tolerant",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_damage_mode_needs_cap(self, scenario_path, capsys):
        assert main(["plan", "--config", str(scenario_path), "--mode", "damage"]) == 2

    def test_damage_mode_with_flag(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = main(["plan", "--config", str(scenario_path), "--mode", "damage",
                     "--dmax", "1.5", "--out", str(out)])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["max_impact_speed"] <= 1.5 + 1e-6

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        for scenario, flags, name in [
            (SMALL_SCENARIO.replace("x_g = 0.05", "x_g = -0.4"), [], "x_g"),
            (SMALL_SCENARIO + "d_max = nan\n", ["--mode", "damage"], "d_max"),
            (SMALL_SCENARIO + "d_total_max = inf\n", ["--mode", "damage", "--dmax", "1"],
             "d_total_max"),
            (SMALL_SCENARIO, ["--mode", "damage", "--dmax", "nan"], "d_max"),
            (SMALL_SCENARIO, ["--mode", "damage", "--dmax", "inf"], "d_max"),
        ]:
            bad.write_text(scenario)
            assert main(["plan", "--config", str(bad)] + flags) == 2, (scenario, flags)
            assert name in capsys.readouterr().err

    def test_infeasible_horizon_exit_3(self, scenario_path):
        assert main(["plan", "--config", str(scenario_path), "--mode", "free",
                     "--tau-max", "3"]) == 3

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["plan", "--config", str(tmp_path / "nope.cfg")]) == 2


class TestCompareCommand:
    def test_two_variant_report(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = main(["compare", "--config", str(scenario_path), "--out", str(out)])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        labels = [e["label"] for e in record["entries"]]
        assert labels == ["collision-free", "collision-tolerant"]
        text = out.read_text()
        assert "baseline" in text

    def test_three_variant_report_with_cap(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = main(["compare", "--config", str(scenario_path),
                     "--dmax", "1.5", "--out", str(out)])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        labels = [e["label"] for e in record["entries"]]
        assert labels == ["collision-free", "collision-tolerant", "damage-limited"]
        base, tol, dmg = record["entries"]
        assert base["improvement_pct"] is None
        assert tol["min_time"] <= base["min_time"]
        assert tol["min_time"] <= dmg["min_time"] <= base["min_time"] + 1e-9

    def test_byte_stable_report(self, scenario_path, tmp_path):
        outs = []
        for name in ("r1.txt", "r2.txt"):
            out = tmp_path / name
            assert main(["compare", "--config", str(scenario_path),
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestSweepCommand:
    def test_sweep_csv(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(scenario_path), "--start", "0.05",
                     "--end", "0.35", "--dx", "0.1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x_g,min_time,collided"
        assert len(lines) == 1 + 4
        flags = [int(line.split(",")[2]) for line in lines[1:]]
        assert all(f in (0, 1) for f in flags)

    def test_single_point(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "one.csv"
        code = main(["sweep", "--config", str(scenario_path), "--start", "0.05",
                     "--end", "0.05", "--dx", "0.1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert int(lines[1].split(",")[2]) == 1  # near-wall goal collides

    def test_inverted_range_exit_2(self, scenario_path):
        assert main(["sweep", "--config", str(scenario_path), "--start", "0.5",
                     "--end", "0.1", "--dx", "0.1"]) == 2

    def test_missing_range_exit_2(self, scenario_path):
        assert main(["sweep", "--config", str(scenario_path)]) == 2


class TestSolveLpCommand:
    def test_lp_dump(self, tmp_path, capsys):
        dump = tmp_path / "toy.lp"
        dump.write_text("min: -1*x0 + -2*x1\n1*x0 + 1*x1 <= 1\n"
                        "x0 in [0, inf]\nx1 in [0, inf]\n")
        assert main(["solve-lp", "--input", str(dump)]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["status"] == "optimal"
        assert record["objective"] == pytest.approx(-2.0)

    def test_milp_dump(self, tmp_path, capsys):
        dump = tmp_path / "toy.milp"
        dump.write_text("min: -x0 + -x1\n1*x0 + 1*x1 <= 1\nbin: x0 x1\n")
        assert main(["solve-lp", "--input", str(dump)]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["objective"] == pytest.approx(-1.0)

    def test_infeasible_dump_exit_3(self, tmp_path, capsys):
        dump = tmp_path / "inf.lp"
        dump.write_text("min: 1*x0\n1*x0 >= 1\n1*x0 <= 0\n")
        assert main(["solve-lp", "--input", str(dump)]) == 3

    def test_garbage_dump_exit_2(self, tmp_path):
        dump = tmp_path / "bad.lp"
        dump.write_text("whatever\n")
        assert main(["solve-lp", "--input", str(dump)]) == 2


def test_bundled_scenario_parses():
    import importlib.resources as resources
    text = (resources.files("ctplan") / "data" / "paper_table1.cfg").read_text()
    scenario = parse_scenario(text, source="paper_table1.cfg")
    assert scenario.config.x_init == 10.0
    assert scenario.config.x_g == 0.3
    assert scenario.config.dt == 0.05
    assert scenario.config.restitution == 0.0
    assert scenario.config.a_max == 6.0 and scenario.config.a_min == -6.0
    assert scenario.config.v_max == 15.0
