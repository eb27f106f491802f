"""compare / gate verdicts follow the measuring rules."""

from __future__ import annotations

import json

import pytest

import compare
import measure


def runs(workload, values, *, failed=0, metric="op_p50_ms", section="metrics"):
    return [
        {
            "workload": workload, "seed": 11 + index % 2, "trace": 0, "attempted": 100,
            "failed": failed, "metrics": {}, "report": {},
            section: {metric: {"value": value, "unit": "ms"}},
        }
        for index, value in enumerate(values)
    ]


def verdict(a, b, **kwargs):
    rows, failures = compare.compare(runs("sp-cold", a), runs("sp-cold", b, **kwargs))
    assert len(rows) == 1
    return rows[0][2]["verdict"], failures


def test_verdicts(benchmark_json):
    bound = {m["name"]: m["bound"] for m in benchmark_json["end_to_end"]}["op_p50_ms"]
    steady = [10.0 + 0.01 * i for i in range(12)]
    assert verdict(steady, steady)[0] == "within-bound"
    assert verdict(steady, [v * (1 + 2 * bound) for v in steady])[0] == "regression"
    assert verdict(steady, [v * 0.5 for v in steady])[0] == "better"
    # too few pairs to claim a gain, however large
    assert verdict(steady[:4], [v * 0.5 for v in steady[:4]])[0] == "within-bound"
    noisy = [10.0 * (1 + 3 * bound * (i % 3)) for i in range(12)]
    assert verdict(noisy, steady)[0] == "unresolved"
    assert verdict(steady, steady, failed=2)[1], "failed operations are reported"


def test_noise_does_not_excuse_a_regression():
    steady = [10.0 + 0.01 * i for i in range(10)]
    # two runs of the change, a fifth apart, both three times slower
    assert verdict(steady, [30.0, 36.0])[0] == "regression"
    noisy_slow = [30.0 * (1 + 0.2 * (i % 3)) for i in range(10)]
    assert verdict(steady, noisy_slow)[0] == "regression"
    noisy = [10.0 * (1 + 0.4 * (i % 3)) for i in range(10)]
    assert verdict(noisy, noisy_slow)[0] == "regression"
    # a wide side that overlaps the other stays undecided, either way round
    assert verdict(noisy, [v * 1.2 for v in steady])[0] == "unresolved"
    assert verdict(steady, noisy)[0] == "unresolved"
    # higher-is-better metrics are judged the other way up
    rows, _ = compare.compare(
        runs("sp-cold", steady, metric="throughput_ops_s"),
        runs("sp-cold", [3.0, 3.6], metric="throughput_ops_s"),
    )
    assert rows[0][2]["verdict"] == "regression"


def test_quartiles_of_few_runs_are_their_range():
    assert compare.quartiles([30.0, 36.0]) == (30.0, 33.0, 36.0)
    assert compare.quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_report_metrics_are_judged_where_they_are_reported():
    steady = [10.0 + 0.01 * i for i in range(10)]
    a = runs("write-mixed", steady, metric="write_p50_ms", section="report")
    b = runs("write-mixed", [v * 2 for v in steady], metric="write_p50_ms", section="report")
    rows, _ = compare.compare(a + runs("sp-cold", steady), b + runs("sp-cold", steady))
    assert {(w, m): row["verdict"] for w, m, row in rows} == {
        ("sp-cold", "op_p50_ms"): "within-bound",
        ("write-mixed", "write_p50_ms"): "regression",
    }


def test_compare_cli_exit_codes(tmp_path, capsys):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    steady = [10.0 + 0.01 * i for i in range(12)]
    a.write_text(json.dumps({"runs": runs("sp-cold", steady)}))
    b.write_text(json.dumps({"runs": runs("sp-cold", [v * 2 for v in steady])}))
    c.write_text(json.dumps({"runs": runs("sp-cold", [10.0 * (1 + 0.4 * (i % 3)) for i in range(12)])}))
    assert compare.main(["compare", str(a), str(a)]) == 0
    assert compare.main(["compare", str(a), str(b)]) == 1
    assert "regression" in capsys.readouterr().out
    assert compare.main(["compare", str(a), str(c)]) == 2, "unresolved is not a pass"


def test_percentiles_and_tail_support():
    samples = list(range(1, 101))
    assert measure.percentile(samples, 50) == 50.5
    assert measure.percentile(samples, 100) == 100
    assert measure.supported(200, 95) and not measure.supported(199, 95)
    assert measure.supported(40, 75) and not measure.supported(39, 75)


def test_steady_tail_leaves_one_slow_spell_out():
    quiet = [1.0 + 0.001 * (i % 100) for i in range(800)]
    spelled = list(quiet)
    spelled[300:360] = [5.0] * 60  # 7.5 % of the run, in one stretch
    assert measure.percentile(spelled, 95) > 4.0
    assert measure.steady_tail(spelled, 95) == pytest.approx(measure.steady_tail(quiet, 95), rel=0.01)
    assert measure.steady_tail(quiet[:30], 75) == measure.percentile(quiet[:30], 75)  # one slice


def test_calibrator_factor_tracks_slow_spells():
    calibrator = measure.Calibrator()
    calibrator.times = [0.1 * i for i in range(100)]
    calibrator.durations = [measure.REFERENCE_SECONDS * (2.0 if 30 <= i < 60 else 1.0) for i in range(100)]
    assert calibrator.factor(1.0, 1.001) == 1.0
    assert calibrator.factor(4.5, 4.501) == 2.0
    assert calibrator.factor(0.0, 9.9) == 1.0  # a long op takes the median over its whole span


def test_a_build_that_ticked_is_judged_by_the_samples_inside_it():
    calibrator = measure.Calibrator()
    calibrator.times = [0.1 * i for i in range(100)]
    # half of [2, 6) at reference speed, half at a third of it; slow again outside
    calibrator.durations = [
        measure.REFERENCE_SECONDS * (1.0 if 20 <= i < 40 else 3.0) for i in range(100)
    ]
    inside = 20 * measure.REFERENCE_SECONDS * (1.0 + 3.0)
    assert calibrator.at_reference_speed(2.0, 6.0) == pytest.approx((4.0 - inside) / 2.0)
    # too few ticks inside: the samples around the call decide
    assert calibrator.at_reference_speed(2.0, 2.3) == pytest.approx(0.3 / calibrator.factor(2.0, 2.3))


def test_wait_for_quiet_sits_out_a_spell_of_steal(monkeypatch):
    readings = iter([(0, 0), (10, 60), (10, 60), (10, 120)])  # 1/6 stolen, then none

    def stolen_share(since=(0, 0)):
        now = next(readings)
        elapsed = now[1] - since[1]
        return ((now[0] - since[0]) / elapsed if elapsed else 0.0), now

    monkeypatch.setattr(measure, "stolen_share", stolen_share)
    monkeypatch.setattr(measure, "QUIET_WINDOW_SECONDS", 0.01)
    assert 0.02 <= measure.wait_for_quiet() < 0.5
    readings = iter([(0, 0), (10, 60)])
    assert measure.wait_for_quiet(patience=0.0) < 0.5, "patience bounds the wait"


def test_stolen_share_reads_proc_stat():
    share, reading = measure.stolen_share()
    assert 0.0 <= share <= 1.0 and reading[1] >= reading[0] >= 0
    assert measure.stolen_share(reading)[0] >= 0.0
