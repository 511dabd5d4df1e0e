"""Error predictors, the exact two-interval conversion, and solver sweeps."""

import concurrent.futures
from types import SimpleNamespace

import pytest
from mpmath import mp

from bernlab import asymptotics
from bernlab.asymptotics import (
    akhiezer_b_from_a,
    akhiezer_convert,
    compare,
    predict_akhiezer_error,
    predict_power_error,
    predict_slit_height,
    slit_height_from_error,
)
from bernlab.errors import InvalidProblemError
from bernlab.remez import ProblemKind, build_akhiezer_problem, build_power_problem, solve

# a^(p/2-1) (1+a)^2 / (2 |Gamma(-p/2)|) at p = 1, a = 1/2, frozen at 400
# bits: sqrt(2) * (3/2)^2 / (4 sqrt(pi)).
F1_PREFACTOR = "0.44881006545161176268243931742617960203534096006055"


def test_power_prefactor_matches_frozen_value(cfg256):
    with cfg256.workprec():
        a = mp.mpf("0.5")
        m = 7
        pred = predict_power_error(1, a, m, cfg256)
        geometric = ((1 - a) / (1 + a)) ** (m + 1) * mp.mpf(m) ** mp.mpf("-1.5")
        assert abs(pred / geometric - mp.mpf(F1_PREFACTOR)) < mp.mpf("1e-45")


def test_power_prediction_ratio_approaches_interval_ratio(cfg256):
    with cfg256.workprec():
        a = mp.mpf("0.5")
        step = predict_power_error(1, a, 201, cfg256) / predict_power_error(1, a, 200, cfg256)
        assert abs(step / ((1 - a) / (1 + a)) - 1) < mp.mpf("0.01")


def test_power_prediction_decreases_with_gap(cfg256):
    with cfg256.workprec():
        vals = [predict_power_error(1, a, 10, cfg256) for a in ("0.3", "0.5", "0.7")]
        assert vals[0] > vals[1] > vals[2] > 0


def test_slit_height_leading_term(cfg256):
    # The height is dominated by (m - 1/2) log((1+a)/(1-a)); the relative
    # weight of the log(2m-1) and constant terms dies off like log(m)/m.
    with cfg256.workprec():
        a = mp.mpf("0.5")
        gaps = []
        for m in (100, 1000):
            height = predict_slit_height(1, a, m, cfg256)
            lead = (m - mp.mpf("0.5")) * mp.log((1 + a) / (1 - a))
            gaps.append(abs(height / lead - 1))
        assert gaps[1] < gaps[0]
        assert gaps[1] < mp.mpf("0.02")


def test_height_error_inversion_roundtrip(cfg256):
    with cfg256.workprec():
        height = slit_height_from_error(mp.mpf("0.01"), cfg256)
        assert abs(1 / mp.cosh(height) - mp.mpf("0.01")) < mp.mpf("1e-70")
    with pytest.raises(InvalidProblemError):
        slit_height_from_error(1.5, cfg256)


def test_pole_offset_conversion(cfg256):
    with cfg256.workprec():
        a = mp.mpf("0.5")
        b = akhiezer_b_from_a(a)
        assert abs(b - mp.mpf(5) / 3) < mp.mpf("1e-70")
        # b - sqrt(b^2-1) collapses to (1-a)/(1+a); both sides are exact here.
        assert abs((b - mp.sqrt(b * b - 1)) - mp.mpf(1) / 3) < mp.mpf("1e-70")
        assert abs(1 / (b * b - 1) - mp.mpf(9) / 16) < mp.mpf("1e-70")


@pytest.mark.parametrize("a", ["0.2", "0.5", "0.8"])
def test_pole_offset_roundtrip(cfg256, a):
    with cfg256.workprec():
        av = mp.mpf(a)
        b = akhiezer_b_from_a(av)
        # a = sqrt((b-1)/(b+1)) inverts b = (1+a^2)/(1-a^2).
        assert abs(mp.sqrt((b - 1) / (b + 1)) - av) < mp.mpf("1e-70")


def test_two_interval_conversion_is_exact_per_degree(cfg256):
    # The substitution y = (b+x)/(b+1) carries the degree-l shifted-power
    # problem onto the two-interval problem at the same degree, so the
    # errors must match through the (1+b)^s factor at solver accuracy.
    with cfg256.workprec():
        a = mp.mpf("0.6")
        b = akhiezer_b_from_a(a)
        shifted = solve(build_akhiezer_problem(1, b, 3), cfg256)
        two_interval = solve(build_power_problem(-2, a, 3), cfg256)
        converted = akhiezer_convert(1, a, shifted.error)
        assert abs(converted / two_interval.error - 1) < mp.mpf("1e-30")


def test_akhiezer_predictor_matches_power_form_through_conversion(cfg256):
    # Composing the shifted-power predictor with the exact conversion must
    # reproduce the two-interval formula at p = -2s (written inline because
    # the power predictor's public entry point only accepts positive p):
    # the same expression regrouped in (s, b) instead of (p, a).
    with cfg256.workprec():
        a = mp.mpf("0.6")
        b = akhiezer_b_from_a(a)
        s = mp.mpf(1)
        ratio = (1 - a) / (1 + a)
        for l in (2, 5, 11):
            composed = (1 + b) ** s * predict_akhiezer_error(s, b, l, cfg256)
            inline = (
                ratio ** (l + 1)
                * mp.mpf(l) ** (s - 1)
                * a ** (-s - 1)
                * (1 + a) ** 2
                / (2 * mp.gamma(s))
            )
            assert abs(composed / inline - 1) < mp.mpf("1e-70")


def test_sgn_sweep_report(cfg192):
    rows = compare(
        ProblemKind.SGN_LAURENT, {"k": 1, "a": "0.5"}, [3, 4, 5, 6], cfg192
    )
    with cfg192.workprec():
        ms = [row["m"] for row in rows]
        assert ms == [3, 4, 5, 6]
        # Heights are compared, so ratios should sit just above 1 and close
        # in as m grows.
        devs = [abs(mp.log(row["ratio"])) for row in rows]
        assert devs[-1] < devs[0]
        assert abs(rows[-1]["ratio"] - 1) < mp.mpf("0.1")
        assert asymptotics.monotone_tail([row["ratio"] for row in rows])
        computed, predicted = rows[-1]["height"], rows[-1]["predicted_height"]
        assert computed - predicted > 0


def test_monotone_tail_counts_a_non_positive_ratio_as_far_from_one():
    # Only the second half is judged: a ratio <= 0 ahead of it is ignored,
    # one that ends the tail moves away from 1, one that starts it does not.
    ratios = [mp.mpf(x) for x in ("-2", "3", "1.2", "1.1")]
    assert asymptotics.monotone_tail(ratios)
    assert not asymptotics.monotone_tail([*ratios, mp.mpf(0)])
    assert not asymptotics.monotone_tail([*ratios, mp.mpf(-1)])
    assert asymptotics.monotone_tail([mp.mpf(3), mp.mpf(-1), mp.mpf("1.5")])


def test_power_sweep_ratio_tightens(cfg192):
    rows = compare(ProblemKind.POWER, {"p": 1, "a": "0.5"}, [4, 8], cfg192)
    with cfg192.workprec():
        first = abs(mp.log(rows[0]["ratio"]))
        last = abs(mp.log(rows[-1]["ratio"]))
        assert last < first


def test_parallel_sweep_matches_serial(cfg192):
    serial = compare(ProblemKind.POWER, {"p": 1, "a": "0.5"}, [3, 5], cfg192)
    parallel = compare(ProblemKind.POWER, {"p": 1, "a": "0.5"}, [3, 5], cfg192, jobs=2)
    for row_s, row_p in zip(serial, parallel):
        assert row_s["m"] == row_p["m"]
        assert row_s["E"] == row_p["E"]
        assert row_s["predicted"] == row_p["predicted"]


@pytest.fixture
def pool(monkeypatch):
    """Replace the process pool by a recorder of the sizes asked for and the
    degrees handed over, in order, that maps in this process, so no worker
    is ever started."""
    record = SimpleNamespace(sizes=[], degrees=[])

    class Recorder:
        def __init__(self, max_workers):
            record.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            record.degrees.append([task[2] for task in tasks])
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    return record


def test_sweep_pool_is_capped_at_one_worker_per_degree(pool):
    rows = compare(ProblemKind.POWER, {"p": 1, "a": "0.5"}, [2, 3], jobs=500)
    assert pool.sizes == [2]
    assert [row["m"] for row in rows] == [2, 3]
    # One degree needs no pool at all.
    compare(ProblemKind.POWER, {"p": 1, "a": "0.5"}, [2], jobs=500)
    assert pool.sizes == [2]


def test_sweep_pool_takes_the_largest_degree_first(pool):
    # The longest solve starts first; the rows stay in degree order.
    rows = compare(ProblemKind.POWER, {"p": 1, "a": "0.5"}, [4, 2, 6], jobs=2)
    assert pool.degrees == [[6, 4, 2]]
    assert [row["m"] for row in rows] == [2, 4, 6]


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_rejects_non_positive_jobs(jobs, pool):
    with pytest.raises(InvalidProblemError):
        compare(ProblemKind.POWER, {"p": 1, "a": "0.5"}, [2, 3], jobs=jobs)
    assert pool.sizes == []


def test_sweep_rejects_repeated_degrees(pool):
    with pytest.raises(InvalidProblemError):
        compare(ProblemKind.POWER, {"p": 1, "a": "0.5"}, [3, 2, 3], jobs=2)
    assert pool.sizes == []


def test_predictor_validation():
    with pytest.raises(InvalidProblemError):
        predict_power_error(2, "0.5", 5)
    with pytest.raises(InvalidProblemError):
        predict_power_error(1, "1.5", 5)
    with pytest.raises(InvalidProblemError):
        predict_slit_height(0, "0.5", 5)
    with pytest.raises(InvalidProblemError):
        predict_akhiezer_error(0, 2, 5)
    with pytest.raises(InvalidProblemError):
        predict_akhiezer_error(1, "0.5", 5)
    with pytest.raises(InvalidProblemError):
        akhiezer_convert(0, "0.5", "0.1")


def test_predictors_reject_what_the_solver_rejects():
    # The predictors validate through the family builders, so a degree the
    # solver refuses has no prediction either.
    with pytest.raises(InvalidProblemError, match="need 2m > p"):
        predict_power_error(3, "0.5", 1)
    with pytest.raises(InvalidProblemError, match="degree must be a positive integer"):
        predict_akhiezer_error(1, 2, 0)
    with pytest.raises(InvalidProblemError, match="m must be a positive integer"):
        predict_slit_height(1, "0.5", 0)


def test_power_predictor_and_builder_share_the_even_integer_rule():
    message = r"p must not be an even integer \(degenerate target\)"
    for p in (2, "0", "4"):
        with pytest.raises(InvalidProblemError, match=message):
            predict_power_error(p, "0.5", 5)
        with pytest.raises(InvalidProblemError, match=message):
            build_power_problem(p, "0.5", 5)
    for p in ("-3", "-2", "-1", "1", "3"):
        build_power_problem(p, "0.5", 5)
        assert predict_power_error(p, "0.5", 5) > 0


def test_negative_power_prediction_is_the_converted_akhiezer_prediction(cfg256):
    # At p = -2s the power predictor is the shifted-power predictor carried
    # over by the exact conversion, at every degree.
    s, a, degree = mp.mpf("1.5"), mp.mpf("0.5"), 20
    with cfg256.workprec():
        power = predict_power_error(-2 * s, a, degree, cfg256)
        shifted = predict_akhiezer_error(s, akhiezer_b_from_a(a), degree, cfg256)
        converted = akhiezer_convert(s, a, shifted)
        assert abs(power - converted) <= mp.mpf("1e-80") * power
