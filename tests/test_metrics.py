import numpy as np
import pytest

from beamsparse import (
    ContractError,
    DegenerateInputError,
    DesiredPattern,
    RunReport,
    Trace,
    cardinality,
    matching_error_db,
    peak_sidelobe_db,
)
from beamsparse.metrics import _RATIO_FLOOR, _db


def weights_from_powers(powers):
    return np.sqrt(np.asarray(powers, dtype=float)).astype(complex)


class TestCardinality:
    def test_one_hot(self):
        w = weights_from_powers([1.0, 0.0, 0.0, 0.0])
        assert cardinality(w, 1e-3) == 1
        assert cardinality(w, 0.999) == 1

    def test_uniform_counts_all(self):
        w = weights_from_powers(np.full(6, 1 / 6))
        assert cardinality(w, 1e-3) == 6

    def test_near_tie_and_tiny_entry(self):
        w = weights_from_powers([0.5, 0.5 - 1e-9, 1e-12, 0.0, 0.0])
        assert cardinality(w, 1e-3) == 2

    def test_threshold_bounds(self):
        w = weights_from_powers([1.0, 0.0])
        for bad in (0.0, 1.0, -0.5, 2.0, "x", None, 1 + 2j, np.full(2, 0.5)):
            with pytest.raises(ContractError):
                cardinality(w, bad)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(9)
        p = rng.random(12)
        w = weights_from_powers(p / p.sum())
        thresholds = sorted(rng.uniform(1e-6, 0.99, 10))
        counts = [cardinality(w, t) for t in thresholds]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize(
        "w", [[1e200, 1.0, 1e199], [1.7e308, 1.7e308j]], ids=["power", "magnitude"]
    )
    def test_overflowing_powers_rejected(self, w):
        # the strongest power overflowed to inf, so nothing passed the threshold and the
        # count came back as 0, with only a RuntimeWarning
        with pytest.raises(ContractError, match="overflow"):
            cardinality(np.array(w))

    def test_largest_finite_powers_still_count(self):
        assert cardinality(np.array([1e154, 1.0, 1e153])) == 2

    def test_invariant_to_phase_and_permutation(self):
        rng = np.random.default_rng(10)
        p = rng.random(8)
        p /= p.sum()
        base = np.sqrt(p) * np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
        rotated = base * np.exp(1j * 0.73)
        permuted = base[rng.permutation(8)]
        assert cardinality(base, 1e-2) == cardinality(rotated, 1e-2) == cardinality(permuted, 1e-2)


class TestMatchingError:
    def test_exact_match_floors_at_minus_300(self):
        d = DesiredPattern(np.array([1.0, 2.0, 0.0]), np.array([True, True, False]))
        pattern = 1.5 * d.values
        assert matching_error_db(pattern, 1.5, d) == -300.0

    def test_residual_equal_to_template_energy_is_zero_db(self):
        d = DesiredPattern(np.array([3.0, 1.0, 0.0]), np.array([True, True, False]))
        assert matching_error_db(2.0 * d.values, 1.0, d) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_ratio(self):
        rng = np.random.default_rng(12)
        values = rng.uniform(0.1, 2.0, 5)
        d = DesiredPattern(values, np.ones(5, bool))
        pattern = rng.uniform(0, 4.0, 5)
        alpha = 0.8
        want = 10 * np.log10(
            np.sum((pattern - alpha * values) ** 2) / np.sum((alpha * values) ** 2)
        )
        assert matching_error_db(pattern, alpha, d) == pytest.approx(want, abs=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        values = rng.uniform(0.1, 2.0, 6)
        d = DesiredPattern(values, np.ones(6, bool))
        pattern = rng.uniform(0, 4.0, 6)
        base = matching_error_db(pattern, 0.7, d)
        for c in (1e-3, 5.0, 4096.0):
            assert matching_error_db(c * pattern, c * 0.7, d) == pytest.approx(base, abs=1e-10)

    @pytest.mark.parametrize(
        "pattern, alpha",
        [([1.0, 1.0], 1e200), ([1e200, 1.0], 1.0), ([1.0, 1.0], 1e-160)],
        ids=["scaled-template-energy", "residual", "ratio"],
    )
    def test_overflowing_sums_of_squares_rejected(self, pattern, alpha):
        # finite inputs whose sums of squares, or their ratio, overflow once made a nan or
        # +inf dB; pytest turns numpy's overflow RuntimeWarning into a failure
        d = DesiredPattern(np.array([1000.0, 0.0]), np.array([True, False]))
        with pytest.raises(ContractError, match="overflows"):
            matching_error_db(np.array(pattern), alpha, d)

    def test_zero_scaled_template_rejected(self):
        d = DesiredPattern(np.array([1.0, 0.0]), np.array([True, False]))
        with pytest.raises(DegenerateInputError):
            matching_error_db(np.array([1.0, 1.0]), 0.0, d)


def test_db_of_an_array_is_the_scalar_db_of_each_entry_bit_for_bit():
    # the solver derives its trace's dB column from an array; trace.csv must keep the
    # digits a per-row scalar evaluation writes
    rng = np.random.default_rng(7)
    floor = [_RATIO_FLOOR, np.nextafter(_RATIO_FLOOR, 0.0), np.nextafter(_RATIO_FLOOR, 1.0)]
    ratios = np.concatenate((
        [0.0, 1e-40, *floor, 1.0, 1e40],
        np.logspace(-40, 40, 4001),
        10.0 ** rng.uniform(-40, 40, 4000),
    ))
    scalars = [_db(float(r)) for r in ratios]
    assert all(type(x) is float for x in scalars)
    np.testing.assert_array_equal(_db(ratios).view(np.int64), np.array(scalars).view(np.int64))


class TestPeakSidelobe:
    def test_twenty_db_down(self):
        pattern = np.array([1.0, 100.0, 1.0, 0.5])
        mask = np.array([False, True, False, False])
        assert peak_sidelobe_db(pattern, mask) == pytest.approx(-20.0, abs=1e-12)

    def test_flat_pattern_is_zero_db(self):
        pattern = np.ones(5)
        mask = np.array([True, True, False, False, False])
        assert peak_sidelobe_db(pattern, mask) == pytest.approx(0.0, abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            pattern = rng.uniform(0.01, 50.0, 20)
            mask = rng.random(20) < 0.4
            if not mask.any() or mask.all():
                continue
            main = max(pattern[i] for i in range(20) if mask[i])
            side = max(pattern[i] for i in range(20) if not mask[i])
            want = 10 * np.log10(side / main)
            assert peak_sidelobe_db(pattern, mask) == pytest.approx(want, abs=1e-10)

    def test_rejects_mainlobe_without_power(self):
        with pytest.raises(DegenerateInputError, match="mainlobe region carries no power"):
            peak_sidelobe_db(np.array([0.0, 1.0]), np.array([True, False]))

    def test_ratio_that_overflows_rejected(self):
        # finite peaks whose ratio overflows once made +inf dB
        with pytest.raises(ContractError, match="ratio overflows"):
            peak_sidelobe_db(np.array([1e-300, 1e10]), np.array([True, False]))

    def test_rejects_single_region_masks(self):
        with pytest.raises(ContractError):
            peak_sidelobe_db(np.ones(4), np.ones(4, bool))
        with pytest.raises(ContractError):
            peak_sidelobe_db(np.ones(4), np.zeros(4, bool))


class TestRunReport:
    def _record(self, alpha=(1.0,)):
        rows = len(alpha)
        return Trace(
            iter=np.arange(rows), objective=np.ones(rows), lagrangian=np.ones(rows),
            primal_residual=np.full(rows, 0.1), alpha=np.array(alpha),
            matching_error_db=np.full(rows, -3.0), w_change=np.zeros(rows),
        )

    def _fields(self, **changes):
        return dict(
            cardinality=0, matching_error_db=0.0, peak_sidelobe_db=0.0, runtime_seconds=0.0,
            trace=self._record(),
        ) | changes

    def test_accepts_valid_report(self):
        report = RunReport(
            cardinality=3, matching_error_db=-2.0, peak_sidelobe_db=-10.0,
            runtime_seconds=0.5, trace=self._record(),
        )
        assert report.cardinality == 3

    def test_iterations_and_final_alpha_are_read_from_the_trace(self):
        report = RunReport(**self._fields(trace=self._record(alpha=(1.0, 0.5, 0.25, -0.125))))
        assert report.iterations == 3
        assert type(report.final_alpha) is float and report.final_alpha == -0.125
        # they are not fields, so no caller can store a second copy that disagrees
        with pytest.raises(TypeError):
            RunReport(**self._fields(iterations=3))
        with pytest.raises(TypeError):
            RunReport(**self._fields(final_alpha=1.0))

    def test_rejects_negative_fields(self):
        with pytest.raises(ContractError):
            RunReport(**self._fields(cardinality=-1))
        with pytest.raises(ContractError):
            RunReport(**self._fields(runtime_seconds=-0.1))
        # the count takes integers, the runtime the scalar rule, the two dB values finite
        # real numbers (summary.json has no token for NaN or inf), and the trace its type
        for field, value in [("cardinality", True), ("cardinality", 2.0),
                             *(("runtime_seconds", v)
                               for v in ("0.5", None, True, 10**400, np.inf)),
                             *((name, v) for name in ("matching_error_db", "peak_sidelobe_db")
                               for v in (np.nan, np.inf, -np.inf, None, "0.5", 10**400)),
                             ("trace", None), ("trace", [])]:
            with pytest.raises(ContractError, match=field):
                RunReport(**self._fields(**{field: value}))
