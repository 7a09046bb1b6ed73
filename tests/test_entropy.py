import numpy as np
import pytest

from beamsparse import (
    ContractError,
    MajorizerDiag,
    entropy,
    entropy_gradient,
    majorizer_diag,
    majorizer_value,
)


def random_unit_weights(rng, n, min_power=0.0):
    """Unit-power weights with every element power at least min_power."""
    p = rng.standard_normal(n) ** 2 + min_power
    p /= p.sum()
    p = np.maximum(p, min_power)  # renormalization can undershoot slightly
    p /= p.sum()
    phases = rng.uniform(0, 2 * np.pi, n)
    return np.sqrt(p) * np.exp(1j * phases)


def neg_plogp(p: np.ndarray) -> float:
    """Reference -sum p log p with the 0 log 0 convention, no clamping."""
    mask = p > 0
    return float(-(p[mask] * np.log(p[mask])).sum())


class TestEntropyValue:
    def test_uniform_power_is_log_n(self):
        w = 0.5 * np.ones(4, complex)
        assert entropy(w) == pytest.approx(1.3862943611198906, abs=1e-12)

    def test_one_hot_is_zero(self):
        values = np.zeros(5, complex)
        values[2] = 1j
        assert entropy(values) == 0.0

    def test_half_half(self):
        w = np.array([np.sqrt(0.5), np.sqrt(0.5) * 1j, 0.0, 0.0])
        assert entropy(w) == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ContractError):
            entropy(np.ones(3, complex))

    def test_range_bounds(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(2, 20))
            value = entropy(random_unit_weights(rng, n))
            assert -1e-12 <= value <= np.log(n) + 1e-12


class TestEntropyGradient:
    def test_inverse_e_gives_zero(self):
        assert entropy_gradient(np.array([1 / np.e]))[0] == pytest.approx(0.0, abs=1e-14)

    def test_one_gives_minus_one(self):
        assert entropy_gradient(np.array([1.0]))[0] == -1.0

    def test_zero_is_clamped_finite(self):
        got = entropy_gradient(np.array([0.0]))[0]
        assert got == pytest.approx(26.631021115928547, abs=1e-10)

    def test_rejects_negative_power(self):
        with pytest.raises(ContractError):
            entropy_gradient(np.array([-0.1]))

    def test_matches_central_differences(self):
        # interior points only; step scaled to the coordinate keeps the
        # truncation error well under the 1e-6 relative target
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            p = rng.uniform(1e-6, 1.0, n)
            grad = entropy_gradient(p)
            for i in range(n):
                h = 1e-3 * p[i]
                hi, lo = p.copy(), p.copy()
                hi[i] += h
                lo[i] -= h
                fd = (neg_plogp(hi) - neg_plogp(lo)) / (2 * h)
                assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))


class TestMajorizer:
    def test_uniform_anchor_two_elements(self):
        anchor = np.sqrt(0.5) * np.ones(2, complex)
        m = majorizer_diag(anchor)
        np.testing.assert_allclose(m.diag, np.log(2) - 1, atol=1e-14)
        assert m.constant == pytest.approx(1.0, abs=1e-12)

    def test_one_hot_anchor(self):
        values = np.zeros(3, complex)
        values[0] = 1.0
        m = majorizer_diag(values)
        assert m.diag[0] == pytest.approx(-1.0, abs=1e-14)
        # dead elements take the clamped slope
        np.testing.assert_allclose(m.diag[1:], 26.631021115928547, atol=1e-10)
        assert m.constant == pytest.approx(1.0, abs=1e-12)

    def test_tangent_at_anchor(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            anchor = random_unit_weights(rng, int(rng.integers(2, 16)), min_power=1e-9)
            m = majorizer_diag(anchor)
            assert majorizer_value(anchor, m) == pytest.approx(entropy(anchor), abs=1e-10)

    def test_upper_bounds_entropy(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            n = int(rng.integers(2, 16))
            anchor = random_unit_weights(rng, n, min_power=1e-9)
            w = random_unit_weights(rng, n)
            m = majorizer_diag(anchor)
            assert majorizer_value(w, m) >= entropy(w) - 1e-9

    def test_zero_majorizer_evaluates_to_zero(self):
        w = np.array([1.0 + 0j, 0.0])
        assert majorizer_value(w, MajorizerDiag(np.zeros(2), 0.0)) == 0.0

    def test_requires_unit_power(self):
        with pytest.raises(ContractError):
            majorizer_diag(2.0 * np.ones(2, complex))


def test_unit_power_rule_rejects_just_past_tolerance():
    values = np.array([np.sqrt(0.5 + 5e-10), np.sqrt(0.5)], dtype=complex)
    with pytest.raises(ContractError):
        entropy(values)
    with pytest.raises(ContractError):
        majorizer_diag(values)
