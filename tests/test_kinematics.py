from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.signal import savgol_filter

from conftest import GRID, make_seq, random_seq
from egodyn.errors import (
    EvenWindow,
    InsufficientSpan,
    InvalidTrajectory,
    NonMonotonicTime,
    WindowTooLarge,
)
from egodyn.kinematics import (
    SAVGOL_ORDER,
    SAVGOL_WINDOW,
    PoseSample,
    StateSequence,
    _savgol_table,
    derive_pose_batch,
    derive_rate_batch,
    derive_states,
    derive_states_from_rates,
    resample_uniform,
    smooth_savgol,
    stratification_bin,
    stratification_tags,
    summarize,
)
from egodyn.thresholds import ThresholdConfig
from savgol_reference import gram_hat_matrix, savgol_exact, savgol_reference


def poses_from(fn_x, fn_y, fn_heading, times):
    return [PoseSample(t, fn_x(t), fn_y(t), fn_heading(t)) for t in times]


class TestResample:
    def test_linear_two_points_cover_window(self):
        samples = [PoseSample(0.0, 0.0, 0.0, 0.0), PoseSample(3.0, 30.0, 0.0, 0.0)]
        out = resample_uniform(samples, 10.0, 3.0)
        assert len(out) == 31
        for p in out:
            assert p.x == pytest.approx(10.0 * p.t, abs=1e-9)

    def test_heading_interpolates_through_pi_wrap(self):
        samples = [PoseSample(0.0, 0.0, 0.0, 3.1), PoseSample(3.0, 1.0, 0.0, -3.1)]
        out = resample_uniform(samples, 10.0, 3.0)
        # oracle: unwrapped heading is linear from 3.1 to 2*pi - 3.1
        unwrapped_end = -3.1 + 2.0 * math.pi
        for p in out:
            expected = 3.1 + (unwrapped_end - 3.1) * p.t / 3.0
            wrapped = math.pi - (math.pi - expected) % (2.0 * math.pi)
            assert p.heading == pytest.approx(wrapped, abs=1e-9)
            assert abs(p.heading) > 3.0  # never near zero

    def test_short_log_raises(self):
        samples = [PoseSample(i / 10.0, 0.0, 0.0, 0.0) for i in range(20)]
        with pytest.raises(InsufficientSpan):
            resample_uniform(samples, 10.0, 3.0)

    def test_non_monotonic_raises(self):
        samples = [
            PoseSample(0.0, 0.0, 0.0, 0.0),
            PoseSample(2.0, 1.0, 0.0, 0.0),
            PoseSample(1.5, 2.0, 0.0, 0.0),
            PoseSample(3.5, 3.0, 0.0, 0.0),
        ]
        with pytest.raises(NonMonotonicTime):
            resample_uniform(samples, 10.0, 3.0)

    def test_epoch_log_short_by_its_rounding_covers_the_window(self):
        """At Unix-epoch seconds a timestamp is rounded to 2.4e-7 s: a log
        one ulp short of 3 s covers the window, one 2e-6 s short does not."""
        t = 1.7e9 + np.arange(31) / 10.0
        t[-1] = np.nextafter(t[-1], 0.0)
        samples = [PoseSample(float(ti), 0.0, 0.0, 0.0) for ti in t]
        assert len(resample_uniform(samples, 10.0, 3.0)) == 31
        t[-1] -= 2e-6
        with pytest.raises(InsufficientSpan):
            resample_uniform([PoseSample(float(ti), 0.0, 0.0, 0.0) for ti in t], 10.0, 3.0)

    def test_idempotent_on_uniform_grid(self):
        times = np.arange(31) / 10.0
        samples = poses_from(
            lambda t: 3.0 * t, lambda t: 0.5 * t, lambda t: 0.1 * t, times
        )
        out = resample_uniform(samples, 10.0, 3.0)
        for original, resampled in zip(samples, out):
            assert resampled.t == pytest.approx(original.t, abs=1e-9)
            assert resampled.x == pytest.approx(original.x, abs=1e-9)
            assert resampled.y == pytest.approx(original.y, abs=1e-9)
            assert resampled.heading == pytest.approx(original.heading, abs=1e-9)


class TestSavgol:
    @pytest.mark.parametrize(
        "coeffs", [(0.3, -1.2, 2.0), (0.5, 4.0), (7.0,)]
    )
    def test_polynomial_reproduction(self, coeffs):
        t = np.linspace(0, 3, 31)
        values = np.polyval(coeffs, t)
        out = smooth_savgol(values, 7, 2)
        np.testing.assert_allclose(out, values, rtol=0, atol=1e-13)

    def test_polynomial_reproduction_matches_order(self):
        t = np.linspace(0, 3, 31)
        for poly_order in (2, 3, 4):
            coeffs = np.arange(poly_order + 1) + 1.0
            values = np.polyval(coeffs, t)
            out = smooth_savgol(values, 9, poly_order)
            np.testing.assert_allclose(out, values, atol=1e-9)

    def test_noise_variance_shrinks(self):
        rng = np.random.default_rng(0)
        noise = 0.05 * (-1.0) ** np.arange(31)
        values = 5.0 + noise
        out = smooth_savgol(values, 7, 2)
        assert np.var(out) < np.var(values)

    def test_window_of_one_copies_the_input(self):
        values = np.array([[1.5, -0.0, np.inf], [np.nan, 2.0, -3.0]])
        out = smooth_savgol(values, 1, 0)
        assert out.tobytes() == values.tobytes()
        assert not np.shares_memory(out, values)

    def test_window_too_large(self):
        with pytest.raises(WindowTooLarge):
            smooth_savgol([1.0, 2.0, 3.0, 4.0, 5.0], 9, 2)

    def test_even_window(self):
        with pytest.raises(EvenWindow):
            smooth_savgol(np.zeros(31), 6, 2)

    def test_bad_poly_order(self):
        with pytest.raises(ValueError):
            smooth_savgol(np.zeros(31), 5, 5)

    def test_derivation_coefficients_are_savgol_coeffs(self):
        """The interior weights of (7, 2) are (-2, 3, 6, 7, 6, 3, -2) / 21,
        each rounded once."""
        weights = _savgol_table(SAVGOL_WINDOW, SAVGOL_ORDER)[SAVGOL_WINDOW // 2]
        assert weights.tobytes() == (np.array([-2, 3, 6, 7, 6, 3, -2]) / 21).tobytes()

    @pytest.mark.parametrize(
        "window,poly_order",
        [(w, p) for w in range(3, 12, 2) for p in range(w)],
    )
    def test_bytes_equal_scipy_interp_mode(self, window, poly_order):
        """scipy's ``interp`` mode (edges from the polynomial fitted to the
        terminal window), with exact weights: the bytes are those of the
        scalar reference, and the error against the exact rational output
        is within 1e-15 of the row's largest input."""
        hat = gram_hat_matrix(window, poly_order)
        assert _savgol_table(window, poly_order).tolist() == [
            [float(h) for h in row] for row in hat]
        rng = np.random.default_rng(100 * window + poly_order)
        # n == window: the two edge fits cover the whole row.
        shapes = [(31,), (window,), (window + 1,), (40, 31), (9, window), (5, window + 2)]
        for shape in shapes:
            values = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
            out = smooth_savgol(values, window, poly_order)
            assert out.tobytes() == savgol_reference(values, window, poly_order).tobytes()
            rows = values.reshape(-1, shape[-1])
            exact = savgol_exact(rows, window, poly_order)
            for got, want, row in zip(out.reshape(rows.shape).tolist(), exact, rows):
                bound = Fraction(1e-15) * Fraction(float(np.max(np.abs(row))))
                assert all(abs(Fraction(g) - w) <= bound for g, w in zip(got, want))

    def test_close_to_scipy_savgol_filter(self):
        """Within 1e-14 of ``savgol_filter`` at (7, 2), relative to each
        row's largest input; scipy's own ``lstsq`` weights are not exact."""
        rng = np.random.default_rng(72)
        values = rng.normal(size=(200, 31)) * 10.0 ** rng.uniform(-3, 3, (200, 1))
        error = np.abs(smooth_savgol(values, 7, 2) - savgol_filter(values, 7, 2, mode="interp"))
        assert np.all(error <= 1e-14 * np.max(np.abs(values), axis=-1, keepdims=True))


def _pose_batch(bad_row):
    t = np.tile(GRID, (2, 1))
    x = np.vstack([10.0 * GRID, bad_row])
    zeros = np.zeros_like(t)
    return derive_pose_batch(t, x, zeros, zeros)


def _rate_batch(bad_row):
    t = np.tile(GRID, (2, 1))
    return derive_rate_batch(t, np.vstack([np.full(31, 5.0), bad_row]), np.zeros_like(t))


class TestDerivationOverflow:
    @pytest.mark.parametrize("derive", [_pose_batch, _rate_batch])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_row_raises_without_warning(self, derive, bad):
        row = np.full(31, 1.0)
        row[12] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidTrajectory, match="overflows: a derived value is not finite"):
                derive(row)


class TestDeriveStates:
    def test_straight_line(self):
        times = np.arange(31) / 10.0
        poses = poses_from(lambda t: 10.0 * t, lambda t: 0.0, lambda t: 0.0, times)
        seq = derive_states(poses)
        np.testing.assert_allclose(seq.v, 10.0, atol=1e-6)
        np.testing.assert_allclose(seq.a, 0.0, atol=1e-6)
        np.testing.assert_allclose(seq.j, 0.0, atol=1e-6)
        np.testing.assert_allclose(seq.omega, 0.0, atol=1e-6)

    def test_circular_arc(self):
        # speed 10 m/s on a 50 m radius: omega = 0.2 rad/s
        radius, speed = 50.0, 10.0
        w = speed / radius
        times = np.arange(31) / 10.0
        poses = poses_from(
            lambda t: radius * math.sin(w * t),
            lambda t: radius * (1.0 - math.cos(w * t)),
            lambda t: w * t,
            times,
        )
        seq = derive_states(poses)
        interior = slice(7, -7)
        np.testing.assert_allclose(seq.omega[interior], w, rtol=0.02)
        np.testing.assert_allclose(seq.v[interior], speed, rtol=0.02)
        assert np.max(np.abs(seq.a[interior])) < 0.02 * speed

    def test_constant_acceleration(self):
        times = np.arange(31) / 10.0
        poses = poses_from(lambda t: t * t, lambda t: 0.0, lambda t: 0.0, times)
        seq = derive_states(poses)
        interior = slice(7, -7)
        np.testing.assert_allclose(seq.v[interior], 2.0 * times[interior], rtol=0.02)
        np.testing.assert_allclose(seq.a[interior], 2.0, rtol=0.02)
        assert np.max(np.abs(seq.j[interior])) < 0.02 * 2.0

    def test_heading_unwrap_invariance(self):
        times = np.arange(31) / 10.0
        base = poses_from(lambda t: 5.0 * t, lambda t: 0.0, lambda t: 0.3 * t, times)
        shifted = [
            PoseSample(p.t, p.x, p.y, p.heading + 2.0 * math.pi) for p in base
        ]
        np.testing.assert_allclose(
            derive_states(base).omega, derive_states(shifted).omega, atol=1e-9
        )

    def test_from_rates_matches_channels(self):
        t = np.arange(31) / 10.0
        v = 5.0 + 0.5 * t
        omega = np.full_like(t, 0.1)
        seq = derive_states_from_rates(t, v, omega)
        np.testing.assert_allclose(seq.v, v, atol=1e-6)
        interior = slice(7, -7)
        np.testing.assert_allclose(seq.a[interior], 0.5, rtol=0.02)
        np.testing.assert_allclose(seq.omega, omega)
        # heading integrates the yaw rate
        np.testing.assert_allclose(seq.theta, 0.1 * t, atol=1e-9)


class TestSummarize:
    def test_all_zero(self):
        summary = summarize(make_seq())
        assert summary.max_speed == 0.0
        assert summary.mean_speed == 0.0
        assert summary.min_accel == 0.0
        assert summary.max_abs_jerk == 0.0
        assert summary.mean_abs_jerk == 0.0
        assert summary.max_abs_yaw_rate == 0.0
        assert summary.max_lat_accel == 0.0
        assert summary.total_heading_change == 0.0

    def test_lateral_accel_is_pointwise_product(self):
        summary = summarize(make_seq(v=10.0, omega=0.25))
        assert summary.max_lat_accel == pytest.approx(2.5)

    def test_net_heading_change(self):
        theta = np.linspace(0.0, 0.30, 31)
        summary = summarize(make_seq(theta=theta))
        assert summary.total_heading_change == pytest.approx(0.30)

    def test_sum_mode_counts_oscillation(self):
        theta = np.concatenate([np.linspace(0, 0.2, 16), np.linspace(0.2, 0, 15)])
        assert summarize(make_seq(theta=theta)).total_heading_change == pytest.approx(
            0.0, abs=1e-12
        )
        assert summarize(
            make_seq(theta=theta), heading_mode="sum"
        ).total_heading_change == pytest.approx(0.4, abs=1e-9)

    def test_speed_scaling_monotone(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(0, 12, 31)
        base = summarize(make_seq(v=v))
        scaled = summarize(make_seq(v=4.0 * v))
        assert scaled.max_speed == pytest.approx(4.0 * base.max_speed)
        assert scaled.mean_speed == pytest.approx(4.0 * base.mean_speed)

    def test_field_orderings_hold_on_random_clips(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            summary = summarize(random_seq(rng))
            assert summary.min_accel <= summary.mean_accel <= summary.max_accel
            assert summary.max_speed >= summary.mean_speed >= 0.0
            assert summary.max_abs_jerk >= summary.mean_abs_jerk >= 0.0
            assert summary.total_heading_change >= 0.0

    def test_percentiles_present(self):
        summary = summarize(make_seq(a=np.linspace(-2, 1, 31)))
        assert summary.percentiles["accel"]["p25"] <= summary.percentiles["accel"]["p75"]
        assert set(summary.percentiles) == {"accel", "abs_jerk"}


class TestStratification:
    def test_quiescent_clip(self, cfg):
        seq = make_seq()
        tags = stratification_tags(seq, summarize(seq), cfg)
        assert tags == {
            "has_turn": False,
            "has_braking": False,
            "has_aggressive": False,
        }
        assert stratification_bin(tags) == 0

    def test_braking_only(self, cfg):
        a = np.zeros(31)
        a[10] = -2.0
        seq = make_seq(a=a)
        tags = stratification_tags(seq, summarize(seq), cfg)
        assert tags == {
            "has_turn": False,
            "has_braking": True,
            "has_aggressive": False,
        }

    def test_turn_and_aggressive(self, cfg):
        seq = make_seq(omega=0.1, j=3.0)
        tags = stratification_tags(seq, summarize(seq), cfg)
        assert tags == {
            "has_turn": True,
            "has_braking": False,
            "has_aggressive": True,
        }
        assert stratification_bin(tags) == 5


class TestStateSequenceInvariants:
    def test_rejects_negative_speed(self):
        with pytest.raises(ValueError):
            make_seq(v=-1.0)

    def test_rejects_nan(self):
        v = np.zeros(31)
        v[5] = np.nan
        with pytest.raises(ValueError):
            make_seq(v=v)

    def test_rejects_irregular_grid(self):
        t = GRID.copy()
        t[10] += 0.01
        with pytest.raises(ValueError):
            StateSequence(
                t=t,
                v=np.zeros(31),
                a=np.zeros(31),
                j=np.zeros(31),
                omega=np.zeros(31),
                theta=np.zeros(31),
            )

    def test_epoch_grid_is_uniform_within_its_rounding(self):
        """Epoch seconds round to 2.4e-7 s, which the grid check forgives;
        an irregularity of 1e-5 s it does not."""
        zeros = np.zeros(31)
        t = 1.7e9 + GRID
        assert np.ptp(np.diff(t)) > 1e-9
        StateSequence(t=t, v=zeros, a=zeros, j=zeros, omega=zeros, theta=zeros)
        t[10] += 1e-5
        with pytest.raises(InvalidTrajectory, match="grid spacing must be constant"):
            StateSequence(t=t, v=zeros, a=zeros, j=zeros, omega=zeros, theta=zeros)

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            StateSequence(
                t=GRID,
                v=np.zeros(30),
                a=np.zeros(31),
                j=np.zeros(31),
                omega=np.zeros(31),
                theta=np.zeros(31),
            )
