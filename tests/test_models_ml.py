"""Unit tests for the ML forecasters (SSA, feed-forward, seasonal, ARIMA)."""

import numpy as np
import pytest

from repro.metrics.standard import mean_absolute_error
from repro.models.arima import ArimaConfig, ArimaForecaster
from repro.models.base import ForecastError
from repro.models.feedforward import FeedForwardConfig, FeedForwardForecaster
from repro.models.seasonal import SeasonalAdditiveForecaster, SeasonalConfig
from repro.models.ssa import SsaForecaster
from repro.timeseries.calendar import MINUTES_PER_DAY, MINUTES_PER_WEEK
from repro.timeseries.series import LoadSeries

from tests.helpers import POINTS_PER_DAY, diurnal_series, make_series


@pytest.fixture(scope="module")
def weekly_history() -> LoadSeries:
    """One week of a clean diurnal trace used to train every model."""
    return diurnal_series(7, base=20, amplitude=40, noise=1.0, seed=4)


@pytest.fixture(scope="module")
def next_day_truth() -> LoadSeries:
    return diurnal_series(8, base=20, amplitude=40, noise=1.0, seed=4).day(7)


class TestSsaForecaster:
    def test_forecast_tracks_diurnal_shape(self, weekly_history, next_day_truth):
        forecast = SsaForecaster(rank=6).fit(weekly_history).predict(POINTS_PER_DAY)
        error = mean_absolute_error(forecast.values, next_day_truth.values)
        assert error < 8.0

    def test_forecast_clipped_to_valid_range(self, weekly_history):
        forecast = SsaForecaster().fit(weekly_history).predict(POINTS_PER_DAY)
        assert forecast.minimum() >= 0.0
        assert forecast.maximum() <= 100.0

    def test_history_too_short_raises(self):
        with pytest.raises(ForecastError):
            SsaForecaster().fit(make_series([1.0, 2.0]))

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            SsaForecaster(rank=0)

    def test_custom_window(self, weekly_history):
        forecast = SsaForecaster(window_points=96, rank=4).fit(weekly_history).predict(48)
        assert len(forecast) == 48


class TestFeedForwardForecaster:
    def test_learns_diurnal_shape(self, weekly_history, next_day_truth):
        config = FeedForwardConfig(hidden_units=32, epochs=8, seed=1)
        forecast = FeedForwardForecaster(config).fit(weekly_history).predict(POINTS_PER_DAY)
        error = mean_absolute_error(forecast.values, next_day_truth.values)
        # The network should clearly beat a constant-mean prediction.
        baseline = mean_absolute_error(
            np.full(POINTS_PER_DAY, weekly_history.mean()), next_day_truth.values
        )
        assert error < baseline

    def test_deterministic_given_seed(self, weekly_history):
        config = FeedForwardConfig(epochs=2, seed=7)
        first = FeedForwardForecaster(config).fit(weekly_history).predict(48)
        second = FeedForwardForecaster(config).fit(weekly_history).predict(48)
        np.testing.assert_allclose(first.values, second.values)

    def test_history_too_short_raises(self):
        with pytest.raises(ForecastError):
            FeedForwardForecaster().fit(make_series(np.ones(100)))

    def test_multi_chunk_forecast_length(self, weekly_history):
        config = FeedForwardConfig(epochs=2, seed=3)
        forecast = FeedForwardForecaster(config).fit(weekly_history).predict(POINTS_PER_DAY + 7)
        assert len(forecast) == POINTS_PER_DAY + 7


class TestSeasonalAdditiveForecaster:
    def test_learns_daily_seasonality(self, weekly_history, next_day_truth):
        forecast = SeasonalAdditiveForecaster().fit(weekly_history).predict(POINTS_PER_DAY)
        error = mean_absolute_error(forecast.values, next_day_truth.values)
        assert error < 8.0

    def test_selected_hyperparameters_exposed(self, weekly_history):
        model = SeasonalAdditiveForecaster().fit(weekly_history)
        selected = model.selected_hyperparameters
        assert "alpha" in selected and "n_changepoints" in selected
        assert selected["alpha"] in SeasonalConfig().ridge_candidates

    def test_history_too_short_raises(self):
        with pytest.raises(ForecastError):
            SeasonalAdditiveForecaster().fit(make_series([1.0, 2.0]))

    def test_flat_history_predicts_flat(self):
        history = make_series(np.full(7 * POINTS_PER_DAY, 42.0))
        forecast = SeasonalAdditiveForecaster().fit(history).predict(96)
        assert np.all(np.abs(forecast.values - 42.0) < 3.0)


class _ReferenceSeasonalForecaster(SeasonalAdditiveForecaster):
    """The seasonal fit as first written -- a fresh train and valid design
    per changepoint candidate and a fresh gram per ridge strength -- kept as
    the oracle the shared-design fit must match bit for bit."""

    def _design(self, timestamps, changepoints):
        cfg = self._config
        t = (timestamps - self._t_offset) / self._t_scale
        columns = [np.ones_like(t), t]
        for changepoint in changepoints:
            columns.append(np.maximum(t - changepoint, 0.0))
        day_phase = 2.0 * np.pi * (timestamps % MINUTES_PER_DAY) / MINUTES_PER_DAY
        for order in range(1, cfg.daily_order + 1):
            columns.append(np.sin(order * day_phase))
            columns.append(np.cos(order * day_phase))
        week_phase = 2.0 * np.pi * (timestamps % MINUTES_PER_WEEK) / MINUTES_PER_WEEK
        for order in range(1, cfg.weekly_order + 1):
            columns.append(np.sin(order * week_phase))
            columns.append(np.cos(order * week_phase))
        return np.column_stack(columns)

    @staticmethod
    def _ridge_fit(design, target, alpha):
        gram = design.T @ design
        gram += alpha * np.eye(gram.shape[0])
        return np.linalg.solve(gram, design.T @ target)

    def _fit(self, history):
        cfg = self._config
        timestamps = history.timestamps.astype(np.float64)
        values = history.values.astype(np.float64)
        if values.shape[0] < 4:
            raise ForecastError(f"{self.name}: history too short")

        self._t_offset = float(timestamps[0])
        self._t_scale = max(float(timestamps[-1] - timestamps[0]), 1.0)

        holdout = max(1, int(cfg.holdout_fraction * values.shape[0]))
        train_ts, train_vs = timestamps[:-holdout], values[:-holdout]
        valid_ts, valid_vs = timestamps[-holdout:], values[-holdout:]
        if train_vs.shape[0] < 4:
            train_ts, train_vs = timestamps, values
            valid_ts, valid_vs = timestamps, values

        best = (float("inf"), cfg.ridge_candidates[0], cfg.changepoint_candidates[0])
        for n_changepoints in cfg.changepoint_candidates:
            changepoints = self._make_changepoints(n_changepoints)
            train_design = self._design(train_ts, changepoints)
            valid_design = self._design(valid_ts, changepoints)
            for alpha in cfg.ridge_candidates:
                coefficients = self._ridge_fit(train_design, train_vs, alpha)
                error = float(np.mean((valid_design @ coefficients - valid_vs) ** 2))
                if error < best[0]:
                    best = (error, alpha, n_changepoints)

        _, alpha, n_changepoints = best
        self._selected = {"alpha": alpha, "n_changepoints": float(n_changepoints)}
        self._changepoints = self._make_changepoints(n_changepoints)
        full_design = self._design(timestamps, self._changepoints)
        self._coefficients = self._ridge_fit(full_design, values, alpha)


def _cyclic_history(n_points: int, seed: int, kink: float, interval: int = 15) -> LoadSeries:
    """Daily and weekly cycles plus noise on an ``interval``-minute grid; the
    trend bends upward by ``kink`` per point from the middle of the window."""
    rng = np.random.default_rng(seed)
    index = np.arange(n_points)
    minutes = index * interval
    values = (
        30.0
        + 20.0 * np.sin(2.0 * np.pi * (minutes % MINUTES_PER_DAY) / MINUTES_PER_DAY)
        + 8.0 * np.cos(2.0 * np.pi * (minutes % MINUTES_PER_WEEK) / MINUTES_PER_WEEK)
        + kink * np.maximum(index - n_points // 2, 0)
        + rng.normal(0.0, 2.0, n_points)
    )
    return LoadSeries.from_values(values, start=2 * MINUTES_PER_WEEK, interval_minutes=interval)


class TestSeasonalFitMatchesReference:
    """The shared-design fit is byte-identical to the per-candidate one."""

    @pytest.mark.parametrize(
        ("history", "n_changepoints"),
        [
            pytest.param(_cyclic_history(1728, seed=0, kink=0.04), 25.0, id="1728-points"),
            pytest.param(_cyclic_history(2016, seed=0, kink=0.04), 6.0, id="2016-points"),
            # The fleet's training histories: one week of 5-minute samples.
            pytest.param(_cyclic_history(2016, seed=1, kink=0.01, interval=5), 25.0, id="5-minute"),
            # train = 4 - 1 < 4 points: train and valid are the full window.
            pytest.param(make_series([10.0, 30.0, 20.0, 40.0], interval=15), 25.0, id="short"),
            pytest.param(_cyclic_history(2016, seed=0, kink=0.0), 0.0, id="no-changepoints"),
        ],
    )
    def test_predictions_and_selection_identical(self, history, n_changepoints):
        fitted = SeasonalAdditiveForecaster().fit(history)
        reference = _ReferenceSeasonalForecaster().fit(history)
        assert fitted.selected_hyperparameters == reference.selected_hyperparameters
        assert fitted.selected_hyperparameters["n_changepoints"] == n_changepoints
        assert np.array_equal(
            fitted.predict(POINTS_PER_DAY).values, reference.predict(POINTS_PER_DAY).values
        )


class TestArimaForecaster:
    def test_forecast_on_autoregressive_signal(self):
        rng = np.random.default_rng(0)
        n = 600
        values = np.zeros(n)
        for t in range(1, n):
            values[t] = 0.8 * values[t - 1] + rng.normal(0, 1.0)
        values = np.clip(values + 30.0, 0, 100)
        history = make_series(values, interval=15)
        config = ArimaConfig(max_p=2, max_d=1, max_q=1, max_training_points=400)
        forecaster = ArimaForecaster(config).fit(history)
        forecast = forecaster.predict(8)
        assert len(forecast) == 8
        assert forecaster.order[0] >= 1  # picked an autoregressive order

    def test_history_too_short_raises(self):
        with pytest.raises(ForecastError):
            ArimaForecaster().fit(make_series(np.ones(8)))

    def test_training_points_cap_applies(self):
        config = ArimaConfig(max_p=1, max_d=0, max_q=0, max_training_points=64)
        history = make_series(np.sin(np.arange(500)) * 10 + 30)
        forecaster = ArimaForecaster(config).fit(history)
        assert len(forecaster.predict(4)) == 4

    def test_arima_is_markedly_slower_than_persistent(self):
        """The paper excludes ARIMA because its per-server order search is
        orders of magnitude more expensive than persistent forecast."""
        import time

        from repro.models.persistent import PreviousDayForecaster

        history = diurnal_series(7, noise=1.0, seed=9)

        start = time.perf_counter()
        PreviousDayForecaster().fit(history).predict(POINTS_PER_DAY)
        persistent_time = time.perf_counter() - start

        start = time.perf_counter()
        ArimaForecaster(ArimaConfig(max_p=1, max_d=1, max_q=1, max_training_points=576)).fit(
            history
        ).predict(POINTS_PER_DAY)
        arima_time = time.perf_counter() - start

        assert arima_time > 5 * persistent_time
