"""Additive trend + seasonality forecaster (the Prophet stand-in).

Prophet fits an additive model of a piecewise-linear trend plus Fourier
seasonalities.  This module reproduces that decomposition with ridge
regression on a design matrix of changepoint-hinge trend features and
daily/weekly Fourier features, selecting the regularisation strength and
changepoint flexibility on a hold-out tail of the history.

Unlike Prophet, which the paper found the slowest model (Section 5.3.3),
this stand-in is cheap: the changepoint-independent columns are built once
per fit, each changepoint candidate adds only its hinge columns, and each
candidate's gram matrix is shared by every ridge strength.  On the fleet
benchmark's training histories (6-7 days of 5-minute samples) a fit plus
a one-day prediction takes ~5 ms, against ~120-140 ms for SSA and the
feed-forward network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.models.base import Forecaster, ForecastError
from repro.timeseries.calendar import MINUTES_PER_DAY, MINUTES_PER_WEEK
from repro.timeseries.series import LoadSeries


@dataclass(frozen=True)
class SeasonalConfig:
    """Hyper-parameters of the additive seasonal forecaster."""

    daily_order: int = 8
    weekly_order: int = 3
    n_changepoints: int = 12
    ridge_candidates: tuple[float, ...] = (0.1, 1.0, 10.0, 100.0)
    changepoint_candidates: tuple[int, ...] = (0, 6, 12, 25)
    holdout_fraction: float = 0.2


class SeasonalAdditiveForecaster(Forecaster):
    """Piecewise-linear trend plus daily/weekly Fourier seasonality."""

    name = "seasonal_additive"

    def __init__(self, config: SeasonalConfig | None = None) -> None:
        super().__init__()
        self._config = config if config is not None else SeasonalConfig()
        self._coefficients: np.ndarray | None = None
        self._changepoints: np.ndarray = np.empty(0)
        self._t_scale = 1.0
        self._t_offset = 0.0
        self._selected: dict[str, float] = {}

    @property
    def config(self) -> SeasonalConfig:
        return self._config

    @property
    def selected_hyperparameters(self) -> dict[str, float]:
        """The ridge strength and changepoint count chosen on the hold-out."""
        return dict(self._selected)

    # ------------------------------------------------------------------ #
    # Design matrix
    # ------------------------------------------------------------------ #

    def _base_columns(self, timestamps: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """The changepoint-independent columns: normalised ``t`` and the
        daily then weekly Fourier terms."""
        cfg = self._config
        t = (timestamps - self._t_offset) / self._t_scale
        seasonal: list[np.ndarray] = []
        day_phase = 2.0 * np.pi * (timestamps % MINUTES_PER_DAY) / MINUTES_PER_DAY
        for order in range(1, cfg.daily_order + 1):
            seasonal.append(np.sin(order * day_phase))
            seasonal.append(np.cos(order * day_phase))
        week_phase = 2.0 * np.pi * (timestamps % MINUTES_PER_WEEK) / MINUTES_PER_WEEK
        for order in range(1, cfg.weekly_order + 1):
            seasonal.append(np.sin(order * week_phase))
            seasonal.append(np.cos(order * week_phase))
        return t, seasonal

    @staticmethod
    def _assemble(
        t: np.ndarray, changepoints: np.ndarray, seasonal: list[np.ndarray]
    ) -> np.ndarray:
        """Intercept, ``t``, one hinge per changepoint, then ``seasonal``."""
        hinges = [np.maximum(t - changepoint, 0.0) for changepoint in changepoints]
        return np.column_stack([np.ones_like(t), t, *hinges, *seasonal])

    def _design(self, timestamps: np.ndarray, changepoints: np.ndarray) -> np.ndarray:
        t, seasonal = self._base_columns(timestamps)
        return self._assemble(t, changepoints, seasonal)

    @staticmethod
    def _ridge_solve(gram: np.ndarray, moment: np.ndarray, alpha: float) -> np.ndarray:
        """Solve ``(gram + alpha * I) w = moment``; ``gram`` is left untouched."""
        gram = gram.copy()
        gram += alpha * np.eye(gram.shape[0])
        return np.linalg.solve(gram, moment)

    def _make_changepoints(self, n_changepoints: int) -> np.ndarray:
        if n_changepoints <= 0:
            return np.empty(0)
        # Changepoints on the first 80% of the (normalised) training range,
        # matching Prophet's default behaviour.
        return np.linspace(0.0, 0.8, n_changepoints + 2)[1:-1]

    # ------------------------------------------------------------------ #
    # Forecaster hooks
    # ------------------------------------------------------------------ #

    def _fit(self, history: LoadSeries) -> None:
        cfg = self._config
        timestamps = history.timestamps.astype(np.float64)
        values = history.values.astype(np.float64)
        if values.shape[0] < 4:
            raise ForecastError(f"{self.name}: history too short")

        self._t_offset = float(timestamps[0])
        self._t_scale = max(float(timestamps[-1] - timestamps[0]), 1.0)

        # Train and valid are row slices of one full-window design per
        # changepoint candidate; the hold-out is the tail of the history.
        n_train = values.shape[0] - max(1, int(cfg.holdout_fraction * values.shape[0]))
        train_rows, valid_rows = slice(None, n_train), slice(n_train, None)
        if n_train < 4:
            train_rows = valid_rows = slice(None)
        train_vs, valid_vs = values[train_rows], values[valid_rows]

        t, seasonal = self._base_columns(timestamps)
        best = (float("inf"), cfg.ridge_candidates[0], cfg.changepoint_candidates[0])
        best_design: np.ndarray | None = None
        for n_changepoints in cfg.changepoint_candidates:
            design = self._assemble(t, self._make_changepoints(n_changepoints), seasonal)
            train, valid = design[train_rows], design[valid_rows]
            gram, moment = train.T @ train, train.T @ train_vs
            for alpha in cfg.ridge_candidates:
                coefficients = self._ridge_solve(gram, moment, alpha)
                error = float(np.mean((valid @ coefficients - valid_vs) ** 2))
                if error < best[0]:
                    best = (error, alpha, n_changepoints)
            if best[2] == n_changepoints:  # the best so far uses this design
                best_design = design

        _, alpha, n_changepoints = best
        self._selected = {"alpha": alpha, "n_changepoints": float(n_changepoints)}
        self._changepoints = self._make_changepoints(n_changepoints)
        assert best_design is not None  # set by the first candidate at the latest
        gram = best_design.T @ best_design
        self._coefficients = self._ridge_solve(gram, best_design.T @ values, alpha)

    def _predict_values(self, n_points: int) -> np.ndarray:
        assert self._coefficients is not None and self._history is not None
        interval = self._history.interval_minutes
        start = self._history.end + interval
        future_ts = start + np.arange(n_points, dtype=np.float64) * interval
        design = self._design(future_ts, self._changepoints)
        return design @ self._coefficients
