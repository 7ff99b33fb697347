"""Welch's t-test as used by Test Vector Leakage Assessment (TVLA).

Implements Eq. (1) of the paper: for two trace groups ``Q0`` and ``Q1`` with
sample means ``mu0``/``mu1``, sample variances ``s0^2``/``s1^2`` and
cardinalities ``n0``/``n1``::

    t = (mu0 - mu1) / sqrt(s0^2/n0 + s1^2/n1)

    v = (s0^2/n0 + s1^2/n1)^2 /
        ( (s0^2/n0)^2/(n0-1) + (s1^2/n1)^2/(n1-1) )

A design point is regarded as leaking when ``|t| > 4.5`` (with ``v > 1000``
this corresponds to a p-value below 1e-5, i.e. > 99.999 % confidence against
the null hypothesis of equal means).  All functions are vectorised: the
inputs may be matrices whose columns are different gates/sample points.

Higher-order TVLA (Schneider & Moradi) preprocesses each trace before the
t-test: order 2 compares the *centered squares* ``(y - mu)^2`` (i.e. the
variances) of the two groups, order 3 the *standardised cubes*
``((y - mu) / sigma)^3`` (the skewnesses).  Masked implementations that pass
first-order TVLA are evaluated against exactly these tests.  Because the
mean and variance of the preprocessed traces are polynomial in the central
moments of the raw traces, :func:`welch_higher_order` computes them directly
from :class:`OnePassMoments` accumulators — no second pass over the traces,
and sharded partial accumulators work unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np
from scipy import stats

from .moments import OnePassMoments

#: TVLA distinguishability threshold on |t| (paper §II-A).
TVLA_THRESHOLD = 4.5


@dataclass(frozen=True)
class WelchResult:
    """Result of a (vectorised) Welch's t-test.

    Attributes:
        t_statistic: t value(s); same shape as the input columns.
        degrees_of_freedom: Welch–Satterthwaite degrees of freedom.
        p_value: Two-sided p-value(s) from the t distribution.
    """

    t_statistic: np.ndarray
    degrees_of_freedom: np.ndarray
    p_value: np.ndarray

    def exceeds_threshold(self, threshold: float = TVLA_THRESHOLD) -> np.ndarray:
        """Boolean mask of points whose ``|t|`` exceeds ``threshold``."""
        return np.abs(self.t_statistic) > threshold


def _column_stats(samples: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, np.newaxis]
    if samples.shape[0] < 2:
        raise ValueError("each group needs at least 2 traces")
    mean = samples.mean(axis=0)
    variance = samples.var(axis=0, ddof=1)
    return mean, variance, samples.shape[0]


def welch_t_test(group0: np.ndarray, group1: np.ndarray) -> WelchResult:
    """Run Welch's t-test column-wise on two trace matrices.

    Args:
        group0: Traces of the first group, shape ``(n0,)`` or ``(n0, k)``.
        group1: Traces of the second group, shape ``(n1,)`` or ``(n1, k)``.

    Returns:
        A :class:`WelchResult` with per-column statistics.  When both inputs
        are 1-D the result fields are scalars (0-d arrays).
    """
    scalar_inputs = (np.asarray(group0).ndim == 1 and np.asarray(group1).ndim == 1)
    mean0, var0, n0 = _column_stats(group0)
    mean1, var1, n1 = _column_stats(group1)
    result = welch_from_moments(mean0, var0, n0, mean1, var1, n1)
    if scalar_inputs:
        result = WelchResult(
            t_statistic=result.t_statistic.reshape(()),
            degrees_of_freedom=result.degrees_of_freedom.reshape(()),
            p_value=np.asarray(result.p_value).reshape(()),
        )
    return result


def welch_from_moments(
    mean0: Union[float, np.ndarray],
    var0: Union[float, np.ndarray],
    n0: int,
    mean1: Union[float, np.ndarray],
    var1: Union[float, np.ndarray],
    n1: int,
) -> WelchResult:
    """Welch's t-test from pre-computed means/variances (one-pass pipeline).

    This is the entry point used with :class:`OnePassMoments`, matching the
    acquisition-time moment computation of Schneider & Moradi.
    """
    mean0 = np.asarray(mean0, dtype=float)
    mean1 = np.asarray(mean1, dtype=float)
    var0 = np.asarray(var0, dtype=float)
    var1 = np.asarray(var1, dtype=float)
    if n0 < 2 or n1 < 2:
        raise ValueError("both groups need at least 2 traces")

    se0 = var0 / n0
    se1 = var1 / n1
    denominator = np.sqrt(se0 + se1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_statistic = np.where(denominator > 0,
                               (mean0 - mean1) / np.maximum(denominator, 1e-300),
                               0.0)
        dof_numerator = (se0 + se1) ** 2
        dof_denominator = (se0 ** 2) / (n0 - 1) + (se1 ** 2) / (n1 - 1)
        degrees = np.where(dof_denominator > 0,
                           dof_numerator / np.maximum(dof_denominator, 1e-300),
                           float(n0 + n1 - 2))
    p_value = 2.0 * stats.t.sf(np.abs(t_statistic), np.maximum(degrees, 1.0))
    return WelchResult(np.asarray(t_statistic, dtype=float),
                       np.asarray(degrees, dtype=float),
                       np.asarray(p_value, dtype=float))


def welch_from_accumulators(acc0: OnePassMoments,
                            acc1: OnePassMoments) -> WelchResult:
    """Welch's t-test from two :class:`OnePassMoments` accumulators."""
    if acc0.count < 2 or acc1.count < 2:
        raise ValueError("both accumulators need at least 2 samples")
    return welch_from_moments(acc0.mean, acc0.variance, acc0.count,
                              acc1.mean, acc1.variance, acc1.count)


def moment_order_for_tvla(order: int) -> int:
    """Accumulator ``max_order`` needed for an order-``order`` t-test.

    The order-d preprocessed trace has mean and variance polynomial in the
    raw central moments up to order ``2 * d`` (order 1 only needs the
    variance, i.e. order 2).
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError("TVLA order must be an integer >= 1")
    return 2 if order == 1 else 2 * int(order)


def _preprocessed_moments(acc: OnePassMoments,
                          order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sample mean and unbiased variance of the order-d preprocessed traces.

    For ``Z = (y - mu)^2`` (order 2): ``E[Z] = CM2`` and
    ``Var[Z] = CM4 - CM2^2``; for ``Z = ((y - mu)/sigma)^3`` (order 3,
    standardised with the biased sigma): ``E[Z] = CM3 / CM2^1.5`` and
    ``Var[Z] = (CM6 - CM3^2) / CM2^3``.  The biased variances are rescaled
    by ``n / (n - 1)`` so the result matches a two-pass Welch t-test over
    the explicitly preprocessed traces.  Zero-variance points yield zeros
    (and therefore a zero t), never NaN/inf.
    """
    n = acc.count
    cm2 = acc.central_moment(2)
    if order == 2:
        mean_z = cm2
        var_z = acc.central_moment(4) - cm2 ** 2
    elif order == 3:
        cm3 = acc.central_moment(3)
        cm6 = acc.central_moment(6)
        with np.errstate(divide="ignore", invalid="ignore"):
            safe = np.maximum(cm2, 1e-300)
            mean_z = np.where(cm2 > 0, cm3 / safe ** 1.5, 0.0)
            var_z = np.where(cm2 > 0, (cm6 - cm3 ** 2) / safe ** 3, 0.0)
    else:
        raise ValueError(f"unsupported higher-order TVLA order {order}")
    # Clamp tiny negative values from catastrophic cancellation and undo
    # the bias so the variance matches ddof=1 on the preprocessed traces.
    var_z = np.maximum(var_z, 0.0) * (n / (n - 1.0))
    return np.asarray(mean_z, dtype=float), np.asarray(var_z, dtype=float)


def welch_higher_order(acc0: OnePassMoments, acc1: OnePassMoments,
                       order: int) -> WelchResult:
    """Order-``order`` TVLA t-test from two moment accumulators.

    Args:
        acc0: Accumulator of the first trace group, tracking central
            moments up to at least :func:`moment_order_for_tvla`.
        acc1: Same for the second group.
        order: 1 (plain Welch on the means), 2 (centered-variance test) or
            3 (standardised-skewness test).

    Returns:
        A :class:`WelchResult` equivalent to running :func:`welch_t_test`
        on the order-``order`` preprocessed traces of both groups.

    Raises:
        ValueError: for unsupported orders, accumulators that do not track
            enough moments, or fewer than 2 samples per group.

    Order 3 is the Schneider–Moradi statistic as published: it divides by
    ``Var[z^3] = mu6``, while the sample skewness it averages has the
    delta-method variance ``(mu6 - 6 mu4 + 9) / n``.  Under the null its
    |t| is therefore scaled by ``sqrt((mu6 - 6 mu4 + 9) / mu6)``: 0.632
    for Gaussian noise, 0.612 for the fast sampler's popcount noise, so
    the 4.5 threshold acts like ~7.1 sigma at order 3 (~7.4 sigma under
    popcount noise).
    ``tests/test_tvla.py::TestNullCalibration`` pins that scale.
    """
    if order == 1:
        return welch_from_accumulators(acc0, acc1)
    required = moment_order_for_tvla(order)
    for acc in (acc0, acc1):
        if acc.max_order < required:
            raise ValueError(
                f"order-{order} TVLA needs central moments up to "
                f"{required}; accumulator tracks {acc.max_order}")
    if acc0.count < 2 or acc1.count < 2:
        raise ValueError("both accumulators need at least 2 samples")
    mean0, var0 = _preprocessed_moments(acc0, order)
    mean1, var1 = _preprocessed_moments(acc1, order)
    return welch_from_moments(mean0, var0, acc0.count, mean1, var1, acc1.count)
