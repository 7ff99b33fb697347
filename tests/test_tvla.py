"""Tests for the TVLA engine: moments, Welch's t-test, gate assessment."""

import pickle
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import stats

from repro.core.config import paper_configuration
from repro.masking import apply_masking, maskable_gates
from repro.netlist import load_benchmark
from repro.power import (
    CounterStream,
    GatePowerModel,
    PowerModelConfig,
    PowerTraceGenerator,
)
from repro.tvla import (
    OnePassMoments,
    TVLA_THRESHOLD,
    TvlaConfig,
    assess_leakage,
    campaign_schedule,
    compare_assessments,
    moment_order_for_tvla,
    welch_from_accumulators,
    welch_from_moments,
    welch_higher_order,
    welch_t_test,
)
from repro.tvla.assessment import aggregate_class_results


class TestOnePassMoments:
    def test_mean_and_variance_match_numpy(self, rng):
        samples = rng.normal(3.0, 2.0, size=500)
        acc = OnePassMoments(max_order=2)
        acc.update_batch(samples)
        assert acc.mean == pytest.approx(samples.mean())
        assert acc.variance == pytest.approx(samples.var(ddof=1))
        assert acc.standard_deviation == pytest.approx(samples.std(ddof=1))

    def test_vectorised_accumulation(self, rng):
        samples = rng.normal(size=(300, 7))
        acc = OnePassMoments(max_order=2, shape=(7,))
        acc.update_batch(samples)
        np.testing.assert_allclose(acc.mean, samples.mean(axis=0))
        np.testing.assert_allclose(acc.variance, samples.var(axis=0, ddof=1))

    def test_higher_order_moments(self, rng):
        samples = rng.exponential(2.0, size=2000)
        acc = OnePassMoments(max_order=4)
        acc.update_batch(samples)
        assert acc.central_moment(3) == pytest.approx(
            ((samples - samples.mean()) ** 3).mean(), rel=1e-6)
        assert acc.central_moment(4) == pytest.approx(
            ((samples - samples.mean()) ** 4).mean(), rel=1e-6)
        assert acc.skewness() == pytest.approx(stats.skew(samples), rel=1e-6)
        assert acc.kurtosis() == pytest.approx(stats.kurtosis(samples, fisher=False),
                                               rel=1e-6)

    def test_merge_equals_sequential(self, rng):
        first = rng.normal(size=400)
        second = rng.normal(2.0, 3.0, size=250)
        acc_a = OnePassMoments(max_order=4)
        acc_a.update_batch(first)
        acc_b = OnePassMoments(max_order=4)
        acc_b.update_batch(second)
        merged = acc_a.merge(acc_b)
        reference = OnePassMoments(max_order=4)
        reference.update_batch(np.concatenate([first, second]))
        assert merged.count == reference.count
        assert merged.mean == pytest.approx(reference.mean)
        assert merged.variance == pytest.approx(reference.variance)
        assert merged.central_moment(3) == pytest.approx(reference.central_moment(3))
        assert merged.central_moment(4) == pytest.approx(reference.central_moment(4))

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_batched_update_matches_single_stream(self, rng, order):
        # The vectorised batch merge (Chan/Pébay) must agree with folding
        # the samples in one at a time, for every tracked order.
        samples = rng.gamma(2.0, 1.5, size=(1003, 5))
        sequential = OnePassMoments(max_order=order, shape=(5,))
        for sample in samples:
            sequential.update(sample)
        batched = OnePassMoments(max_order=order, shape=(5,))
        for chunk in np.array_split(samples, 7):
            batched.update_batch(chunk)
        assert batched.count == sequential.count
        np.testing.assert_allclose(batched.mean, sequential.mean, rtol=1e-10)
        np.testing.assert_allclose(batched.variance, sequential.variance,
                                   rtol=1e-9)
        for moment in range(2, order + 1):
            np.testing.assert_allclose(batched.central_moment(moment),
                                       sequential.central_moment(moment),
                                       rtol=1e-8)

    def test_merge_matches_batched_update(self, rng):
        first = rng.normal(size=(400, 3))
        second = rng.normal(1.0, 2.0, size=(300, 3))
        acc_a = OnePassMoments(max_order=4, shape=(3,))
        acc_a.update_batch(first)
        acc_b = OnePassMoments(max_order=4, shape=(3,))
        acc_b.update_batch(second)
        merged = acc_a.merge(acc_b)
        combined = OnePassMoments(max_order=4, shape=(3,))
        combined.update_batch(np.concatenate([first, second]))
        np.testing.assert_allclose(merged.mean, combined.mean)
        np.testing.assert_allclose(merged.central_moment(4),
                                   combined.central_moment(4), rtol=1e-9)

    def test_higher_orders_still_track_odd_sums(self, rng):
        # Exactness guard: order-4/6 accumulators must keep their odd
        # central sums (the pairwise merge needs them); only max_order == 2
        # accumulators skip them.
        acc = OnePassMoments(max_order=4, shape=(3,))
        acc.update_batch(rng.normal(size=(50, 3)))
        assert len(acc._sums) == 3  # orders 2, 3, 4
        assert np.abs(acc.central_moment(3)).max() > 0

    def test_empty_batch_is_a_no_op(self):
        acc = OnePassMoments(shape=(2,))
        acc.update_batch(np.empty((0, 2)))
        assert acc.count == 0

    def test_batch_shape_mismatch_rejected(self):
        acc = OnePassMoments(shape=(3,))
        with pytest.raises(ValueError):
            acc.update_batch(np.zeros((5, 4)))
        with pytest.raises(ValueError):
            acc.update_batch(np.float64(1.0))

    def test_shape_mismatch_rejected(self):
        acc = OnePassMoments(shape=(3,))
        with pytest.raises(ValueError):
            acc.update(np.zeros(4))

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            OnePassMoments(max_order=1)
        with pytest.raises(ValueError):
            OnePassMoments(max_order=2.5)
        acc = OnePassMoments(max_order=2)
        acc.update(1.0)
        with pytest.raises(ValueError):
            acc.central_moment(3)

    def test_arbitrary_order_matches_numpy(self, rng):
        # The generalised Pébay combine tracks any order; order 5/6 back the
        # order-3 standardised TVLA test.
        samples = rng.exponential(1.0, size=(1500, 3))
        acc = OnePassMoments(max_order=6, shape=(3,))
        for chunk in np.array_split(samples, 9):
            acc.update_batch(chunk)
        centred = samples - samples.mean(axis=0)
        for order in (2, 3, 4, 5, 6):
            np.testing.assert_allclose(acc.central_moment(order),
                                       (centred ** order).mean(axis=0),
                                       rtol=1e-9)


class TestWelch:
    def test_matches_scipy(self, rng):
        group0 = rng.normal(0.0, 1.0, size=300)
        group1 = rng.normal(0.4, 1.5, size=280)
        result = welch_t_test(group0, group1)
        reference = stats.ttest_ind(group0, group1, equal_var=False)
        assert float(result.t_statistic) == pytest.approx(reference.statistic)
        assert float(result.p_value) == pytest.approx(reference.pvalue, rel=1e-6)

    @staticmethod
    def _skewed_groups():
        """Two multi-column groups of unequal size, spread and skew, so the
        order-1/2/3 statistics are all non-trivial."""
        rng = np.random.default_rng(20251017)
        group0 = (rng.gamma(2.0, 1.5, size=(1500, 6))
                  + rng.normal(0.0, 0.1, size=(1500, 6)))
        group1 = rng.gamma(2.4, 1.3, size=(1300, 6))
        return group0, group1

    @staticmethod
    def _chunked_accumulator(samples, n_chunks):
        """Fold ``samples`` through ``n_chunks`` uneven ``update_batch``
        calls, as the streaming driver folds its trace chunks."""
        acc = OnePassMoments(max_order=6, shape=(samples.shape[1],))
        for chunk in np.array_split(samples, n_chunks):
            acc.update_batch(chunk)
        return acc

    @staticmethod
    def _assert_matches(result, reference):
        # Measured agreement is <= 6e-12 relative; the pins leave ~100x.
        np.testing.assert_allclose(result.t_statistic, reference.statistic,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(result.p_value, reference.pvalue,
                                   rtol=1e-9, atol=1e-15)
        np.testing.assert_allclose(result.degrees_of_freedom, reference.df,
                                   rtol=1e-9)

    def test_accumulators_match_scipy(self):
        """The streamed path every paper-scale run takes, against scipy."""
        group0, group1 = self._skewed_groups()
        result = welch_from_accumulators(
            self._chunked_accumulator(group0, 7),
            self._chunked_accumulator(group1, 5))
        reference = stats.ttest_ind(group0, group1, equal_var=False)
        self._assert_matches(result, reference)

    @pytest.mark.parametrize("order", [2, 3])
    def test_higher_order_matches_scipy_on_preprocessed(self, order):
        """Orders 2/3 from central moments equal scipy's Welch test on the
        explicitly preprocessed traces: ``(x - mean)**2`` for order 2 and
        ``((x - mean) / sigma)**3`` (biased sigma) for order 3."""
        group0, group1 = self._skewed_groups()

        def preprocess(samples):
            centred = samples - samples.mean(axis=0)
            if order == 2:
                return centred ** 2
            return (centred / samples.std(axis=0)) ** 3

        result = welch_higher_order(self._chunked_accumulator(group0, 7),
                                    self._chunked_accumulator(group1, 5),
                                    order)
        reference = stats.ttest_ind(preprocess(group0), preprocess(group1),
                                    equal_var=False)
        self._assert_matches(result, reference)

    def test_vectorised_columns(self, rng):
        group0 = rng.normal(size=(200, 5))
        group1 = rng.normal(0.3, 1.0, size=(200, 5))
        result = welch_t_test(group0, group1)
        assert result.t_statistic.shape == (5,)
        reference = stats.ttest_ind(group0, group1, equal_var=False, axis=0)
        np.testing.assert_allclose(result.t_statistic, reference.statistic)

    def test_identical_groups_give_zero_t(self):
        samples = np.ones(100)
        result = welch_t_test(samples, samples)
        assert float(result.t_statistic) == 0.0

    def test_threshold_mask(self, rng):
        group0 = rng.normal(0.0, 1.0, size=5000)
        group1 = rng.normal(5.0, 1.0, size=5000)
        result = welch_t_test(group0, group1)
        assert result.exceeds_threshold().all()
        assert abs(float(result.t_statistic)) > TVLA_THRESHOLD

    def test_from_moments_and_accumulators_agree(self, rng):
        group0 = rng.normal(size=400)
        group1 = rng.normal(0.2, 2.0, size=350)
        direct = welch_t_test(group0, group1)
        from_moments = welch_from_moments(group0.mean(), group0.var(ddof=1),
                                          group0.size, group1.mean(),
                                          group1.var(ddof=1), group1.size)
        acc0 = OnePassMoments()
        acc0.update_batch(group0)
        acc1 = OnePassMoments()
        acc1.update_batch(group1)
        from_acc = welch_from_accumulators(acc0, acc1)
        assert float(direct.t_statistic) == pytest.approx(float(from_moments.t_statistic))
        assert float(direct.t_statistic) == pytest.approx(float(from_acc.t_statistic))

    def test_too_few_traces_rejected(self):
        with pytest.raises(ValueError):
            welch_t_test(np.array([1.0]), np.array([1.0, 2.0]))


class TestWelchEdgeCases:
    """No NaN/inf may ever leak out of the t-test layer into leaky masks."""

    def test_fewer_than_two_samples_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            welch_from_moments(0.0, 1.0, 1, 0.0, 1.0, 100)
        with pytest.raises(ValueError, match="at least 2"):
            welch_from_moments(0.0, 1.0, 100, 0.0, 1.0, 0)
        acc_one = OnePassMoments()
        acc_one.update(1.0)
        acc_many = OnePassMoments()
        acc_many.update_batch(np.arange(10.0))
        with pytest.raises(ValueError, match="at least 2"):
            welch_from_accumulators(acc_one, acc_many)

    def test_zero_variance_both_groups_is_finite(self):
        result = welch_from_moments(1.0, 0.0, 50, 1.0, 0.0, 60)
        assert float(result.t_statistic) == 0.0
        assert np.isfinite(result.degrees_of_freedom)
        assert float(result.p_value) == pytest.approx(1.0)

    def test_zero_variance_single_columns(self, rng):
        # A constant column next to a noisy one: the constant column's t
        # must be finite and its mask entry well-defined.
        noisy0 = rng.normal(size=(200, 1))
        noisy1 = rng.normal(0.5, 1.0, size=(200, 1))
        group0 = np.hstack([np.full((200, 1), 3.0), noisy0])
        group1 = np.hstack([np.full((200, 1), 3.0), noisy1])
        result = welch_t_test(group0, group1)
        assert np.isfinite(result.t_statistic).all()
        assert np.isfinite(result.p_value).all()
        mask = result.exceeds_threshold(1.0)
        assert not mask[0]

    def test_single_gate_shapes(self, rng):
        # (n, 1) matrices keep their column axis; 1-D inputs collapse to
        # scalars; both stay finite.
        matrix = welch_t_test(rng.normal(size=(50, 1)),
                              rng.normal(size=(60, 1)))
        assert matrix.t_statistic.shape == (1,)
        scalar = welch_t_test(rng.normal(size=50), rng.normal(size=60))
        assert scalar.t_statistic.shape == ()
        assert np.isfinite(matrix.t_statistic).all()

    def test_zero_noise_assessment_has_finite_masks(self, tiny_netlist):
        # With noise_sigma=0 the fixed group's power is fully deterministic
        # (zero-variance columns) — leaky_mask must still be NaN/inf free.
        config = TvlaConfig(n_traces=64, n_fixed_classes=1, seed=3,
                            power=PowerModelConfig(noise_sigma=0.0),
                            tvla_order=2)
        assessment = assess_leakage(tiny_netlist, config)
        assert np.isfinite(assessment.t_values).all()
        assert np.isfinite(assessment.leakage_values).all()
        assert assessment.leaky_mask.dtype == bool
        assert np.isfinite(assessment.order_t_values[2]).all()
        assert assessment.leaky_mask_for_order(2).dtype == bool


class TestHigherOrderWelch:
    def test_moment_order_requirements(self):
        assert moment_order_for_tvla(1) == 2
        assert moment_order_for_tvla(2) == 4
        assert moment_order_for_tvla(3) == 6
        with pytest.raises(ValueError):
            moment_order_for_tvla(0)

    @pytest.mark.parametrize("order", [2, 3])
    def test_matches_explicit_preprocessing(self, rng, order):
        # welch_higher_order from moment accumulators must equal a plain
        # Welch t-test on the explicitly preprocessed traces (centered
        # squares / standardised cubes with the biased per-group sigma).
        group0 = rng.normal(0.0, 1.0, size=(900, 3))
        group1 = rng.normal(0.1, 1.4, size=(800, 3))

        def preprocess(samples):
            centred = samples - samples.mean(axis=0)
            if order == 2:
                return centred ** 2
            sigma = np.sqrt((centred ** 2).mean(axis=0))
            return (centred / sigma) ** 3

        acc0 = OnePassMoments(max_order=6, shape=(3,))
        acc0.update_batch(group0)
        acc1 = OnePassMoments(max_order=6, shape=(3,))
        acc1.update_batch(group1)
        direct = welch_t_test(preprocess(group0), preprocess(group1))
        from_moments = welch_higher_order(acc0, acc1, order)
        np.testing.assert_allclose(from_moments.t_statistic,
                                   direct.t_statistic, rtol=1e-9)
        np.testing.assert_allclose(from_moments.degrees_of_freedom,
                                   direct.degrees_of_freedom, rtol=1e-9)

    def test_order_one_delegates_to_plain_welch(self, rng):
        group0 = rng.normal(size=300)
        group1 = rng.normal(0.3, 1.0, size=280)
        acc0 = OnePassMoments(max_order=2)
        acc0.update_batch(group0)
        acc1 = OnePassMoments(max_order=2)
        acc1.update_batch(group1)
        result = welch_higher_order(acc0, acc1, 1)
        reference = welch_from_accumulators(acc0, acc1)
        assert float(result.t_statistic) == float(reference.t_statistic)

    def test_variance_difference_detected_at_order_two(self, rng):
        # Equal means, different variances: invisible to order 1, flagged
        # by order 2.
        group0 = rng.normal(0.0, 1.0, size=(4000, 2))
        group1 = rng.normal(0.0, 1.5, size=(4000, 2))
        acc0 = OnePassMoments(max_order=4, shape=(2,))
        acc0.update_batch(group0)
        acc1 = OnePassMoments(max_order=4, shape=(2,))
        acc1.update_batch(group1)
        order1 = welch_from_accumulators(acc0, acc1)
        order2 = welch_higher_order(acc0, acc1, 2)
        assert (np.abs(order1.t_statistic) < TVLA_THRESHOLD).all()
        assert (np.abs(order2.t_statistic) > TVLA_THRESHOLD).all()

    def test_insufficient_moments_rejected(self, rng):
        acc0 = OnePassMoments(max_order=2)
        acc0.update_batch(rng.normal(size=100))
        acc1 = OnePassMoments(max_order=2)
        acc1.update_batch(rng.normal(size=100))
        with pytest.raises(ValueError, match="central moments"):
            welch_higher_order(acc0, acc1, 2)
        with pytest.raises(ValueError, match="unsupported|order"):
            welch_higher_order(acc0, acc1, 4)

    def test_zero_variance_gives_zero_t(self):
        acc0 = OnePassMoments(max_order=6)
        acc0.update_batch(np.full(40, 2.0))
        acc1 = OnePassMoments(max_order=6)
        acc1.update_batch(np.full(40, 5.0))
        for order in (2, 3):
            result = welch_higher_order(acc0, acc1, order)
            assert np.isfinite(result.t_statistic).all()
            assert float(result.t_statistic) == 0.0


# ----------------------------------------------------------------------
# Calibration: the null |t| tail and a planted leak's t
# ----------------------------------------------------------------------
#: Traces per group, fold chunk and independent "gates" (columns): the
#: paper's 10k traces in the driver's default 2048-row chunks.
CAL_TRACES = 10_000
CAL_CHUNK = 2048
CAL_GATES = 3000
#: A leak of 0.05 sigma gives an expected order-1 |t| of ~3.5 at 10k.
CAL_DELTA = 0.05


def _popcount_noise(draws, shape):
    """The fast sampler's Binomial(16, 1/2) noise, scaled as the trace
    engine scales it (mean 0, standard deviation ``noise_sigma_abs``)."""
    scale, offset = GatePowerModel().fast_noise_params()
    return (draws.noise_counts(shape) * np.float32(scale)
            + np.float32(offset))


def _gauss_noise(draws, shape):
    """Exact Gaussian noise, the reference law the popcount sampler
    stands in for."""
    return draws.gauss(shape) * np.float32(GatePowerModel().noise_sigma_abs())


def _popcount_moments():
    """Standardised 4th and 6th central moments of Binomial(16, 1/2)."""
    counts = np.arange(17)
    pmf = stats.binom.pmf(counts, 16, 0.5)
    z = (counts - 8.0) / 2.0
    return float(pmf @ z ** 4), float(pmf @ z ** 6)


#: noise mode -> (sampler, standardised (mu4, mu6) of the noise law).
CAL_NOISE = {"popcount": (_popcount_noise, _popcount_moments()),
             "gauss": (_gauss_noise, (3.0, 15.0))}


def _fold_group(noise, group_index, max_order, delta=0.0):
    """Fold one group's pure-noise traces chunk by chunk, as the driver
    folds a campaign group (counter draws of each chunk, ``update_batch``
    on the ``(rows, gates)`` view)."""
    accumulator = OnePassMoments(max_order=max_order, shape=(CAL_GATES,))
    stream = CounterStream(31, 0, group_index)
    for chunk, start in enumerate(range(0, CAL_TRACES, CAL_CHUNK)):
        rows = min(CAL_CHUNK, CAL_TRACES - start)
        traces = noise(stream.draws(chunk), (CAL_GATES, rows))
        if delta:
            traces += np.float32(delta)
        accumulator.update_batch(traces.T)
    return accumulator


@pytest.fixture(scope="module", params=sorted(CAL_NOISE))
def null_campaign(request):
    """Both groups of one noise law: ``(mode, acc0, acc1)``, no leak."""
    noise, _ = CAL_NOISE[request.param]
    return (request.param,) + tuple(_fold_group(noise, group, max_order=6)
                                    for group in (0, 1))


class TestNullCalibration:
    """Two groups drawn from one distribution (ROADMAP item 1).

    Orders 1 and 2 follow the Student-t law at the Welch dof.  The order-3
    statistic (the standardised-skewness test: a Welch test on
    ``((y - mean) / sigma)^3``) divides by ``Var[z^3] = mu6`` but the
    sample skewness it averages has the delta-method variance
    ``(mu6 - 6 mu4 + 9) / n`` for a symmetric law, so under the null its
    |t| is scaled by ``sqrt((mu6 - 6 mu4 + 9) / mu6)`` (``sqrt(6/15)`` for
    Gaussian noise): the test is conservative.  The checks below pin that
    scale, so both a miscalibration and a change of the statistic show.
    """

    @staticmethod
    def _null_scale(mode, order):
        if order < 3:
            return 1.0
        mu4, mu6 = CAL_NOISE[mode][1]
        return float(np.sqrt((mu6 - 6.0 * mu4 + 9.0) / mu6))

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_tail_count_inside_binomial_band(self, null_campaign, order):
        mode, acc0, acc1 = null_campaign
        result = welch_higher_order(acc0, acc1, order)
        scaled = np.abs(result.t_statistic) / self._null_scale(mode, order)
        p_tail = float(np.mean(
            2.0 * stats.t.sf(3.0, result.degrees_of_freedom)))
        low, high = stats.binom.interval(0.999, CAL_GATES, p_tail)
        count = int((scaled > 3.0).sum())
        assert low <= count <= high, (mode, order, count, low, high)

    def test_order3_scale_matches_delta_method(self, null_campaign):
        mode, acc0, acc1 = null_campaign
        t3 = welch_higher_order(acc0, acc1, 3).t_statistic
        # The sample sd of G unit-variance t's has standard error
        # ~1/sqrt(2G); allow five of them.
        assert np.std(t3) == pytest.approx(self._null_scale(mode, 3),
                                           abs=5.0 / np.sqrt(2 * CAL_GATES))

    def test_threshold_rate_consistent_with_student_t(self, null_campaign):
        mode, acc0, acc1 = null_campaign
        exceed = 0
        for order in (1, 2, 3):
            result = welch_higher_order(acc0, acc1, order)
            exceed += int((np.abs(result.t_statistic)
                           / self._null_scale(mode, order)
                           > TVLA_THRESHOLD).sum())
        p_threshold = 2.0 * stats.t.sf(TVLA_THRESHOLD, 2 * CAL_TRACES - 2)
        assert p_threshold == pytest.approx(7e-6, rel=0.05)
        assert exceed <= stats.binom.ppf(0.999, 3 * CAL_GATES, p_threshold)

    def test_planted_leak_matches_analytic_t(self, null_campaign):
        mode, acc0, _ = null_campaign
        noise, _ = CAL_NOISE[mode]
        sigma = GatePowerModel().noise_sigma_abs()
        leaky = _fold_group(noise, 1, max_order=2, delta=CAL_DELTA * sigma)
        t = welch_from_accumulators(acc0, leaky).t_statistic
        # Group 1 carries +delta, so t = (mean0 - mean1) / se is negative.
        expected = CAL_DELTA * np.sqrt(CAL_TRACES / 2.0)
        assert float(np.mean(-t)) == pytest.approx(
            expected, abs=4.0 / np.sqrt(CAL_GATES))


class TestEngineNull:
    """A design whose power does not depend on the data, through the
    whole engine (ROADMAP item 1).

    Both groups of every class run the *same* fixed campaign, so each
    trace differs only by its counter-drawn masks and noise.  Each class's
    order-1 t is then ~N(0, 1) per gate and ``mean_abs_t`` averages
    ``n_classes`` independent |t| of mean sqrt(2/pi).  If the two groups
    ever shared a counter stream every t would be exactly 0.
    """

    @pytest.mark.parametrize("masked", [False, True],
                             ids=["plain", "masked"])
    def test_identical_groups_give_null_t(self, masked):
        config = paper_configuration(tvla_order=2).tvla
        netlist = load_benchmark("md5")
        if masked:
            netlist = apply_masking(netlist, maskable_gates(netlist)).netlist
        fixed = campaign_schedule(netlist, config)[0][0]
        assessment = assess_leakage(
            netlist, config,
            campaigns=[(fixed, fixed)] * config.n_fixed_classes)
        n_terms = config.n_fixed_classes * len(assessment.gate_names)
        standard_error = np.sqrt((1.0 - 2.0 / np.pi) / n_terms)
        mean_abs_t = float(assessment.mean_abs_t.mean())
        assert abs(mean_abs_t - np.sqrt(2.0 / np.pi)) < 5 * standard_error
        assert assessment.n_leaky == 0
        assert assessment.n_leaky_for_order(2) == 0


class Float64TraceGenerator(PowerTraceGenerator):
    """The trace engine with a float64 trace matrix."""

    trace_dtype = np.dtype(np.float64)


class TestFloat32Drift:
    """float32 traces vs float64 traces at the paper's 10k traces (ROADMAP
    item 1).  The trace matrix is float32 by default; moments are folded
    in float64 either way, so only the per-sample rounding differs.
    Measured max |dt| ~1.3e-5 over orders 1-3 on both designs, against a
    nearest distance of 3e-3 between any |t| and the 4.5 threshold."""

    @pytest.mark.parametrize("design", ["md5", "des3"])
    def test_float32_traces_keep_t_values_and_verdicts(self, design):
        config = paper_configuration(tvla_order=3).tvla
        netlist = load_benchmark(design)
        default = assess_leakage(netlist, config)
        wide = assess_leakage(netlist, config, generator=Float64TraceGenerator(
            netlist, config=config.power))
        assert config.n_traces == 10_000
        for order in (1, 2, 3):
            narrow_t = default.t_values_for_order(order)
            wide_t = wide.t_values_for_order(order)
            assert np.max(np.abs(narrow_t - wide_t)) < 1e-4, order
            assert np.array_equal(np.abs(narrow_t) > TVLA_THRESHOLD,
                                  np.abs(wide_t) > TVLA_THRESHOLD), order


class TestAssessment:
    def test_per_gate_results(self, tiny_netlist, tvla_config):
        assessment = assess_leakage(tiny_netlist, tvla_config)
        assert len(assessment.gate_names) == len(tiny_netlist)
        assert assessment.t_values.shape == (len(tiny_netlist),)
        assert assessment.leakage_values.shape == (len(tiny_netlist),)
        assert assessment.n_leaky == int(assessment.leaky_mask.sum())
        assert assessment.elapsed_seconds > 0

    def test_unprotected_design_leaks(self, small_benchmark, tvla_config):
        assessment = assess_leakage(small_benchmark, tvla_config)
        assert assessment.n_leaky > 0
        assert assessment.mean_leakage > 0.5

    def test_full_masking_reduces_leakage(self, small_benchmark, tvla_config):
        masked = apply_masking(small_benchmark,
                               maskable_gates(small_benchmark)).netlist
        before = assess_leakage(small_benchmark, tvla_config)
        after = assess_leakage(masked, tvla_config)
        comparison = compare_assessments(before, after)
        assert comparison["leakage_reduction_pct"] > 20.0
        assert after.mean_leakage < before.mean_leakage

    def test_gate_lookup_helpers(self, tiny_netlist, tvla_config):
        assessment = assess_leakage(tiny_netlist, tvla_config)
        name = assessment.gate_names[0]
        assert assessment.gate_leakage(name) == pytest.approx(
            float(assessment.leakage_values[0]))
        assert assessment.gate_t_value(name) == pytest.approx(
            float(assessment.t_values[0]))
        with pytest.raises(KeyError):
            assessment.gate_leakage("missing")

    def test_deterministic_for_same_seed(self, tiny_netlist, tvla_config):
        first = assess_leakage(tiny_netlist, tvla_config)
        second = assess_leakage(tiny_netlist, tvla_config)
        np.testing.assert_allclose(first.t_values, second.t_values)

    def test_fixed_vs_fixed_mode(self, tiny_netlist):
        config = TvlaConfig(n_traces=100, n_fixed_classes=1, seed=2,
                            mode="fixed_vs_fixed")
        assessment = assess_leakage(tiny_netlist, config)
        assert assessment.t_values.shape == (len(tiny_netlist),)

    def test_unknown_mode_rejected(self, tiny_netlist):
        with pytest.raises(ValueError):
            assess_leakage(tiny_netlist, TvlaConfig(mode="bogus"))

    def test_more_fixed_classes_tracks_mean_abs_t(self, tiny_netlist):
        config = TvlaConfig(n_traces=100, n_fixed_classes=3, seed=2)
        assessment = assess_leakage(tiny_netlist, config)
        assert assessment.mean_abs_t is not None
        # The worst-case |t| is always at least the mean over classes.
        assert (np.abs(assessment.t_values) >= assessment.mean_abs_t - 1e-9).all()

    def test_summary_contents(self, tiny_netlist, tvla_config):
        summary = assess_leakage(tiny_netlist, tvla_config).summary()
        assert summary["gates"] == len(tiny_netlist)
        assert summary["n_traces"] == tvla_config.n_traces


class TestStreamingAssessment:
    def test_streaming_equals_two_pass(self, small_benchmark):
        # The one-pass moment fold must reproduce the classic two-pass
        # Welch test on identical traces (the same counter-drawn chunks,
        # stacked) to floating-point merge error.
        config = TvlaConfig(n_traces=600, n_fixed_classes=2, seed=9,
                            chunk_traces=128)
        streamed = assess_leakage(small_benchmark, config)
        generator = PowerTraceGenerator(small_benchmark, config=config.power)
        class_results = []
        for class_index, pair in enumerate(
                campaign_schedule(small_benchmark, config)):
            blocks = [np.concatenate([
                traces.per_gate for traces in generator.generate_stream(
                    campaign, config.chunk_traces,
                    CounterStream(config.seed, class_index, group_index))])
                for group_index, campaign in enumerate(pair)]
            class_results.append({1: welch_t_test(*blocks)})
        two_pass = aggregate_class_results(
            class_results, small_benchmark.name, generator.gate_names,
            config, elapsed_seconds=0.0)
        np.testing.assert_allclose(streamed.t_values, two_pass.t_values,
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(streamed.mean_abs_t, two_pass.mean_abs_t,
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(streamed.degrees_of_freedom,
                                   two_pass.degrees_of_freedom,
                                   rtol=1e-9, atol=1e-6)

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            TvlaConfig(chunk_traces=0)

    @pytest.mark.parametrize("n_traces", [1, 0, -5])
    def test_too_few_traces_rejected(self, n_traces):
        # Welch's test needs two traces per group; reject the config
        # before any campaign is built or queued.
        with pytest.raises(ValueError, match="n_traces"):
            TvlaConfig(n_traces=n_traces)

    def test_streaming_init_var_accepts_only_none_and_true(self):
        # ``streaming`` is init-only: accepted as None/True, never stored
        # or hashed, and False (the retired two-pass path) is rejected.
        config = TvlaConfig(n_traces=64, seed=3)
        assert TvlaConfig(n_traces=64, seed=3, streaming=True) == config
        assert hash(replace(config, streaming=True)) == hash(config)
        assert "streaming" not in {f.name for f in fields(config)}
        assert pickle.loads(pickle.dumps(config)) == config
        for value in (False, 0, "yes"):
            with pytest.raises(ValueError, match="streaming"):
                TvlaConfig(streaming=value)

    def test_schedule_reuse_matches_internal_build(self, tiny_netlist,
                                                   tvla_config):
        schedule = campaign_schedule(tiny_netlist, tvla_config)
        direct = assess_leakage(tiny_netlist, tvla_config)
        reused = assess_leakage(tiny_netlist, tvla_config,
                                campaigns=schedule)
        np.testing.assert_allclose(direct.t_values, reused.t_values)

    def test_schedule_validation(self, tiny_netlist, small_benchmark,
                                 tvla_config):
        schedule = campaign_schedule(tiny_netlist, tvla_config)
        with pytest.raises(ValueError, match="classes"):
            assess_leakage(tiny_netlist, tvla_config,
                           campaigns=schedule[:1])
        foreign = campaign_schedule(small_benchmark, tvla_config)
        with pytest.raises(ValueError, match="primary inputs"):
            assess_leakage(tiny_netlist, tvla_config, campaigns=foreign)

    def test_foreign_generator_rejected(self, tiny_netlist, small_benchmark,
                                        tvla_config):
        from repro.power import PowerTraceGenerator
        foreign = PowerTraceGenerator(small_benchmark,
                                      config=tvla_config.power)
        with pytest.raises(ValueError, match="generator was built"):
            assess_leakage(tiny_netlist, tvla_config, generator=foreign)


class TestHigherOrderAssessment:
    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError, match="tvla_order"):
            TvlaConfig(tvla_order=4)
        with pytest.raises(ValueError, match="tvla_order"):
            TvlaConfig(tvla_order=0)

    def test_higher_order_forces_streaming(self):
        # Every order is read off the folded moments; order 2 needs them
        # up to the 4th.
        config = TvlaConfig(n_traces=100, chunk_traces=2048, tvla_order=2)
        assert config.moment_order() == 4

    def test_order_results_shape_and_summary(self, tiny_netlist):
        config = TvlaConfig(n_traces=200, n_fixed_classes=2, seed=2,
                            tvla_order=3)
        assessment = assess_leakage(tiny_netlist, config)
        assert assessment.tvla_order == 3
        assert set(assessment.order_t_values) == {2, 3}
        for order in (2, 3):
            assert assessment.order_t_values[order].shape == \
                assessment.t_values.shape
            assert np.isfinite(assessment.order_t_values[order]).all()
        summary = assessment.summary()
        assert summary["tvla_order"] == 3
        assert "leaky_gates_order2" in summary
        with pytest.raises(KeyError):
            assessment.t_values_for_order(5)

    def test_order_one_assessment_has_no_higher_orders(self, tiny_netlist,
                                                       tvla_config):
        assessment = assess_leakage(tiny_netlist, tvla_config)
        assert assessment.order_t_values == {}
        with pytest.raises(KeyError):
            assessment.leaky_mask_for_order(2)

    def test_order_two_mirrors_masking_benefit(self, small_benchmark):
        # Acceptance shape: order-2 TVLA flags the unmasked bench netlist
        # as leaky, and full masking reduces the order-2 verdict just as it
        # reduces the order-1 one.
        config = TvlaConfig(n_traces=600, n_fixed_classes=2, seed=9,
                            chunk_traces=128, tvla_order=2)
        masked = apply_masking(small_benchmark,
                               maskable_gates(small_benchmark)).netlist
        before = assess_leakage(small_benchmark, config)
        after = assess_leakage(masked, config)
        assert before.n_leaky_for_order(2) > 0
        assert after.n_leaky_for_order(2) < before.n_leaky_for_order(2)
        assert np.abs(after.order_t_values[2]).mean() < \
            np.abs(before.order_t_values[2]).mean()
        # ... mirroring the order-1 before/after result.
        assert before.n_leaky > after.n_leaky
        comparison = compare_assessments(before, after)
        assert comparison["order2_before_leaky"] == before.n_leaky_for_order(2)
        assert comparison["order2_after_leaky"] == after.n_leaky_for_order(2)
        assert comparison["order2_mean_abs_t_reduction_pct"] > 0.0
