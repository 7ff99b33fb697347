"""Tests for stimulus campaigns."""

import numpy as np
import pytest

from repro.simulation import (
    TraceCampaign,
    fixed_vector,
    fixed_vs_fixed_campaigns,
    fixed_vs_random_campaigns,
    input_matrix_to_dict,
    random_vectors,
)


class TestVectorGeneration:
    def test_random_vectors_shape_and_range(self, rng):
        matrix = random_vectors(50, 8, rng)
        assert matrix.shape == (50, 8)
        assert matrix.dtype == bool

    def test_random_vectors_validation(self):
        with pytest.raises(ValueError):
            random_vectors(0, 4)
        with pytest.raises(ValueError):
            random_vectors(4, 0)

    def test_fixed_vector_deterministic(self):
        np.testing.assert_array_equal(fixed_vector(16, seed=3), fixed_vector(16, seed=3))
        assert not np.array_equal(fixed_vector(16, seed=3), fixed_vector(16, seed=4))

    def test_campaign_slice(self, tiny_netlist):
        fixed, rand = fixed_vs_random_campaigns(tiny_netlist, 20, seed=1)
        chunk = rand.slice(5, 12)
        assert chunk.n_traces == 7
        assert chunk.label == rand.label
        assert chunk.input_names == rand.input_names
        np.testing.assert_array_equal(chunk.previous, rand.previous[5:12])
        np.testing.assert_array_equal(chunk.current, rand.current[5:12])
        with pytest.raises(ValueError):
            rand.slice(5, 25)
        with pytest.raises(ValueError):
            rand.slice(-1, 4)

    def test_input_matrix_to_dict(self):
        matrix = np.array([[1, 0], [0, 1]], dtype=bool)
        result = input_matrix_to_dict(matrix, ["a", "b"])
        np.testing.assert_array_equal(result["a"], [True, False])
        with pytest.raises(ValueError):
            input_matrix_to_dict(matrix, ["a"])


class TestCampaigns:
    def test_fixed_vs_random_shapes(self, tiny_netlist):
        fixed, rand = fixed_vs_random_campaigns(tiny_netlist, 40, seed=1)
        assert fixed.n_traces == rand.n_traces == 40
        assert fixed.current.shape == (40, len(tiny_netlist.primary_inputs))
        assert fixed.input_names == tiny_netlist.primary_inputs

    def test_fixed_group_is_constant(self, tiny_netlist):
        fixed, _ = fixed_vs_random_campaigns(tiny_netlist, 30, seed=1)
        assert (fixed.current == fixed.current[0]).all()

    def test_random_group_varies(self, tiny_netlist):
        _, rand = fixed_vs_random_campaigns(tiny_netlist, 200, seed=1)
        assert not (rand.current == rand.current[0]).all()

    def test_fixed_precharge_toggle(self, tiny_netlist):
        fixed_pre, _ = fixed_vs_random_campaigns(tiny_netlist, 30, seed=1,
                                                 fixed_precharge=True)
        random_pre, _ = fixed_vs_random_campaigns(tiny_netlist, 30, seed=1,
                                                  fixed_precharge=False)
        assert (fixed_pre.previous == fixed_pre.previous[0]).all()
        assert not (random_pre.previous == random_pre.previous[0]).all()

    def test_fixed_vs_fixed_groups_differ(self, tiny_netlist):
        group_a, group_b = fixed_vs_fixed_campaigns(tiny_netlist, 20, seed=2)
        assert not np.array_equal(group_a.current[0], group_b.current[0])

    def test_too_few_traces_rejected(self, tiny_netlist):
        with pytest.raises(ValueError):
            fixed_vs_random_campaigns(tiny_netlist, 1)

    def test_as_dicts_round_trip(self, tiny_netlist):
        fixed, _ = fixed_vs_random_campaigns(tiny_netlist, 10, seed=0)
        previous, current = fixed.as_dicts()
        assert set(previous) == set(tiny_netlist.primary_inputs)
        np.testing.assert_array_equal(current["a"], fixed.current[:, 0])


class TestCampaignShape:
    """A campaign whose stimulus shape disagrees with itself or its input
    names is rejected when built, not truncated when traced."""

    NAMES = ("a", "b", "c")

    def _matrix(self, rows, columns=3):
        return np.zeros((rows, columns), dtype=bool)

    def test_well_formed_campaign_accepted(self):
        campaign = TraceCampaign("random", self._matrix(10), self._matrix(10),
                                 self.NAMES)
        assert campaign.n_traces == 10

    def test_row_count_mismatch_rejected(self):
        # Built this way, 10 traces used to be generated for 12 current
        # rows.
        with pytest.raises(ValueError, match="one shape"):
            TraceCampaign("random", self._matrix(10), self._matrix(12),
                          self.NAMES)

    def test_column_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one shape"):
            TraceCampaign("random", self._matrix(10), self._matrix(10, 4),
                          self.NAMES)

    def test_extra_stimulus_column_rejected(self):
        # An input with no name used to be silently ignored.
        with pytest.raises(ValueError, match="4 column"):
            TraceCampaign("random", self._matrix(10, 4), self._matrix(10, 4),
                          self.NAMES)

    def test_missing_stimulus_column_rejected(self):
        with pytest.raises(ValueError, match="2 column"):
            TraceCampaign("random", self._matrix(10, 2), self._matrix(10, 2),
                          self.NAMES)

    @pytest.mark.parametrize("shape", [(10,), (2, 10, 3), ()])
    def test_non_matrix_stimulus_rejected(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            TraceCampaign("random", np.zeros(shape, dtype=bool),
                          np.zeros(shape, dtype=bool), self.NAMES)

    def test_builders_and_slices_stay_valid(self, tiny_netlist):
        for group in (fixed_vs_random_campaigns(tiny_netlist, 12, seed=1)
                      + fixed_vs_fixed_campaigns(tiny_netlist, 12, seed=1)):
            assert group.slice(3, 9).n_traces == 6
            assert group.slice(4, 4).n_traces == 0
