"""Tests for gate-type encoding, structural features, and datasets."""

import numpy as np
import pytest

from repro.features import Dataset, GateTypeEncoder, StructuralFeatureExtractor
from repro.netlist import GateType


class TestGateTypeEncoder:
    def test_one_hot_round_trip(self):
        encoder = GateTypeEncoder()
        for gate_type in encoder.vocabulary:
            vector = encoder.encode(gate_type)
            assert vector.sum() == 1.0
            assert encoder.decode(vector) is gate_type

    def test_unknown_and_none_encode_to_zeros(self):
        encoder = GateTypeEncoder()
        assert encoder.encode(None).sum() == 0.0
        assert encoder.encode(GateType.MASKED_AND).sum() == 0.0
        assert encoder.decode(np.zeros(encoder.size)) is None

    def test_feature_names_format(self):
        encoder = GateTypeEncoder()
        names = encoder.feature_names("G3")
        assert f"G3={GateType.NAND.value}" in names
        assert len(names) == encoder.size

    def test_decode_shape_check(self):
        encoder = GateTypeEncoder()
        with pytest.raises(ValueError):
            encoder.decode(np.zeros(3))

    def test_index_of(self):
        encoder = GateTypeEncoder()
        assert encoder.vocabulary[encoder.index_of(GateType.XOR)] is GateType.XOR


class TestStructuralFeatures:
    def test_vector_length_matches_names(self, tiny_netlist):
        extractor = StructuralFeatureExtractor(tiny_netlist, locality=3)
        vector = extractor.extract("g_xor")
        assert vector.shape == (extractor.n_features,)
        assert len(extractor.feature_names) == extractor.n_features

    def test_self_type_one_hot_set(self, tiny_netlist):
        extractor = StructuralFeatureExtractor(tiny_netlist, locality=3)
        vector = extractor.extract("g_nand")
        names = extractor.feature_names
        assert vector[names.index("G0=NAND")] == 1.0
        assert vector[names.index("G0=AND")] == 0.0

    def test_driver_slots_capture_fanin_types(self, tiny_netlist):
        extractor = StructuralFeatureExtractor(tiny_netlist, locality=3)
        vector = extractor.extract("g_xor")  # driven by g_and and g_or
        names = extractor.feature_names
        driver_types = {
            name.split("=")[1]
            for name in names
            if name.startswith(("D0=", "D1=")) and vector[names.index(name)] == 1.0
        }
        assert driver_types == {"AND", "OR"}

    def test_scalar_features_ranges(self, random_netlist):
        extractor = StructuralFeatureExtractor(random_netlist, locality=5)
        names = extractor.feature_names
        _, matrix = extractor.extract_all()
        depth = matrix[:, names.index("depth_ratio")]
        assert (depth >= 0).all() and (depth <= 1.0).all()
        xor_fraction = matrix[:, names.index("neighborhood_xor_fraction")]
        assert (xor_fraction >= 0).all() and (xor_fraction <= 1.0).all()

    def test_unknown_gate_raises(self, tiny_netlist):
        extractor = StructuralFeatureExtractor(tiny_netlist, locality=3)
        with pytest.raises(KeyError):
            extractor.extract("ghost")

    def test_extract_all_maskable_only(self, tiny_netlist):
        extractor = StructuralFeatureExtractor(tiny_netlist, locality=3)
        names, matrix = extractor.extract_all(maskable_only=True)
        assert set(names) == {"g_and", "g_or", "g_xor", "g_nand"}
        assert matrix.shape == (4, extractor.n_features)

    def test_locality_changes_vector_length(self, tiny_netlist):
        small = StructuralFeatureExtractor(tiny_netlist, locality=2)
        large = StructuralFeatureExtractor(tiny_netlist, locality=6)
        assert large.n_features > small.n_features

    def test_invalid_locality_rejected(self, tiny_netlist):
        with pytest.raises(ValueError):
            StructuralFeatureExtractor(tiny_netlist, locality=0)

    def test_feature_columns_stable_across_designs(self, tiny_netlist,
                                                   random_netlist):
        encoder = GateTypeEncoder()
        first = StructuralFeatureExtractor(tiny_netlist, locality=4, encoder=encoder)
        second = StructuralFeatureExtractor(random_netlist, locality=4,
                                            encoder=encoder)
        assert first.feature_names == second.feature_names


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(4), ["a", "b"])
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(3), ["a"])
        with pytest.raises(ValueError):
            Dataset(np.zeros(3), np.zeros(3), ["a"])

    def test_class_counts_and_positive_fraction(self):
        dataset = Dataset(np.zeros((4, 1)), np.array([0, 1, 1, 1]), ["f"])
        assert dataset.class_counts() == {0: 1, 1: 3}
        assert dataset.positive_fraction() == pytest.approx(0.75)

    def test_from_rows_empty_and_filled(self):
        empty = Dataset.from_rows([], ["a", "b"])
        assert empty.n_samples == 0
        filled = Dataset.from_rows([(np.array([1.0, 2.0]), 1),
                                    (np.array([3.0, 4.0]), 0)], ["a", "b"])
        assert filled.n_samples == 2
        assert filled.labels.tolist() == [1, 0]
