"""Dataset container: validation and storage of features and labels."""

import numpy as np
import pytest

from nia import Dataset, NonFinite
from nia.data import block_rows


class TestFiniteness:
    # The check streams the two features of each row.
    ROWS = 2 * block_rows(2) + 5

    @pytest.mark.parametrize("row", [0, ROWS - 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_feature_in_first_or_last_block(self, row, bad):
        features = np.zeros((self.ROWS, 2))
        features[row, 1] = bad
        with pytest.raises(NonFinite, match="non-finite"):
            Dataset(features=features, labels=np.zeros(self.ROWS))


class TestStorage:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_float64_arrays_kept_without_copy(self, order):
        features = np.zeros((5, 2), order=order)
        labels = np.ones(5)
        ds = Dataset(features=features, labels=labels)
        assert np.shares_memory(ds.features, features)
        assert np.shares_memory(ds.labels, labels)
        assert not ds.features.flags.writeable
        assert not ds.labels.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ds.features[0, 0] = 1.0

    @pytest.mark.parametrize(
        "features",
        [np.arange(12.0).reshape(4, 3)[:, ::2], np.arange(8, dtype=np.float32).reshape(4, 2)],
        ids=["strided", "float32"],
    )
    def test_other_arrays_converted_to_column_major(self, features):
        ds = Dataset(features=features, labels=np.zeros(4))
        assert ds.features.flags.f_contiguous and ds.features.dtype == np.float64
        assert not np.shares_memory(ds.features, features)
        assert np.array_equal(ds.features, features)
