"""Dataset container: validation of features, labels and latent columns."""

import numpy as np
import pytest

from nia import Dataset, HardInstanceSpec, NonFinite, generate_hard_instance
from nia.data import _CHECK_BLOCK_ROWS


class TestFiniteness:
    ROWS = 2 * _CHECK_BLOCK_ROWS + 5

    @pytest.mark.parametrize("row", [0, ROWS - 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_feature_in_first_or_last_block(self, row, bad):
        features = np.zeros((self.ROWS, 2))
        features[row, 1] = bad
        with pytest.raises(NonFinite, match="non-finite"):
            Dataset(features=features, labels=np.zeros(self.ROWS))

    @pytest.mark.parametrize("row", [0, ROWS - 1])
    def test_non_finite_feature_with_latents(self, row):
        ds = generate_hard_instance(HardInstanceSpec(k=3, n=self.ROWS, seed=1))
        features = ds.features.copy()
        features[row, 0] = np.nan
        with pytest.raises(NonFinite, match="non-finite"):
            Dataset(features=features, labels=ds.labels, latents=ds.latents)
