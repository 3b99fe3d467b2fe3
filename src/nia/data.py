"""Dataset container: feature matrix and binary labels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite, NiaError


# Bytes a streamed pass may hold per block: every pass over rows (the
# finiteness check, the dataset and logit files, the generator and its
# inverse CDF, the fit) takes its rows from ``block_rows``.
BLOCK_BYTES = 1 << 20


def block_rows(width: int) -> int:
    """Rows per block of a pass that streams ``width`` float64 values per
    row: as many as fit in ``BLOCK_BYTES``, and at least one."""
    return max(1, BLOCK_BYTES // (8 * max(width, 1)))


def _readonly_view(a: np.ndarray) -> np.ndarray:
    out = a.view()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """Sample matrix with binary labels.

    ``features`` is n x d (column l holds feature x_l, 1-based externally).
    ``labels`` holds 0.0/1.0. Both are kept as read-only views of the arrays
    given: a float64 feature array in C or F order, and a contiguous float64
    label array, are not copied, so the caller must not write to them
    afterwards. Other features are converted once, to column-major, the
    order the generator and the file reader produce: a design's columns are
    then contiguous.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats = np.atleast_2d(self.features)
        if feats.dtype != np.float64 or not (feats.flags.c_contiguous or feats.flags.f_contiguous):
            feats = np.asfortranarray(feats, dtype=np.float64)
        feats = _readonly_view(feats)
        labels = _readonly_view(np.ascontiguousarray(np.ravel(self.labels), dtype=np.float64))
        if feats.shape[0] != labels.shape[0]:
            raise DimensionMismatch(
                f"features have {feats.shape[0]} rows but labels have {labels.shape[0]}"
            )
        rows = block_rows(feats.shape[1])
        for start in range(0, feats.shape[0], rows):
            if not np.isfinite(feats[start : start + rows]).all():
                raise NonFinite("features contain non-finite entries")
        if not np.isin(labels, (0.0, 1.0)).all():
            raise NiaError("labels must contain only 0 and 1")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]
