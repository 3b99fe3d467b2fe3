"""Dataset container: feature matrix, binary labels, optional latent columns."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite, NiaError


# Rows per block of the finiteness and prefix-sum checks, so they need no
# whole-matrix temporaries.
_CHECK_BLOCK_ROWS = 1 << 16


def _as_readonly(a) -> np.ndarray:
    """One read-only C-contiguous float64 copy of ``a``."""
    out = np.array(a, dtype=np.float64, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """Immutable sample matrix with binary labels.

    ``features`` is n x d (column l holds feature x_l, 1-based externally).
    ``labels`` holds 0.0/1.0. Generators may attach ``latents`` (n x k) and
    ``optimal_logits`` (length n) when the data-generating process is known;
    when latents are present with k == d, the row-wise prefix sums of the
    features must reproduce the latent columns (the differencing construction).
    """

    features: np.ndarray
    labels: np.ndarray
    latents: np.ndarray | None = None
    optimal_logits: np.ndarray | None = None

    def __post_init__(self) -> None:
        feats = _as_readonly(np.atleast_2d(self.features))
        labels = _as_readonly(np.ravel(self.labels))
        if feats.shape[0] != labels.shape[0]:
            raise DimensionMismatch(
                f"features have {feats.shape[0]} rows but labels have {labels.shape[0]}"
            )
        lat = None
        if self.latents is not None:
            lat = _as_readonly(np.atleast_2d(self.latents))
            if lat.shape[0] != feats.shape[0]:
                raise DimensionMismatch("latents row count differs from features")
        self._check_rows(feats, lat)
        if not np.isin(labels, (0.0, 1.0)).all():
            raise NiaError("labels must contain only 0 and 1")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "latents", lat)
        if self.optimal_logits is not None:
            opt = _as_readonly(np.ravel(self.optimal_logits))
            if opt.shape[0] != feats.shape[0]:
                raise DimensionMismatch("optimal_logits length differs from sample count")
            object.__setattr__(self, "optimal_logits", opt)

    @staticmethod
    def _check_rows(feats: np.ndarray, lat: np.ndarray | None) -> None:
        """Features are finite and, when ``lat`` has one column per feature,
        their row-wise prefix sums reproduce it; one pass over row blocks."""
        if lat is not None and lat.shape[1] != feats.shape[1]:
            lat = None
        for start in range(0, feats.shape[0], _CHECK_BLOCK_ROWS):
            rows = slice(start, start + _CHECK_BLOCK_ROWS)
            if not np.isfinite(feats[rows]).all():
                raise NonFinite("features contain non-finite entries")
            if lat is None:
                continue
            prefix = np.cumsum(feats[rows], axis=1)
            scale = np.maximum(1.0, np.abs(lat[rows]))
            if not (np.abs(prefix - lat[rows]) <= 1e-12 * scale).all():
                raise NiaError("latent columns do not match feature prefix sums")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]
