"""Gabor-wavelet features plus an explainable boosted classifier."""

__version__ = "0.1.0"
