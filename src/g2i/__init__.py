"""g2i: attributed graphs to per-node multi-channel images, a CNN classifier
over those images, and Shapley attributions mapped back to named features."""

__version__ = "0.1.0"
