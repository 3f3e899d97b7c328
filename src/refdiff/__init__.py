"""Reference-conditioned mel-spectrogram diffusion with transition-aware training."""

__version__ = "0.1.0"
