"""Reference-conditioned mel-spectrogram diffusion with transition-aware training."""

__version__ = "0.1.0"

from .dsp import (
    AudioBuffer,
    GaussianKernel,
    MelConfig,
    MelFilterbank,
    MelSpectrogram,
    gaussian_blur_2d,
    gaussian_kernel,
    load_wav,
    log_compress,
    mel_filterbank,
    mel_spectrogram,
    read_mels,
    stft_magnitude,
    write_mels,
)
from .diffusion import (
    NoiseSchedule,
    make_schedule,
    p_step,
    q_sample,
    q_step,
    reverse_mean,
    sample,
    weighted_eps_loss,
)
from .transition import (
    EnergyRatioSeries,
    TransitionConfig,
    TransitionRegionSet,
    WeightMap,
    analyze,
    band_energies,
    blur_regions,
    build_regions,
    detect_transition_points,
    energy_ratio,
    smooth_ratio,
    weight_map,
)

__all__ = [name for name in dir() if not name.startswith("_")]
