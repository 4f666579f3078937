"""Fault detection for three-phase voltage records.

Synthetic fault-signal generation, an orthogonal wavelet filter bank, FT and
STFT energy indices, fixed-point ICA with a fault performance index, and
threshold detectors built on top of them.
"""

__version__ = "0.1.0"

from .detect import (
    AdaptiveThreshold,
    DetectionReport,
    DetectorConfig,
    FixedThreshold,
    Spans,
    calibrate_threshold,
    energy_detect,
    ica_detect,
    wavelet_detect,
)
from .dwt import (
    DecompositionTree,
    detail_series,
    dwt_decompose,
    dwt_reconstruct,
    wavelet_energy_index,
)
from .errors import (
    BoundsError,
    ConfigError,
    DegenerateInputError,
    FaultwaveError,
    NumericalError,
    ShapeError,
)
from .ica import (
    IcaConfig,
    IcaModel,
    PiSeries,
    WhiteningModel,
    center,
    fastica,
    fit_ica,
    performance_index,
    whiten,
)
from .signal_model import (
    FaultSpec,
    FaultType,
    NoiseSpec,
    ThreePhaseRecord,
    Trace,
    WaveformConfig,
    add_noise,
    generate_baseline,
    inject_fault,
    select_channel,
)
from .spectral import Spectrogram, Spectrum, dft, highband_energy_index, stft

__all__ = [
    "__version__",
    # signal model
    "WaveformConfig", "FaultSpec", "FaultType", "NoiseSpec", "Trace",
    "ThreePhaseRecord", "generate_baseline", "inject_fault", "add_noise",
    "select_channel",
    # wavelet
    "DecompositionTree", "dwt_decompose", "dwt_reconstruct", "detail_series",
    "wavelet_energy_index",
    # spectral
    "Spectrum", "Spectrogram", "dft", "stft", "highband_energy_index",
    # ica
    "IcaConfig", "IcaModel", "WhiteningModel", "PiSeries", "center", "whiten",
    "fastica", "fit_ica", "performance_index",
    # detect
    "DetectorConfig", "DetectionReport", "FixedThreshold",
    "AdaptiveThreshold", "Spans", "calibrate_threshold",
    "wavelet_detect", "ica_detect", "energy_detect",
    # errors
    "FaultwaveError", "ConfigError", "BoundsError", "ShapeError",
    "DegenerateInputError", "NumericalError",
]
