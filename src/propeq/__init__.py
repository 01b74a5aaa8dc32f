"""propeq: reference-tone equalization of propeller-modulated ILS captures.

The pipeline, end to end: model the ILS signal and its reference tone at
complex baseband, pass them through a cyclic propeller-gain channel with
optional AWGN, split the received spectrum into signal and tone bands with
brick-wall windows, recover the modulation process from the tone band, divide
it out of the signal band, and score signal integrity as DDM deviation.
"""

from .channel import (
    ChannelConfig,
    CustomCycle,
    PropellerModel,
    SineRipple,
    SquareWave,
    eval_modulator,
)
from .equalizer import RegPolicy, predict_blind_spots
from .errors import CarrierLostError, PipelineError, ToneAbsentError
from .harness import (
    ScenarioConfig,
    default_scenario,
    dump_spectrum,
    emit_csv,
    emit_plot,
    fp_grid,
    load_config,
    load_sweep_csv,
    run_single,
    scenario_from_dict,
    scenario_to_dict,
    scenario_with,
    simulate,
    sweep_fp,
)
from .metrics import ToneAmplitudes, compute_ddm
from .pipeline import FpSummary, RunResult, SweepResult, modulator_spectrum
from .signals import IlsParams, SampleBuffer, SampleClock, ToneParams
from .spectral import (
    BandSpec,
    Spectrum,
    bin_index,
    folded_frequencies,
    forward_fft,
)

__version__ = "0.1.0"

__all__ = [
    "BandSpec",
    "CarrierLostError",
    "ChannelConfig",
    "CustomCycle",
    "FpSummary",
    "IlsParams",
    "PipelineError",
    "PropellerModel",
    "RegPolicy",
    "RunResult",
    "SampleBuffer",
    "SampleClock",
    "ScenarioConfig",
    "SineRipple",
    "Spectrum",
    "SquareWave",
    "SweepResult",
    "ToneAbsentError",
    "ToneAmplitudes",
    "ToneParams",
    "bin_index",
    "compute_ddm",
    "default_scenario",
    "dump_spectrum",
    "emit_csv",
    "emit_plot",
    "eval_modulator",
    "folded_frequencies",
    "forward_fft",
    "fp_grid",
    "load_config",
    "load_sweep_csv",
    "modulator_spectrum",
    "predict_blind_spots",
    "run_single",
    "scenario_from_dict",
    "scenario_to_dict",
    "scenario_with",
    "simulate",
    "sweep_fp",
]
