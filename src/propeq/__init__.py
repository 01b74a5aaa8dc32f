"""propeq: reference-tone equalization of propeller-modulated ILS captures.

The pipeline, end to end: synthesize the ILS signal and its reference tone
at complex baseband, pass them through a cyclic propeller-gain channel with
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
    apply_channel,
    eval_modulator,
    modulator_spectrum,
)
from .equalizer import (
    DopplerEstimate,
    RegPolicy,
    equalize,
    extract_doppler,
    predict_blind_spots,
)
from .errors import CarrierLostError, PipelineError, ToneAbsentError
from .harness import (
    FpSummary,
    RunResult,
    ScenarioConfig,
    SweepResult,
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
from .metrics import ToneAmplitudes, compute_ddm, ddm_deviation, estimate_amplitudes
from .signals import (
    IlsParams,
    SampleBuffer,
    SampleClock,
    ToneParams,
    combine,
    synth_ils,
    synth_tone,
)
from .spectral import (
    BandSpec,
    Spectrum,
    bandpass_window,
    bin_index,
    folded_frequencies,
    forward_fft,
    inverse_fft,
)

__version__ = "0.1.0"

__all__ = [
    "BandSpec",
    "CarrierLostError",
    "ChannelConfig",
    "CustomCycle",
    "DopplerEstimate",
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
    "apply_channel",
    "bandpass_window",
    "bin_index",
    "combine",
    "compute_ddm",
    "ddm_deviation",
    "default_scenario",
    "dump_spectrum",
    "emit_csv",
    "emit_plot",
    "equalize",
    "estimate_amplitudes",
    "eval_modulator",
    "extract_doppler",
    "folded_frequencies",
    "forward_fft",
    "fp_grid",
    "inverse_fft",
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
    "synth_ils",
    "synth_tone",
]
