import math
import re
import typing
from dataclasses import is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propeq import (
    BandSpec,
    ChannelConfig,
    CustomCycle,
    IlsParams,
    PropellerModel,
    RegPolicy,
    ScenarioConfig,
    SampleClock,
    SineRipple,
    SquareWave,
    ToneAmplitudes,
    ToneParams,
    bin_index,
    eval_modulator,
    modulator_spectrum,
    scenario_with,
)
from propeq.channel import _cycle_frac, unit_noise
from propeq.pipeline import rx_spectrum
from propeq.signals import fields_of

import oracles
from oracles import square_cycle_coeff, times


def one_prop(shape, f_p=30.0, phase=0.0, snr_db=None, rng_seed=0):
    return ChannelConfig(
        propellers=(PropellerModel(shape=shape, f_p=f_p, phase=phase, coeff=1.0),),
        snr_db=snr_db,
        rng_seed=rng_seed,
    )


def received(clock, channel):
    """The engine's clean and noisy received spectra of the default transmission."""
    cfg = ScenarioConfig(clock=clock, channel=channel)
    return rx_spectrum(scenario_with(cfg, snr_db=None)).bins, rx_spectrum(cfg).bins


# ---------------------------------------------------------------------------
# modulator evaluation


def test_flat_square_is_unity(clock):
    cfg = one_prop(SquareWave(duty=0.25, lo=1.0, hi=1.0))
    m = eval_modulator(cfg, clock)
    assert np.all(m == 1.0)


def test_sine_ripple_at_t0(clock):
    cfg = one_prop(SineRipple(beta=0.5), f_p=25.0)
    m = eval_modulator(cfg, clock)
    assert m[0] == pytest.approx(1.5, abs=1e-12)
    assert m.dtype == np.float64


def test_square_duty_mean_over_exact_period(clock):
    # closed-form duty-cycle average 0.25*0.5 + 0.75*1.0, checked numerically
    cfg = one_prop(SquareWave(duty=0.25, lo=0.5, hi=1.0), f_p=20.0)
    m = eval_modulator(cfg, clock)
    period = int(clock.rate_hz / 20.0)
    assert np.mean(m[:period]) == pytest.approx(0.875, abs=1e-12)


def test_square_left_closed_edges(clock):
    cfg = one_prop(SquareWave(duty=0.25, lo=0.5, hi=1.0), f_p=20.0)
    m = eval_modulator(cfg, clock)
    period = int(clock.rate_hz / 20.0)
    lo_run = int(0.25 * period)
    assert m[0] == 0.5
    assert m[lo_run - 1] == 0.5
    assert m[lo_run] == 1.0


def test_custom_cycle_tiling(small_clock):
    f_quarter = small_clock.rate_hz / 4.0  # 4-sample cycle
    cfg = one_prop(CustomCycle(gains=(2.0, 4.0)), f_p=f_quarter)
    m = eval_modulator(cfg, small_clock)
    assert np.array_equal(m[:8], [2.0, 2.0, 4.0, 4.0, 2.0, 2.0, 4.0, 4.0])


def test_multi_propeller_sum_and_normalization(clock):
    cfg = ChannelConfig(
        propellers=(
            PropellerModel(shape=SineRipple(0.5), f_p=20.0, coeff=2.0),
            PropellerModel(shape=SineRipple(0.2), f_p=35.0, coeff=6.0),
        )
    )
    assert [p.coeff for p in cfg.propellers] == pytest.approx([0.25, 0.75])
    assert sum(p.coeff for p in cfg.propellers) == pytest.approx(1.0, abs=1e-12)
    m = eval_modulator(cfg, clock)
    t = times(clock)
    expected = 0.25 * (1 + 0.5 * np.cos(2 * np.pi * 20 * t)) + 0.75 * (
        1 + 0.2 * np.cos(2 * np.pi * 35 * t)
    )
    assert np.allclose(m, expected, atol=1e-12)


@pytest.mark.parametrize(
    "shape_kwargs",
    [
        {"duty": 0.0},
        {"duty": 1.0},
        {"lo": 0.0},
        {"lo": -0.5},
        {"lo": 1.5, "hi": 1.0},
    ],
)
def test_square_validation(shape_kwargs):
    with pytest.raises(ValueError):
        SquareWave(**shape_kwargs)


_INF, _NAN, _HUGE = float("inf"), float("nan"), 10**400  # _HUGE: an int beyond every float

# the fields that have no default, given values so that each class can be built
_REQUIRED = {
    PropellerModel: {"shape": SquareWave()},
    BandSpec: {"center_hz": 0.0},
    ToneAmplitudes: {"a_c": 1.0, "a_90": 0.6, "a_150": 0.8},
}
# a range check runs before the finite check, so a non-finite value that it
# rejects keeps the range check's message: (values it rejects, message with {}),
# each value named by its repr, and _HUGE by "huge"
_RANGE_FIRST = {
    (SampleClock, "rate_hz"): (
        ("nan", "inf", "-inf", "huge"), "rate_hz must be finite and > 0, got {}"),
    (IlsParams, "a_c"): (("nan", "-inf"), "a_c must be > 0, got {}"),
    (IlsParams, "a_90"): (("-inf",), "tone amplitudes must be >= 0"),
    (IlsParams, "a_150"): (("-inf",), "tone amplitudes must be >= 0"),
    (ToneParams, "offset_hz"): (
        ("nan", "-inf"), "offset_hz must be >= 300 to separate tone and signal, got {}"),
    (ToneParams, "amp"): (("nan", "-inf"), "amp must be a normal float > 0, got {}"),
    (SquareWave, "duty"): (("nan", "inf", "-inf", "huge"), "duty must be in (0, 1), got {}"),
    (SquareWave, "lo"): (("nan", "inf", "-inf", "huge"), "need 0 < lo <= hi, got lo={} hi=1.0"),
    (SquareWave, "hi"): (("nan", "-inf"), "need 0 < lo <= hi, got lo=0.5 hi={}"),
    (SineRipple, "beta"): (("nan", "inf", "-inf", "huge"), "beta must be in [0, 1), got {}"),
    (PropellerModel, "f_p"): (("nan", "-inf"), "f_p must be > 0, got {}"),
    (PropellerModel, "coeff"): (("nan", "-inf"), "coeff must be > 0, got {}"),
    (RegPolicy, "eps_rel"): (("nan", "inf", "-inf", "huge"), "eps_rel must be in (0, 1), got {}"),
    (ScenarioConfig, "signal_half_width_hz"): (
        ("nan", "-inf"), "signal_half_width_hz must be > 0, got {}"),
    (ScenarioConfig, "tone_half_width_hz"): (
        ("nan", "-inf"), "tone_half_width_hz must be > 0, got {}"),
    (BandSpec, "half_width_hz"): (("nan", "-inf"), "half_width_hz must be > 0, got {}"),
    (ToneAmplitudes, "a_c"): (("-inf",), "a_c must be >= 0, got {}"),
    (ToneAmplitudes, "a_90"): (("-inf",), "a_90 must be >= 0, got {}"),
    (ToneAmplitudes, "a_150"): (("-inf",), "a_150 must be >= 0, got {}"),
}


def _dataclasses_in(tp):
    """The dataclasses a field of type ``tp`` may hold, at any depth, ``tp`` first."""
    if is_dataclass(tp):
        yield tp
        for _, hint, _ in fields_of(tp):
            yield from _dataclasses_in(hint)
    for arg in typing.get_args(tp):
        yield from _dataclasses_in(arg)


def _non_finite_cases():
    """(build, message): each float field of each scenario dataclass given NaN, +inf, -inf
    and _HUGE."""
    for cls in dict.fromkeys([*_dataclasses_in(ScenarioConfig), BandSpec, ToneAmplitudes]):
        for name, tp, _ in fields_of(cls):
            if tp is not float:
                continue
            for value in (_NAN, _INF, -_INF, _HUGE):
                label = "huge" if value is _HUGE else repr(value)
                claimed, message = _RANGE_FIRST.get((cls, name), ((), ""))
                if label not in claimed:
                    message = f"{name} must be finite, got {{}}"
                kwargs = {**_REQUIRED.get(cls, {}), name: value}
                case = (lambda cls=cls, kwargs=kwargs: cls(**kwargs)), message.format(value)
                # a message with 401 digits in it would make the test id unreadable
                if label == "huge":
                    case = pytest.param(*case, id=f"{cls.__name__}.{name}-huge")
                yield case


@pytest.mark.parametrize(
    "build, message",
    [
        *_non_finite_cases(),
        # each coefficient is finite, but their sum is not
        (lambda: ChannelConfig((PropellerModel(SquareWave(), coeff=1e308),) * 2),
         "propeller coefficients must have a finite sum, got inf"),
    ],
)
def test_constructors_reject_non_finite_numbers(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_other_shape_validation():
    with pytest.raises(ValueError):
        SineRipple(beta=1.0)
    with pytest.raises(ValueError):
        SineRipple(beta=-0.1)
    with pytest.raises(ValueError):
        CustomCycle(gains=())
    with pytest.raises(ValueError):
        PropellerModel(shape=SineRipple(), f_p=0.0)
    with pytest.raises(ValueError):
        PropellerModel(shape=SineRipple(), coeff=0.0)
    with pytest.raises(ValueError):
        ChannelConfig(propellers=())


# ---------------------------------------------------------------------------
# receive channel


def test_identity_channel_exact(clock):
    # through a unit gain the dump is the transmit's line spectrum: N*c_k at
    # its six bins, 0 elsewhere. The computed M = FFT(1) is off by at most
    # about eps*log2(N)*||M||_2 = eps*log2(N)*N per bin (the FFT's normwise
    # error bound), and the six lines scale that by sum|c_k|: 3.6e-10 here,
    # against 3.8e-13 measured. A transmit sampled with float phases
    # 2*pi*f*t is off by 8.1e-9
    channel = one_prop(CustomCycle(gains=(1.0,)))
    _, rx = received(clock, channel)
    n = clock.n_samples
    lines = oracles.transmit_lines(ScenarioConfig(clock=clock, channel=channel))
    want = np.zeros(n, dtype=complex)
    for k, c in lines:
        want[k] += n * c
    tol = np.finfo(float).eps * math.log2(n) * n * sum(abs(c) for _, c in lines)
    assert np.abs(rx - want).max() <= tol


def test_fixed_seed_is_bit_identical(clock):
    cfg = one_prop(SquareWave(), snr_db=20.0, rng_seed=7)
    _, a = received(clock, cfg)
    _, b = received(clock, cfg)
    assert np.array_equal(a, b)


def test_different_seeds_differ(clock):
    _, a = received(clock, one_prop(SquareWave(), snr_db=20.0, rng_seed=1))
    _, b = received(clock, one_prop(SquareWave(), snr_db=20.0, rng_seed=2))
    assert not np.array_equal(a, b)


# the powers are read from spectra; Parseval's 1/N^2 cancels in their ratio


def test_awgn_power_calibration(clock):
    clean, noisy = received(clock, one_prop(SquareWave(), snr_db=20.0, rng_seed=0))
    p_sig = np.mean(np.abs(clean) ** 2)
    p_noise = np.mean(np.abs(noisy - clean) ** 2)
    err_db = 10 * np.log10(p_noise / (p_sig / 100.0))
    assert abs(err_db) < 0.3


@settings(max_examples=12)
@given(
    snr_db=st.sampled_from([0.0, 10.0, 20.0, 30.0]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_awgn_calibration_property(clock, snr_db, seed):
    clean, noisy = received(clock, one_prop(SquareWave(), snr_db=snr_db, rng_seed=seed))
    p_sig = np.mean(np.abs(clean) ** 2)
    p_noise = np.mean(np.abs(noisy - clean) ** 2)
    err_db = 10 * np.log10(p_noise / (p_sig / 10 ** (snr_db / 10.0)))
    assert abs(err_db) < 0.3


# ---------------------------------------------------------------------------
# modulator spectrum


def test_unity_gain_spectrum_is_dc_only(clock):
    spec = modulator_spectrum(one_prop(CustomCycle(gains=(1.0,))), clock)
    mags = np.abs(spec.bins)
    assert mags[0] == pytest.approx(clock.n_samples, rel=1e-12)
    assert np.delete(mags, 0).max() < 1e-9 * mags[0]


def test_symmetric_square_has_no_even_harmonics(clock):
    # +/-1 levels sit outside SquareWave's gain range; a custom cycle covers them
    per = int(clock.rate_hz / 20.0)
    cycle = tuple([-1.0] * (per // 2) + [1.0] * (per // 2))
    spec = modulator_spectrum(one_prop(CustomCycle(gains=cycle), f_p=20.0), clock)
    mags = np.abs(spec.bins)
    fund = mags[bin_index(clock, 20.0)]
    for k in (2, 4, 6, 8):
        assert mags[bin_index(clock, 20.0 * k)] <= 1e-9 * fund


def test_square_harmonic_ratios_match_closed_form(clock):
    duty, lo, hi, f_p = 0.25, 0.5, 1.0, 20.0
    per = int(clock.rate_hz / f_p)
    spec = modulator_spectrum(one_prop(SquareWave(duty, lo, hi), f_p=f_p), clock)
    mags = np.abs(spec.bins)
    fund = mags[bin_index(clock, f_p)]
    # 4th/1st harmonic ratio: the quarter-duty chop nulls the 4th exactly
    c1 = abs(square_cycle_coeff(1, duty, lo, hi, per))
    c4 = abs(square_cycle_coeff(4, duty, lo, hi, per))
    assert c4 / c1 == pytest.approx(0.0, abs=1e-15)
    assert mags[bin_index(clock, 4 * f_p)] / fund == pytest.approx(c4 / c1, abs=1e-12)
    # non-degenerate harmonics agree with the geometric-series closed form
    for k in (1, 2, 3, 5, 6):
        expected = abs(square_cycle_coeff(k, duty, lo, hi, per)) * clock.n_samples
        assert mags[bin_index(clock, k * f_p)] == pytest.approx(expected, rel=1e-9)


def test_modulator_spectrum_hermitian(clock):
    spec = modulator_spectrum(one_prop(SquareWave(), f_p=23.7, phase=0.9), clock)
    n = clock.n_samples
    conj_mirror = np.conj(spec.bins[(-np.arange(n)) % n])
    assert np.allclose(spec.bins, conj_mirror, atol=1e-6 * np.abs(spec.bins).max())


@settings(max_examples=20)
@given(
    phase=st.floats(min_value=0.0, max_value=2 * np.pi, allow_nan=False),
    f_p=st.sampled_from([16.0, 20.0, 25.0, 32.0, 40.0]),
)
def test_phase_shift_preserves_bin_magnitudes(clock, phase, f_p):
    # rates whose cycle and low-run both span whole samples: the shifted
    # waveform is a circular shift, so magnitudes match exactly
    ref = modulator_spectrum(one_prop(SquareWave(), f_p=f_p, phase=0.0), clock)
    shifted = modulator_spectrum(one_prop(SquareWave(), f_p=f_p, phase=phase), clock)
    scale = np.abs(ref.bins).max()
    assert np.allclose(np.abs(shifted.bins), np.abs(ref.bins), atol=1e-9 * scale)


def test_multi_propeller_spectrum_linearity(clock):
    p1 = PropellerModel(shape=SquareWave(), f_p=20.0, phase=0.3, coeff=1.0)
    p2 = PropellerModel(shape=SineRipple(0.4), f_p=33.0, phase=1.1, coeff=1.0)
    combined = ChannelConfig(
        propellers=(
            PropellerModel(shape=p1.shape, f_p=p1.f_p, phase=p1.phase, coeff=0.3),
            PropellerModel(shape=p2.shape, f_p=p2.f_p, phase=p2.phase, coeff=0.7),
        )
    )
    g1 = modulator_spectrum(ChannelConfig(propellers=(p1,)), clock).bins
    g2 = modulator_spectrum(ChannelConfig(propellers=(p2,)), clock).bins
    g12 = modulator_spectrum(combined, clock).bins
    expected = 0.3 * g1 + 0.7 * g2
    scale = np.abs(expected).max()
    assert np.allclose(g12, expected, atol=1e-12 * scale)


@given(
    f_p=st.one_of(st.sampled_from([22.5, 30.0, 37.5]), st.floats(1e-3, 1e4)),
    phase=st.one_of(st.sampled_from([0.0, -0.0, -2 * np.pi, 4 * np.pi]), st.floats(-1e15, 1e15)),
    n=st.one_of(st.integers(0, 5000).map(lambda i: 2 * i + 1), st.sampled_from([6007, 32000])),
    rate=st.one_of(st.none(), st.floats(1.0, 1e6)),
)
def test_cycle_frac_is_the_np_mod_form_bit_for_bit(f_p, phase, n, rate):
    clock = SampleClock(rate_hz=float(n) if rate is None else rate, n_samples=n)
    got = _cycle_frac(f_p, phase, clock)
    want = oracles.cycle_frac_by_mod(f_p, phase, clock)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@given(seed=st.integers(0, 2**64), n=st.integers(0, 5001))
def test_unit_noise_is_the_summed_form_bit_for_bit(seed, n):
    got = unit_noise(seed, n)
    want = oracles.unit_noise_by_sum(seed, n)
    # the same draws in the same order; a + 1j*b may flip the sign of a zero
    # component, so zeros compare by value
    assert np.array_equal(got, want)
    parts = got.view(np.float64)
    assert np.all((parts.view(np.uint64) == want.view(np.uint64)) | (parts == 0))
