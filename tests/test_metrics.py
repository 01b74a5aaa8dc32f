import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from propeq import (
    CarrierLostError,
    IlsParams,
    SampleBuffer,
    ToneAmplitudes,
    compute_ddm,
)
from propeq.metrics import DDM_FREQS, amplitudes_from_bins
from propeq.spectral import dft_bins, dft_twiddles

from oracles import synth_ils


def estimate_amplitudes(buf):
    """The amplitudes the engine reads from a capture's DDM bins."""
    bins = dft_bins(dft_twiddles(buf.clock, DDM_FREQS), buf.samples)
    return amplitudes_from_bins(bins, buf.clock.n_samples)


def test_clean_ils_estimates(clock):
    amps = estimate_amplitudes(synth_ils(IlsParams(1.0, 0.6, 0.8), clock))
    assert amps.a_c == pytest.approx(1.0, abs=1e-9)
    assert amps.a_90 == pytest.approx(0.6, abs=1e-9)
    assert amps.a_150 == pytest.approx(0.8, abs=1e-9)


def test_estimates_scale_linearly(clock):
    buf = synth_ils(IlsParams(1.0, 0.6, 0.8), clock)
    doubled = estimate_amplitudes(SampleBuffer(clock, 2.0 * buf.samples))
    assert doubled.a_c == pytest.approx(2.0, abs=1e-9)
    assert doubled.a_90 == pytest.approx(1.2, abs=1e-9)
    assert doubled.a_150 == pytest.approx(1.6, abs=1e-9)


def test_zero_buffer_estimates_zero(clock):
    amps = estimate_amplitudes(SampleBuffer.zeros(clock))
    assert (amps.a_c, amps.a_90, amps.a_150) == (0.0, 0.0, 0.0)


def test_estimate_requires_integer_bins():
    from propeq import SampleClock

    odd_clock = SampleClock(rate_hz=32000.0, n_samples=31000)  # 1.032 Hz bins
    with pytest.raises(ValueError, match="integer bin"):
        estimate_amplitudes(SampleBuffer.zeros(odd_clock))


def test_ddm_default_amplitudes():
    assert compute_ddm(ToneAmplitudes(1.0, 0.6, 0.8)) == pytest.approx(-0.2, abs=1e-15)


def test_ddm_symmetric_modulation_is_zero():
    for a in (0.5, 1.0, 3.0):
        assert compute_ddm(ToneAmplitudes(a, 0.7, 0.7)) == 0.0


def test_ddm_scale_invariance_example():
    assert compute_ddm(ToneAmplitudes(2.0, 1.2, 1.6)) == pytest.approx(-0.2, abs=1e-15)


def test_carrier_lost():
    with pytest.raises(CarrierLostError, match="carrier lost"):
        compute_ddm(ToneAmplitudes(0.0, 0.6, 0.8))


def test_tone_amplitudes_validation():
    with pytest.raises(ValueError):
        ToneAmplitudes(1.0, -0.1, 0.8)
    with pytest.raises(ValueError):
        ToneAmplitudes(float("nan"), 0.6, 0.8)


positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


@given(a_c=positive, a_90=positive, a_150=positive)
def test_two_term_form_equivalence(a_c, a_90, a_150):
    # the definition subtracts two per-tone depth terms; it collapses to the
    # simplified ratio exactly, up to cancellation-limited roundoff
    two_term = (a_90 - a_c) / a_c - (a_150 - a_c) / a_c
    simplified = compute_ddm(ToneAmplitudes(a_c, a_90, a_150))
    tol = 1e-15 * (max(a_90, a_150) / a_c + 1.0)
    assert abs(two_term - simplified) <= tol


@given(a_c=positive, a_90=positive, a_150=positive, k=st.floats(1e-3, 1e3))
# a_90 - a_150 cancels: off by 6.9e-11, against 1.8e-9 allowed
@example(a_c=1.0, a_90=999902.0, a_150=999965.0, k=1.7120044927892764)
def test_ddm_gain_invariance(a_c, a_90, a_150, k):
    base = compute_ddm(ToneAmplitudes(a_c, a_90, a_150))
    scaled = compute_ddm(ToneAmplitudes(k * a_c, k * a_90, k * a_150))
    # the rounding bound, with u = eps/2: k*a_c, k*a_90, k*a_150, their
    # difference and the quotient each round once, so the scaled DDM is off
    # the exact one by u*(a_90 + a_150)/a_c + 3u*|DDM| + O(u^2), and the
    # unscaled one, whose difference and quotient round, by 2u*|DDM|. Together
    # |dDDM| <= u*(a_90 + a_150)/a_c + 5u*|DDM| + O(u^2), within this bound
    eps = sys.float_info.epsilon
    assert abs(scaled - base) <= 4 * eps * (abs(base) + (a_90 + a_150) / a_c)
