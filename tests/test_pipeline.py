"""The staged engine against the plain numpy reference chain in ``oracles``."""

import dataclasses
import json
import math
import re
import statistics
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propeq import (
    CarrierLostError,
    ChannelConfig,
    CustomCycle,
    IlsParams,
    PropellerModel,
    SampleClock,
    ScenarioConfig,
    SineRipple,
    SquareWave,
    ToneAbsentError,
    ToneParams,
    default_scenario,
    eval_modulator,
    modulator_spectrum,
    predict_blind_spots,
    run_single,
    scenario_from_dict,
    scenario_with,
    sweep_fp,
)
from propeq.cli import main
from propeq.harness import DEFAULT_PROPELLER_PHASE, simulate
from propeq.equalizer import BLIND_SPOT_THRESHOLD
from propeq.pipeline import (
    STAGES,
    Pipeline,
    _transmit,
    rx_spectrum,
    seeds_per_block,
    stage_spectrum,
)
from propeq.metrics import DDM_FREQS, amplitudes_from_bins, compute_ddm
from propeq.spectral import band_offsets, bin_index, root_powers

import oracles

DDM_TOL = 1e-12

MULTIPROP = {
    "channel": {
        "propellers": [
            {"shape": {"kind": "square", "duty": 0.3, "lo": 0.5, "hi": 1.0},
             "f_p": 30.0, "phase": 1.366, "coeff": 0.5},
            {"shape": {"kind": "sine", "beta": 0.4}, "f_p": 30.0, "phase": 0.7, "coeff": 0.3},
            {"shape": {"kind": "custom", "gains": [1.0, 0.85, 0.6, 0.75, 0.95, 0.7]},
             "f_p": 30.0, "phase": 2.2, "coeff": 0.2},
        ],
        "snr_db": 20.0,
        "rng_seed": 0,
    }
}


def single(shape, f_p=30.0, snr_db=20.0, seed=3, **cfg):
    prop = PropellerModel(shape=shape, f_p=f_p, phase=DEFAULT_PROPELLER_PHASE)
    return ScenarioConfig(channel=ChannelConfig((prop,), snr_db=snr_db, rng_seed=seed), **cfg)


DEEP_CHOP = single(SquareWave(duty=0.3, lo=0.05, hi=1.0), f_p=24.0)

SCENARIOS = {
    "default": default_scenario(),
    "multiprop": scenario_from_dict(MULTIPROP),
    "sine": single(SineRipple(0.5), f_p=25.0),
    "noiseless": single(SquareWave(), f_p=22.5, snr_db=None),
    "clock6400": single(SquareWave(), clock=SampleClock(rate_hz=6400.0, n_samples=6400)),
    "deep_chop": DEEP_CHOP,
    # a tone with phase and gain, and a signal band narrower than the tone
    # band, so the bands get separate IFFT plans and 150 Hz lies outside it
    "narrow_signal": single(
        SineRipple(0.5),
        f_p=26.0,
        tone=ToneParams(amp=0.5, phase=0.7),
        signal_half_width_hz=120.0,
    ),
    # a tone moved off the default offset takes its band along
    "moved_tone": single(SineRipple(0.5), f_p=25.0, tone=ToneParams(offset_hz=1600.0)),
}


@pytest.mark.parametrize("name", SCENARIOS)
def test_run_matches_composed_stages(name):
    cfg = SCENARIOS[name]
    want = oracles.ddms(cfg)
    got = run_single(cfg)
    assert abs(got.ddm_raw - want[0]) <= DDM_TOL
    assert abs(got.ddm_eq - want[1]) <= DDM_TOL


def test_deep_chop_engages_the_regularization_floor():
    cfg = DEEP_CHOP
    g = np.abs(oracles.g_hat(cfg, oracles.received(cfg)))
    assert np.mean(g < cfg.reg.eps_rel * g.max()) > 0


@pytest.mark.parametrize("name", ["multiprop", "sine", "noiseless", "deep_chop"])
def test_sweep_shares_work_without_changing_runs(name):
    # the modulator and noise products are reused across seeds and rates
    cfg = SCENARIOS[name]
    sweep = sweep_fp(cfg, 22.5, 23.5, 1.0, seeds=[0, 4])
    for r in sweep.results:
        one = scenario_with(cfg, f_p=r.f_p_hz, seed=r.seed)
        want = oracles.ddms(one)
        assert abs(r.ddm_raw - want[0]) <= DDM_TOL
        assert abs(r.ddm_eq - want[1]) <= DDM_TOL
        if name == "noiseless":
            # the shared sum clean + 0*zero is the run's own series, bit for bit
            assert r == run_single(one)


@pytest.mark.parametrize("threshold", [BLIND_SPOT_THRESHOLD, 0.05])
def test_flags_match_predict_blind_spots(threshold):
    # the sweep's flags and predict_blind_spots at any threshold agree with
    # a full FFT of the modulator
    cfg = default_scenario()
    sweep = sweep_fp(cfg, 15.0, 40.0, 0.5, seeds=[0])
    for s in sweep.summaries:
        channel = scenario_with(cfg, f_p=s.f_p_hz).channel
        bins = modulator_spectrum(channel, cfg.clock).bins

        def full(t):
            return tuple(f for f in (90.0, 150.0) if abs(bins[int(f)]) > t * abs(bins[0]))

        assert s.flagged_freqs == full(BLIND_SPOT_THRESHOLD)
        assert predict_blind_spots(channel, cfg.clock, rel_threshold=threshold) == full(threshold)


def test_blocking_channel_loses_the_carrier_before_the_tone():
    cfg = single(CustomCycle((0.0,)), f_p=20.0, snr_db=None)
    with pytest.raises(CarrierLostError):
        oracles.ddms(cfg)
    with pytest.raises(CarrierLostError):
        run_single(cfg)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("snr_db", [400.0, None])
def test_vanishing_tone_is_absent(snr_db):
    # a sine ripple keeps the ILS out of the tone band, so only roundoff and
    # the 400 dB noise floor are there, far below 1e-24 of the received
    # energy, which the run reads from its clean and unit noise norms
    cfg = single(SineRipple(0.5), f_p=25.0, snr_db=snr_db, tone=ToneParams(amp=1e-20))
    with pytest.raises(ToneAbsentError):
        run_single(cfg)
    # a 2 x 2 grid sums shared band series instead
    with pytest.raises(ToneAbsentError):
        sweep_fp(cfg, 25.0, 26.0, 1.0, seeds=[0, 1])


@pytest.mark.filterwarnings("error")
def test_no_run_synthesizes_the_transmit():
    # a run gathers its band bins from the transmit's six lines and decides
    # tone absence from norms it holds; propeq has no sample-by-sample transmit
    run_single(default_scenario())
    for snr_db in (400.0, None):
        cfg = single(SineRipple(0.5), f_p=25.0, snr_db=snr_db, tone=ToneParams(amp=1e-20))
        with pytest.raises(ToneAbsentError):
            run_single(cfg)
        with pytest.raises(ToneAbsentError):
            sweep_fp(cfg, 25.0, 26.0, 1.0, seeds=[0, 1])
    # tx*m overflows although its band bins are finite (see test_cli)
    loud_90 = scenario_from_dict({
        "ils": {"a_90": 1.7e308},
        "channel": {"propellers": [{"shape": {"kind": "sine", "beta": 0.5}, "f_p": 1.0}],
                    "snr_db": None},
        "signal_half_width_hz": 50.0,
        "tone_half_width_hz": 50.0,
    })
    with pytest.raises(ValueError, match="^samples must be finite$"):
        run_single(loud_90)


# finite floats whose pairwise sums stay finite, subnormals included; the small
# pool makes repeats likely
_MEDIAN_VALUES = st.one_of(
    st.floats(-sys.float_info.max / 2, sys.float_info.max / 2),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, sys.float_info.min, 1.0, 2.0]),
)


@settings(max_examples=500)
@given(values=st.lists(_MEDIAN_VALUES, min_size=1, max_size=12))
def test_sweep_median_is_np_median_bit_for_bit(values):
    # pipeline.sweep takes its per-rate medians with statistics.median
    got, want = np.float64(statistics.median(values)), np.median(values)
    # np.median's partition may order -0.0 and 0.0 otherwise than sorted() does,
    # so zeros compare by value; a sweep's deviations are never -0.0
    assert got.view(np.uint64) == want.view(np.uint64) or got == want == 0.0


def test_sweep_summaries_hold_the_np_medians_of_their_runs():
    # four seeds: each median is the mean of the middle two deviations
    sweep = sweep_fp(default_scenario(), 22.5, 23.5, 0.5, seeds=[0, 1, 2, 3])
    for s in sweep.summaries:
        runs = [r for r in sweep.results if r.f_p_hz == s.f_p_hz]
        assert s.median_dev_raw == np.median([r.dev_raw for r in runs])
        assert s.median_dev_eq == np.median([r.dev_eq for r in runs])


@pytest.mark.parametrize("name", ["default", "multiprop", "odd_clock"])
def test_rx_dump_is_the_spectrum_of_the_six_line_transmit(name):
    # an odd clock has no Nyquist bin, so the rfft's mirror image is one bin shorter
    odd = single(SquareWave(), clock=SampleClock(rate_hz=6401.0, n_samples=6401))
    cfg = odd if name == "odd_clock" else SCENARIOS[name]
    # FFT(tx*m) with tx summed from its six lines at integer-reduced phases.
    # 1e-11 is about 1.6 eps of the largest bin (2.8e4); the dump is off by
    # 3.0e-12 (default), 3.7e-12 (multiprop) and 2.0e-12 (odd clock), and a
    # transmit sampled with float phases 2*pi*f*t by 6.9e-9 and 7.2e-9
    tx = oracles.transmit_by_lines(cfg)
    want = np.fft.fft(tx * eval_modulator(cfg.channel, cfg.clock))
    clean = rx_spectrum(scenario_with(cfg, snr_db=None)).bins
    np.testing.assert_allclose(clean, want, rtol=0, atol=1e-11)
    # with noise, its band bins are what a run reads, bit for bit: the dump and
    # the run form them by one line sum over one chop spectrum
    pipe = Pipeline(cfg)
    mod, noise = pipe.modulate(), pipe.noise(cfg.channel.rng_seed)
    rx = rx_spectrum(cfg).bins
    for band, clean, unit in ((cfg.signal_band, mod.signal, noise.signal),
                              (cfg.tone_band, mod.tone, noise.tone)):
        got = rx[band_offsets(cfg.clock, band) % cfg.clock.n_samples]
        assert np.array_equal(got, clean + mod.scale * unit)


def test_stage_spectra_match_composed_stages():
    cfg = SCENARIOS["multiprop"]
    rx = oracles.received(cfg)
    want = {
        "modulator": np.fft.fft(eval_modulator(cfg.channel, cfg.clock)),
        "rx": rx,
        "equalized": np.fft.fft(oracles.equalized(cfg, rx)),
    }
    assert tuple(want) == STAGES
    # Each side forms a bin from the same N samples by a different order of
    # operations (a line sum over the chop's rfft against an FFT of the chopped
    # transmit; band IFFTs and the engine's divider against full-length
    # transforms). A bin then carries the roundoff of about log2(N) rounded
    # additions, each at most eps of the largest bin: eps*log2(N)*max|want|,
    # 1.1e-10 for the equalized stage. The engine is off by 0 (modulator),
    # 7.3e-12 (rx) and 1.5e-11 (equalized)
    eps, log_n = np.finfo(np.float64).eps, math.log2(cfg.clock.n_samples)
    for stage in STAGES:
        got = stage_spectrum(cfg, stage).bins
        tol = eps * log_n * np.abs(want[stage]).max()
        np.testing.assert_allclose(got, want[stage], rtol=0, atol=tol)
    with pytest.raises(ValueError, match="stage must be one of"):
        stage_spectrum(cfg, "tone")


def test_equalized_capture_keeps_the_tone_phase():
    # the DDM reads magnitudes only, so compare the equalized capture itself;
    # the engine shifts the tone bins and the reference's carrier reduces its
    # phase modulo N in integers, so the two agree to roundoff
    cfg = SCENARIOS["narrow_signal"]
    want = oracles.equalized(cfg, oracles.received(cfg))
    pipe = Pipeline(cfg)
    got = pipe.equalized(pipe.modulate(), pipe.noise(cfg.channel.rng_seed)).samples
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def test_serial_and_threaded_multiprop_csv_identical(tmp_path):
    path = tmp_path / "multiprop.json"
    path.write_text(json.dumps(MULTIPROP))
    base = ["sweep", "--config", str(path), "--fp-start", "20", "--fp-stop", "24",
            "--fp-step", "1", "--seeds", "3"]
    a, b, c = (tmp_path / f"{name}.csv" for name in ("serial", "two", "many"))
    assert main(base + ["--out", str(a), "--workers", "1"]) == 0
    assert main(base + ["--out", str(b), "--workers", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()
    # one thread per rate, more than cores, switching as often as possible
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert main(base + ["--out", str(c), "--workers", "8"]) == 0
    finally:
        sys.setswitchinterval(interval)
    assert a.read_bytes() == c.read_bytes()


def test_threaded_sweep_over_two_seed_blocks_matches_serial():
    # the workers read each block's shared noise series and the
    # rates' modulators, which are built once before the first block
    cfg = default_scenario()
    seeds = list(range(seeds_per_block(cfg.clock.n_samples) + 1))
    serial = sweep_fp(cfg, 20.0, 22.0, 0.5, seeds=seeds)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = sweep_fp(cfg, 20.0, 22.0, 0.5, seeds=seeds, workers=5)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_simulate_csv_is_a_one_point_sweep(tmp_path):
    one, swept = tmp_path / "one.csv", tmp_path / "swept.csv"
    assert main(["simulate", "--fp", "22.5", "--seed", "7", "--out", str(one)]) == 0
    assert main(["sweep", "--fp-start", "22.5", "--fp-stop", "22.5", "--seeds", "8",
                 "--out", str(swept)]) == 0
    header, *rows = swept.read_text().splitlines()
    assert one.read_text() == f"{header}\n{rows[7]}\n"


@pytest.fixture()
def inverse_lengths(monkeypatch):
    """The transform length of every numpy inverse FFT made while it is active."""
    lengths = []
    ifft = np.fft.ifft

    def recorded(a, n=None, axis=-1, *args, **kwargs):
        lengths.append(n if n is not None else np.shape(a)[axis])
        return ifft(a, n, axis, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", recorded)
    return lengths


@pytest.mark.parametrize("n, length", [(32000, 640), (2**17, 1024)])
def test_sweep_runs_make_two_short_inverse_transforms(inverse_lengths, n, length):
    # 601-bin bands: batches of 640-point transforms on the 32000-point clock,
    # whose block of 5 seeds shares series, and of 1024-point ones on 2**17
    # points, whose block holds one seed, so every run makes its own two
    cfg = dataclasses.replace(default_scenario(), clock=SampleClock(float(n), n))
    sweep = sweep_fp(cfg, 22.5, 23.0, 0.5, seeds=[0, 1])
    assert len(sweep.results) == 4
    assert len(inverse_lengths) == 2 * 4
    assert set(inverse_lengths) == {length}
    for r in sweep.results:
        one = run_single(scenario_with(cfg, f_p=r.f_p_hz, seed=r.seed))
        assert r.ddm_raw == pytest.approx(one.ddm_raw, abs=1e-12)
        assert r.ddm_eq == pytest.approx(one.ddm_eq, abs=1e-12)


@pytest.mark.parametrize("n", [32000, 36000, 32003])
def test_run_kernel_reads_the_fft_of_its_quotient(n):
    # the kernel's five DDM bins come from one fold of the quotient, on a clock
    # whose twiddle periods nest, one where they do not and a prime one; the
    # equalized capture is the same kernel's quotient
    cfg = dataclasses.replace(SCENARIOS["sine"], clock=SampleClock(float(n), n))
    pipe = Pipeline(cfg)
    mod, noise = pipe.modulate(), pipe.noise(cfg.channel.rng_seed)
    spec = np.fft.fft(pipe.equalized(mod, noise).samples)
    bins = spec[[bin_index(cfg.clock, f) for f in DDM_FREQS]]
    want = compute_ddm(amplitudes_from_bins(bins, n))
    assert pipe.runs(mod, [noise])[0][1] == pytest.approx(want, rel=0, abs=1e-12)


def test_simulate_makes_two_short_inverse_transforms(inverse_lengths):
    simulate(default_scenario())
    assert inverse_lengths == [640, 640]


def test_default_sweep_makes_its_band_iffts_per_rate_and_per_seed(inverse_lengths):
    # each seed block: two band IFFTs per rate on its clean bins; each seed:
    # two on its unit noise bins, which are zero without noise; a run sums
    # them instead of making its own
    rates, seeds = 51, list(range(10))
    blocks = math.ceil(len(seeds) / seeds_per_block(32000))
    assert blocks == 2
    for snr_db in (20.0, None):
        inverse_lengths.clear()
        cfg = scenario_with(default_scenario(), snr_db=snr_db)
        sweep = sweep_fp(cfg, 15.0, 40.0, 0.5, seeds=seeds)
        assert len(sweep.results) == rates * len(seeds)
        assert len(inverse_lengths) == 2 * rates * blocks + 2 * len(seeds) == 224, snr_db
        assert set(inverse_lengths) == {640}


@pytest.mark.parametrize("fp_stop", [22.5, 23.0])
def test_sweep_holds_one_block_of_noise_series(fp_stop):
    # one block of seeds' noise is held at once, never every seed's, whether
    # the sweep shares series (two rates) or not (one): fifty times the
    # seeds grow the peak by less than two capture-length arrays
    cfg = default_scenario()
    n, block = cfg.clock.n_samples, seeds_per_block(cfg.clock.n_samples)

    def peak(n_seeds):
        tracemalloc.start()
        try:
            sweep_fp(cfg, 22.5, fp_stop, 0.5, seeds=list(range(n_seeds)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, many = peak(block), peak(50 * block)
    assert many - one < 2 * 16 * n


def test_sweep_rejects_a_bad_seed_in_a_later_block_before_any_run(monkeypatch):
    # the bad seed falls in the second block, whose noise is drawn only when
    # that block runs; every seed is checked before any rate is modulated
    calls = []

    def counted(name):
        method = getattr(Pipeline, name)

        def call(pipe, *args):
            calls.append(name)
            return method(pipe, *args)
        return call

    for name in ("modulate", "noise"):
        monkeypatch.setattr(Pipeline, name, counted(name))
    seeds = [0, 1, 2, 3, 4, 5, -1]
    assert seeds.index(-1) >= seeds_per_block(default_scenario().clock.n_samples)
    with pytest.raises(ValueError, match=r"^rng_seed must be a non-negative int, got -1$"):
        sweep_fp(default_scenario(), 22.5, 23.0, 0.5, seeds=seeds)
    assert calls == []


def test_one_simulate_holds_few_capture_length_arrays():
    # a run's temporaries are written into arrays it already owns: one
    # default simulate peaks at 4.23 complex capture-length arrays (16 * n
    # bytes each). The bound leaves a quarter array of margin for numpy
    # drift; with a fresh array per step the same simulate peaked at 5.23
    cfg = default_scenario()
    simulate(cfg)  # a first call's one-off imports and caches are not counted
    tracemalloc.start()
    try:
        simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 16 * cfg.clock.n_samples


def _setting(value, alone=False):
    """A corruption that writes ``value`` into one sample, zeroing the rest if ``alone``."""
    def corrupt(x):
        if alone:
            x[:] = 0
        x[7] = value
    return corrupt


def _opposite_extremes(x):
    # finite, but g_hat exceeds 1 at both samples, so their quotients overflow
    x[7], x[8] = sys.float_info.max, -sys.float_info.max


_G_NAN = "g_hat must be finite"
_G_EMPTY = "g_hat must carry energy"
_Q_NAN = "equalized samples must be finite"

# a corrupted band IFFT: the plan, the corruption, and the error the run reports
_INJECTED = {
    "g_nan": ("_tone_ifft", _setting(np.nan), _G_NAN),
    "g_inf": ("_tone_ifft", _setting(np.inf), _G_NAN),
    "g_imag_inf": ("_tone_ifft", _setting(complex(0.0, -np.inf)), _G_NAN),
    "g_zero": ("_tone_ifft", _setting(0.0, alone=True), _G_EMPTY),
    # the mean of |g_hat| underflows to 0
    "g_subnormal": ("_tone_ifft", _setting(5e-324, alone=True), _G_EMPTY),
    # the floor underflows to 0, so the zero samples divide by 0
    "g_tiny": ("_tone_ifft", _setting(1e-300, alone=True), _Q_NAN),
    # a finite sample whose |g_hat| overflows: the floor is infinite, and the
    # sample's own product overflows to NaN
    "g_huge": ("_tone_ifft", _setting(1e308 * (1.5 + 1.5j)), _Q_NAN),
    "s_inf": ("_signal_ifft", _setting(np.inf), _Q_NAN),
    "s_nan": ("_signal_ifft", _setting(np.nan), _Q_NAN),
    # the quotient holds +inf and -inf, which sum to NaN in the DDM bins
    "s_opposite_inf": ("_signal_ifft", _opposite_extremes, _Q_NAN),
}


_PATHS = ["run", "shared", "equalized", "sweep"]


def _corrupted_path(monkeypatch, attr, corrupt, path):
    """The outcome of ``path`` on the default scenario with the band IFFT ``attr`` corrupted.

    ``run`` and ``equalized`` make their own band IFFTs; ``shared`` hands the
    kernel a held unit series, so it sums that and the clean series it makes,
    both corrupted, as a sweep's run does; ``sweep``
    is a 2-rate x 2-seed sweep whose every ``Pipeline`` is corrupted.
    """
    def corrupting(pipe):
        plan = getattr(pipe, attr)

        def corrupted(bins, out):
            corrupt(plan(bins, out))
            return out

        monkeypatch.setattr(pipe, attr, corrupted)

    if path == "sweep":
        init = Pipeline.__init__

        def corrupted_init(pipe, cfg):
            init(pipe, cfg)
            corrupting(pipe)

        monkeypatch.setattr(Pipeline, "__init__", corrupted_init)
        return sweep_fp(default_scenario(), 22.5, 23.0, 0.5, seeds=[0, 1])
    pipe = Pipeline(default_scenario())
    corrupting(pipe)
    mod, noise = pipe.modulate(), pipe.noise(0)
    if path == "run":
        return pipe.runs(mod, [noise])[0]
    if path == "shared":
        unit = pipe.series(noise.signal, noise.tone,
                           np.empty((2, pipe.cfg.clock.n_samples), dtype=np.complex128))
        return pipe.runs(mod, [noise], [unit])[0]
    return pipe.equalized(mod, noise)


@pytest.mark.filterwarnings("error")  # the error is the only thing reported
@pytest.mark.parametrize("path", _PATHS)
@pytest.mark.parametrize("case", _INJECTED)
def test_corrupt_band_ifft_keeps_its_error(monkeypatch, case, path):
    attr, corrupt, message = _INJECTED[case]
    with pytest.raises(ValueError) as exc:
        _corrupted_path(monkeypatch, attr, corrupt, path)
    assert exc.type is ValueError
    assert str(exc.value) == message


# the a_c each path reports, or the equalized capture's largest |sample|, with
# g_hat = 1e155*(1+1j) at one sample: finite, but its |g_hat|^2 overflows
_G_LARGE = {"run": 3.9018667927965873e-305, "shared": 3.233359703211771e-305,
            "equalized": 1.2300365416189469e-304, "sweep": 3.1082028155696826e-305}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("path", _PATHS)
def test_g_hat_whose_square_overflows_keeps_its_floor(monkeypatch, path):
    # max |g_hat| is finite, so the floor is eps_rel * max |g_hat| as before,
    # and only the large sample is floored by its own infinite |g_hat|^2: its
    # quotient is 0 and every other one is tiny, so the carrier is lost
    corrupt = _setting(1e155 * (1 + 1j))
    if path == "equalized":
        q = _corrupted_path(monkeypatch, "_tone_ifft", corrupt, path).samples
        assert q[7] == 0 and np.count_nonzero(q) == len(q) - 1
        assert np.abs(q).max() == pytest.approx(_G_LARGE[path], rel=1e-9, abs=0)
        return
    with pytest.raises(CarrierLostError) as exc:
        _corrupted_path(monkeypatch, "_tone_ifft", corrupt, path)
    a_c, bound = re.fullmatch(r"carrier lost: a_c=(\S+) <= (\S+)", str(exc.value)).groups()
    assert bound == "1e-12"
    assert float(a_c) == pytest.approx(_G_LARGE[path], rel=1e-9, abs=0)


@pytest.mark.parametrize("n", [32000, 2**22])
def test_transmit_period_is_the_sum_of_its_gathered_lines_bit_for_bit(n):
    # the period reads each line's entries of one table of P-th roots of unity
    # and adds the six terms to 0 in line order; on 2**22 samples P is 2**21
    cfg = dataclasses.replace(default_scenario(), clock=SampleClock(float(n), n))
    lines, period = _transmit(cfg)
    g = math.gcd(n, *(k for k, _ in lines))
    p = n // g
    t, roots = np.arange(p), root_powers(p, 1, p)
    want = sum(c * roots[k // g * t % p] for k, c in lines)
    assert period.tobytes() == want.tobytes()


def _assert_lines_match_synth(cfg):
    """``modulate``'s band bins, norm and noise scale against the oracle's FFT(tx*m).

    The bins agree to 1e-12 of the largest bin of the reference spectrum; the
    norm and the scale, which follow from its energy by Parseval, to a
    relative 1e-12.
    """
    mod = Pipeline(cfg).modulate()
    want = oracles.received(scenario_with(cfg, snr_db=None))
    n = cfg.clock.n_samples
    tol = 1e-12 * np.abs(want).max()
    for got, band in ((mod.signal, cfg.signal_band), (mod.tone, cfg.tone_band)):
        np.testing.assert_allclose(got, want[band_offsets(cfg.clock, band) % n], rtol=0, atol=tol)
    energy = float(np.sum(np.abs(want) ** 2))
    assert mod.norm == pytest.approx(math.sqrt(energy), rel=1e-12, abs=0)
    snr_db = cfg.channel.snr_db
    scale = 0.0 if snr_db is None else math.sqrt(energy / n**2 / 10 ** (snr_db / 10) / 2)
    assert mod.scale == pytest.approx(scale, rel=1e-12, abs=0)


@pytest.mark.parametrize("name", ["default", "multiprop", "noiseless", "narrow_signal"])
def test_six_line_bands_match_the_synthesized_transmit(name):
    _assert_lines_match_synth(SCENARIOS[name])


def test_six_line_bands_where_a_gather_wraps_past_half_the_clock():
    # on a 3600-point clock the tone band reaches 1800 Hz, the Nyquist bin,
    # and a tone-band bin minus the -150 Hz line lies past N/2, so the
    # modulator's rfft is read conjugated from the mirrored bin; the square
    # chop has harmonics there
    cfg = single(SquareWave(), f_p=25.0, clock=SampleClock(rate_hz=3600.0, n_samples=3600))
    assert band_offsets(cfg.clock, cfg.tone_band).max() + 150 > cfg.clock.n_samples // 2
    _assert_lines_match_synth(cfg)


_PHASE = st.floats(0.0, 2 * math.pi)


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([3600, 4000, 6400]),
    amps=st.tuples(st.floats(0.1, 10.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0),
                   st.floats(1e-3, 10.0)),
    phases=st.tuples(_PHASE, _PHASE, _PHASE, _PHASE),
    f_p=st.floats(1.0, 200.0),
    snr_db=st.sampled_from([None, 20.0]),
)
def test_six_line_bands_match_drawn_transmits(n, amps, phases, f_p, snr_db):
    a_c, a_90, a_150, amp = amps
    phase_90, phase_150, tone_phase, prop_phase = phases
    prop = PropellerModel(shape=SquareWave(), f_p=f_p, phase=prop_phase)
    cfg = ScenarioConfig(
        clock=SampleClock(rate_hz=float(n), n_samples=n),
        ils=IlsParams(a_c, a_90, a_150, phase_90, phase_150),
        tone=ToneParams(amp=amp, phase=tone_phase),
        channel=ChannelConfig((prop,), snr_db=snr_db),
    )
    _assert_lines_match_synth(cfg)
