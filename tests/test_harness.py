import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from propeq import (
    BandSpec,
    ChannelConfig,
    CustomCycle,
    IlsParams,
    PropellerModel,
    RegPolicy,
    SampleClock,
    ScenarioConfig,
    SineRipple,
    SquareWave,
    ToneParams,
    default_scenario,
    dump_spectrum,
    emit_csv,
    emit_plot,
    forward_fft,
    fp_grid,
    load_config,
    load_sweep_csv,
    run_single,
    scenario_from_dict,
    scenario_to_dict,
    scenario_with,
    sweep_fp,
)
from propeq.cli import main
from propeq.harness import CSV_HEADER
from propeq.pipeline import MAX_RUNS, Pipeline, check_runs
from propeq.spectral import Spectrum, folded_frequencies

from oracles import synth_tone


def identity_scenario(**overrides):
    base = ScenarioConfig(
        channel=ChannelConfig(
            propellers=(PropellerModel(shape=CustomCycle(gains=(1.0,)), f_p=30.0),),
            snr_db=None,
        )
    )
    return dataclasses.replace(base, **overrides) if overrides else base


def small_scenario(small_clock, **channel_kwargs):
    kwargs = {"snr_db": 20.0, "rng_seed": 0}
    kwargs.update(channel_kwargs)
    return ScenarioConfig(
        clock=small_clock,
        channel=ChannelConfig(
            propellers=(
                PropellerModel(shape=SquareWave(), f_p=30.0, phase=1.366),
            ),
            **kwargs,
        ),
    )


# ---------------------------------------------------------------------------
# scenario construction


def test_bands_are_centred_on_the_carrier_and_the_tone():
    cfg = ScenarioConfig(tone=ToneParams(offset_hz=1600.0), signal_half_width_hz=120.0)
    assert cfg.signal_band == BandSpec(0.0, 120.0)
    assert cfg.tone_band == BandSpec(1600.0, 300.0)


def test_bands_must_be_disjoint():
    with pytest.raises(ValueError, match="disjoint"):
        ScenarioConfig(signal_half_width_hz=1300.0)


def test_tone_separation_enforced():
    with pytest.raises(ValueError, match="too close"):
        ScenarioConfig(tone=ToneParams(offset_hz=500.0), signal_half_width_hz=100.0)


def test_scenario_with_overrides():
    cfg = default_scenario()
    out = scenario_with(cfg, f_p=22.5, seed=9, snr_db=None)
    assert out.channel.propellers[0].f_p == 22.5
    assert out.channel.rng_seed == 9
    assert out.channel.snr_db is None
    kept = scenario_with(cfg, f_p=22.5)
    assert kept.channel.snr_db == cfg.channel.snr_db


# ---------------------------------------------------------------------------
# run_single / sweep


def test_identity_channel_recovers_ddm():
    res = run_single(identity_scenario())
    assert res.ddm_raw == pytest.approx(-0.2, abs=1e-6)
    assert res.ddm_eq == pytest.approx(-0.2, abs=1e-6)
    assert res.dev_raw <= 1e-6 and res.dev_eq <= 1e-6


def test_run_single_deterministic(small_clock):
    cfg = small_scenario(small_clock)
    assert run_single(cfg) == run_single(cfg)


def test_fp_grid_counts():
    clock = SampleClock()
    assert len(fp_grid(15.0, 40.0, 0.5, clock)) == 51
    assert fp_grid(15.0, 40.0, 0.5, clock)[0] == 15.0
    assert fp_grid(15.0, 40.0, 0.5, clock)[-1] == 40.0
    assert fp_grid(20.0, 20.0, 0.5, clock) == (20.0,)


def test_fp_grid_validation():
    with pytest.raises(ValueError):
        fp_grid(15.0, 40.0, 0.0, SampleClock())
    with pytest.raises(ValueError):
        fp_grid(40.0, 15.0, 0.5, SampleClock())


def test_sweep_requires_seeds(small_clock):
    with pytest.raises(ValueError, match="seeds"):
        sweep_fp(small_scenario(small_clock), 20.0, 21.0, 0.5, seeds=[])


def test_sweep_shape_and_order(small_clock):
    sw = sweep_fp(small_scenario(small_clock), 20.0, 22.0, 1.0, seeds=[0, 1])
    assert len(sw.results) == 6
    assert [r.f_p_hz for r in sw.results] == [20.0, 20.0, 21.0, 21.0, 22.0, 22.0]
    assert [r.seed for r in sw.results] == [0, 1, 0, 1, 0, 1]
    assert len(sw.summaries) == 3


def test_sweep_repeatable(small_clock):
    cfg = small_scenario(small_clock)
    a = sweep_fp(cfg, 20.0, 22.0, 1.0, seeds=[0, 1])
    b = sweep_fp(cfg, 20.0, 22.0, 1.0, seeds=[0, 1])
    assert a == b


def test_sweep_f30_equalization_wins_in_median():
    cfg = default_scenario()
    sw = sweep_fp(cfg, 30.0, 30.0, 1.0, seeds=list(range(10)))
    s = sw.summaries[0]
    assert s.median_dev_eq < s.median_dev_raw


def test_sweep_blind_spot_annotation(small_clock):
    sw = sweep_fp(small_scenario(small_clock), 22.0, 23.0, 0.5, seeds=[0])
    flagged = {s.f_p_hz: s.flagged_freqs for s in sw.summaries}
    assert flagged[22.5] == (90.0,)
    assert flagged[22.0] == ()
    assert sw.blind_spots == (22.5,)


def test_sweep_propagates_pipeline_errors(small_clock):
    from propeq import CarrierLostError

    blocking = ScenarioConfig(
        clock=small_clock,
        channel=ChannelConfig(
            propellers=(PropellerModel(shape=CustomCycle(gains=(0.0,)), f_p=20.0),),
            snr_db=None,
        ),
    )
    with pytest.raises(CarrierLostError):
        sweep_fp(blocking, 20.0, 21.0, 0.5, seeds=[0])


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_needs_at_least_one_worker(small_clock, workers):
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        sweep_fp(small_scenario(small_clock), 20.0, 21.0, 0.5, seeds=[0], workers=workers)


def test_check_runs_allows_exactly_max_runs():
    check_runs(MAX_RUNS, 1)
    check_runs(1, MAX_RUNS)
    with pytest.raises(ValueError, match=f"at most {MAX_RUNS} runs"):
        check_runs(1000, 1001)


def test_library_sweep_over_max_runs_is_rejected_before_any_noise(monkeypatch):
    # 51 rates x 19608 seeds = 1000008 runs, one sweep past the cap
    monkeypatch.setattr(Pipeline, "noise", lambda *a: pytest.fail("noise was drawn"))
    message = f"a command may make at most {MAX_RUNS} runs (rates x seeds), got 51 x 19608"
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep_fp(default_scenario(), 15.0, 40.0, 0.5, seeds=list(range(19608)))


# ---------------------------------------------------------------------------
# emitters


def test_csv_format_and_round_trip(small_clock, tmp_path):
    sw = sweep_fp(small_scenario(small_clock), 20.0, 22.0, 0.5, seeds=[0, 1, 2])
    path = tmp_path / "sweep.csv"
    emit_csv(sw, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 5 * 3
    back = load_sweep_csv(path)
    assert back == sw.results  # float repr round-trips exactly
    assert all(type(r.seed) is int for r in back)


def test_csv_serial_parallel_identical(small_clock, tmp_path):
    cfg = small_scenario(small_clock)
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    emit_csv(sweep_fp(cfg, 20.0, 24.0, 0.5, seeds=[0, 1], workers=1), serial)
    emit_csv(sweep_fp(cfg, 20.0, 24.0, 0.5, seeds=[0, 1], workers=4), parallel)
    assert serial.read_bytes() == parallel.read_bytes()


def test_emit_plot_svg(small_clock, tmp_path):
    import xml.etree.ElementTree as ET

    sw = sweep_fp(small_scenario(small_clock), 20.0, 24.0, 0.5, seeds=[0])
    path = tmp_path / "sweep.svg"
    emit_plot(sw, path)
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 2
    text = path.read_text()
    assert "blind-spot" in text


def test_dump_spectrum_format(small_clock, tmp_path):
    spec = forward_fft(synth_tone(ToneParams(offset_hz=1500.0), small_clock))
    path = tmp_path / "spec.csv"
    dump_spectrum(spec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "freq_hz,re,im,mag_db"
    assert len(lines) == 1 + small_clock.n_samples
    freqs, mags = [], {}
    for line in lines[1:]:
        f, re, im, mag_db = (float(v) for v in line.split(","))
        freqs.append(f)
        mags[f] = (re, im, mag_db)
        assert mag_db == pytest.approx(20 * np.log10(abs(complex(re, im)) + 1e-20))
    assert freqs == sorted(freqs)
    assert mags[1500.0][2] == pytest.approx(20 * np.log10(small_clock.n_samples), abs=1e-9)


def _dump_per_bin(spec, path):
    """The spectrum dump written one bin at a time, with Python's abs and numpy's log10."""
    f = folded_frequencies(spec.clock)
    lines = ["freq_hz,re,im,mag_db"]
    for i in np.argsort(f, kind="stable"):
        b = spec.bins[i]
        mag_db = float(20.0 * np.log10(abs(b) + 1e-20))
        lines.append(f"{float(f[i])!r},{float(b.real)!r},{float(b.imag)!r},{mag_db!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("n", [1, 4096, 9001])
def test_dump_spectrum_matches_a_per_bin_dump_byte_for_byte(tmp_path, n):
    # magnitudes over the whole float range, and lengths around the dump's
    # block of rows; np.abs would change the last digit of some mag_db values
    rng = np.random.default_rng(n)
    magnitudes = 10.0 ** rng.integers(-300, 300, n)
    bins = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * magnitudes
    spec = Spectrum(SampleClock(rate_hz=float(n), n_samples=n), bins)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    dump_spectrum(spec, got)
    _dump_per_bin(spec, want)
    assert got.read_bytes() == want.read_bytes()


# ---------------------------------------------------------------------------
# JSON config


def test_config_dict_round_trip():
    cfg = default_scenario()
    assert scenario_from_dict(scenario_to_dict(cfg)) == cfg


def test_config_file_round_trip(tmp_path):
    cfg = ScenarioConfig(
        channel=ChannelConfig(
            propellers=(
                PropellerModel(shape=SineRipple(0.4), f_p=25.0, phase=0.2, coeff=1.0),
                PropellerModel(shape=CustomCycle(gains=(0.5, 1.0, 1.5)), f_p=18.0, coeff=3.0),
            ),
            snr_db=None,
            rng_seed=5,
        ),
        signal_half_width_hz=120.0,
        tone_half_width_hz=250.0,
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(scenario_to_dict(cfg)))
    assert load_config(path) == cfg


def test_partial_config_uses_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"ils": {"a_90": 0.7}}))
    cfg = load_config(path)
    assert cfg.ils.a_90 == 0.7
    assert cfg.ils.a_150 == 0.8
    assert cfg.clock == SampleClock()
    # the run is scored against the DDM the ILS amplitudes give
    run = run_single(cfg)
    assert run.dev_raw == abs(run.ddm_raw - (0.7 - 0.8) / 1.0)


def test_channel_fields_default_to_the_default_channel():
    default = default_scenario().channel
    cfg = scenario_from_dict({"channel": {"rng_seed": 3}})
    assert cfg.channel == dataclasses.replace(default, rng_seed=3)
    noiseless = scenario_from_dict({"channel": {"snr_db": None}}).channel
    assert noiseless.propellers == default.propellers and noiseless.snr_db is None
    with pytest.raises(ValueError, match="propellers must be non-empty"):
        scenario_from_dict({"channel": {"propellers": []}})


def test_unknown_config_keys_rejected():
    with pytest.raises(ValueError, match="unknown config keys"):
        scenario_from_dict({"ils": {"a_90": 0.7, "bogus": 1}})
    with pytest.raises(ValueError, match="unknown config keys"):
        scenario_from_dict({"bogus": {}})
    with pytest.raises(ValueError, match=r"channel\.propellers\[0\]\.shape\.bogus"):
        scenario_from_dict({"channel": {"propellers": [{"shape": {"kind": "sine", "bogus": 1}}]}})


def test_invalid_json_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    # the second nests too deeply for the decoder, which ends in a RecursionError
    for text in ("{not json", "[" * 100000 + "]" * 100000):
        path.write_text(text)
        with pytest.raises(ValueError, match="invalid JSON in config"):
            load_config(path)
        assert main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"propeq: config error: invalid JSON in config {path}: ")
        assert err.count("\n") == 1
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        load_config(path)


def test_reg_policy_from_config():
    cfg = scenario_from_dict({"reg": {"eps_rel": 0.01}})
    assert cfg.reg == RegPolicy(eps_rel=0.01)


def test_readme_config_example_is_the_default_scenario():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### Config file"):]
    example = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    assert scenario_from_dict(json.loads(example)) == default_scenario()


_SCHEMA = (ScenarioConfig, SampleClock, IlsParams, ToneParams, ChannelConfig, PropellerModel,
           SquareWave, SineRipple, CustomCycle, RegPolicy)
_KEYS = st.sampled_from(
    sorted({f.name for cls in _SCHEMA for f in dataclasses.fields(cls)} | {"kind"})
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["square", "sine", "custom"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12,
)


def _node_paths(node, path=()):
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [path] + [p for k, v in items for p in _node_paths(v, path + (k,))]
    return [path]


@st.composite
def _configs(draw):
    """Arbitrary JSON objects, or the default config with one node replaced."""
    if draw(st.booleans()):
        return draw(st.dictionaries(_KEYS, _JSON, max_size=5))
    cfg = scenario_to_dict(default_scenario())
    *parents, last = draw(st.sampled_from(_node_paths(cfg)[1:]))
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = draw(_JSON)
    return cfg


@given(_configs())
def test_scenario_from_dict_raises_only_value_error(d):
    try:
        cfg = scenario_from_dict(d)
    except ValueError:
        return
    assert isinstance(cfg, ScenarioConfig)
