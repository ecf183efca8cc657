"""Leakage-model oracles: MAC counts, slot order, locality, ADC behavior."""

import numpy as np
import pytest

from traceweights.codec import coefficients_to_matrix, nonpad_mask
from traceweights.device import (
    DeviceConfig,
    fixed_point_code,
    hamming_weight,
    quantize_trace,
    read_trace_container,
    simulate_trace,
    total_macs,
    write_trace_container,
)
from traceweights.mlp import MlpModel, init_mlp
from traceweights.nn import relu

QUIET = DeviceConfig(
    adc_bits=16,
    adc_lo=0.0,
    adc_hi=100.0,
    noise_sigma=0.0,
    static_power=5.0,
    dynamic_scale=1.0,
    fixed_point_bits=16,
    fixed_point_frac_bits=8,
)


def test_total_macs_hand_counts():
    assert total_macs([2, 1]) == 3
    assert total_macs([2, 3, 3, 1]) == 25
    assert total_macs([19, 16, 8, 8, 8, 1]) == 609
    # 19*128+128 + 128*64+64 + 64*64+64 + 64*64+64 + 64*1+1
    assert total_macs([19, 128, 64, 64, 64, 1]) == 19201


def _random_topology(rng, max_layers=5, max_width=12):
    depth = int(rng.integers(2, max_layers + 1))
    return [int(rng.integers(1, max_width + 1)) for _ in range(depth)]


def test_trace_length_law_200_random_topologies():
    rng = np.random.default_rng(0)
    for i in range(200):
        topo = _random_topology(rng)
        spm = int(rng.integers(1, 4))
        cfg = DeviceConfig(noise_sigma=0.0, samples_per_mac=spm, adc_hi=200.0)
        model = init_mlp(topo, seed=i)
        x = rng.random(topo[0])
        trace = simulate_trace(model, x, cfg)
        assert trace.samples.shape == (total_macs(topo) * spm,)


def test_single_coefficient_perturbation_is_local():
    rng = np.random.default_rng(1)
    for spm in (1, 3):
        cfg = DeviceConfig(noise_sigma=0.0, samples_per_mac=spm, adc_hi=200.0)
        model_a = init_mlp([3, 4, 2, 1], seed=11)
        # a last-layer coefficient cannot move any activation, so the
        # perturbation is confined to its own slot; values are chosen with
        # different Hamming weights so the samples must actually differ.
        model_a.weights[-1][1, 0] = 0.0
        model_b = MlpModel(model_a.topology, model_a.weights, model_a.biases)
        model_b.weights[-1][1, 0] = 3.0 / 256.0
        x = rng.random(3)
        ta = simulate_trace(model_a, x, cfg).samples
        tb = simulate_trace(model_b, x, cfg).samples
        diff = np.nonzero(ta != tb)[0]
        # last layer rows: coefficients for weights[ -1 ][:,0] then bias
        base = total_macs([3, 4, 2]) * spm
        slot = base + 1 * spm
        assert set(diff) <= set(range(slot, slot + spm))
        assert diff.size > 0


def test_first_layer_perturbation_touches_only_that_slot_when_downstream_blind():
    # zero downstream weights make deeper activations insensitive, so a
    # first-layer coefficient change stays a one-slot event end to end.
    cfg = DeviceConfig(noise_sigma=0.0, adc_hi=200.0)
    model_a = init_mlp([2, 2, 1], seed=3)
    model_a.weights[1][...] = 0.0
    model_b = MlpModel(model_a.topology, model_a.weights, model_a.biases)
    model_b.weights[0][0, 0] = model_a.weights[0][0, 0] + 1.0
    x = np.array([0.0, 0.0])  # zero input: activations do not move either
    ta = simulate_trace(model_a, x, cfg).samples
    tb = simulate_trace(model_b, x, cfg).samples
    diff = np.nonzero(ta != tb)[0]
    assert list(diff) == [0]


def test_all_zero_model_zero_input_flat_trace():
    cfg = DeviceConfig(noise_sigma=0.0, adc_hi=50.0)
    model = MlpModel(
        topology=(2, 2, 1),
        weights=[np.zeros((2, 2)), np.zeros((2, 1))],
        biases=[np.zeros(2), np.zeros(1)],
    )
    trace = simulate_trace(model, np.zeros(2), cfg)
    expect = quantize_trace(np.array([cfg.static_power]), cfg.adc_bits,
                            (cfg.adc_lo, cfg.adc_hi))[0]
    assert np.all(trace.samples == expect)


def test_mac_order_layer_neuron_coefficient_bias_last():
    # [2,2,1] with distinct sentinel weights; operands are the fixed input
    # for layer one, relu post-activations after that, and 0.0 for biases.
    w1 = np.array([[11.0, 21.0], [12.0, 22.0]])  # (fan_in, fan_out)
    b1 = np.array([10.0, 20.0])
    w2 = np.array([[31.0], [32.0]])
    b2 = np.array([30.0])
    model = MlpModel((2, 2, 1), [w1, w2], [b1, b2])
    x = np.array([0.5, 0.25])
    from traceweights.device import _mac_streams

    coeffs, operands = _mac_streams(model, x)
    assert list(coeffs) == [11.0, 12.0, 10.0, 21.0, 22.0, 20.0, 31.0, 32.0, 30.0]
    a = relu(x @ w1 + b1)
    assert list(operands) == [0.5, 0.25, 0.0, 0.5, 0.25, 0.0, a[0], a[1], 0.0]
    # device slot i is codec non-pad cell i, over every layer and every bias
    rng = np.random.default_rng(41)
    for trial in range(50):
        topo = tuple(int(t) for t in rng.integers(1, 9, size=rng.integers(2, 6)))
        model = init_mlp(topo, seed=trial)
        coeffs, _ = _mac_streams(model, rng.random(topo[0]))
        cells = coefficients_to_matrix(model).data[nonpad_mask(topo)]
        assert np.array_equal(coeffs, cells), topo


def test_hamming_weight_of_fixed_point_codes():
    # 0x0003 has two set bits
    assert hamming_weight(np.array([0x0003], dtype=np.uint64))[0] == 2
    # 3/256 in Q8.8 is the code 0x0003
    code = fixed_point_code(np.array([3.0 / 256.0]), 16, 8)
    assert code[0] == 3
    assert hamming_weight(code)[0] == 2
    # -1 in two's complement Q8.8 = 0xFF00 -> 8 set bits
    code_neg = fixed_point_code(np.array([-1.0]), 16, 8)
    assert code_neg[0] == 0xFF00
    assert hamming_weight(code_neg)[0] == 8


def test_fixed_point_rounds_and_saturates():
    codes = fixed_point_code(np.array([0.0, 1.0, -0.5]), 16, 8)
    assert list(codes) == [0, 256, (-128) & 0xFFFF]
    # beyond the representable range the code saturates at the extremes
    top = fixed_point_code(np.array([1e9]), 16, 8)[0]
    bot = fixed_point_code(np.array([-1e9]), 16, 8)[0]
    assert top == 2**15 - 1
    assert bot == 2**15 & 0xFFFF


def test_quantize_clamps_and_snaps():
    lo, hi = 0.0, 3.0
    out = quantize_trace(np.array([-1.0, 0.0, 1.2, 3.0, 9.0]), 2, (lo, hi))
    assert list(out) == [0.0, 0.0, 1.0, 3.0, 3.0]
    with pytest.raises(ValueError):
        quantize_trace(np.array([1.0]), 0, (0.0, 1.0))
    with pytest.raises(ValueError):
        quantize_trace(np.array([1.0]), 4, (2.0, 2.0))


def test_noise_free_sample_strictly_increases_with_coefficient_hamming_weight():
    x = np.array([0.0])
    seen = []
    for coeff, hw in [(0.0, 0), (1.0 / 256.0, 1), (3.0 / 256.0, 2), (-1.0, 8)]:
        model = MlpModel((1, 1), [np.array([[coeff]])], [np.array([0.0])])
        trace = simulate_trace(model, x, QUIET)
        assert hamming_weight(fixed_point_code([coeff], 16, 8))[0] == hw
        seen.append((hw, trace.samples[0]))
    seen.sort()
    for (h0, s0), (h1, s1) in zip(seen, seen[1:]):
        assert h1 > h0
        assert s1 > s0


def test_simulation_is_seed_deterministic_and_seed_sensitive():
    cfg = DeviceConfig(noise_sigma=0.8, adc_hi=60.0)
    model = init_mlp([3, 4, 1], seed=5)
    x = np.random.default_rng(6).random(3)
    a = simulate_trace(model, x, cfg, seed=99).samples
    b = simulate_trace(model, x, cfg, seed=99).samples
    c = simulate_trace(model, x, cfg, seed=100).samples
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.tobytes() == b.tobytes()


def test_simulate_rejects_wrong_input_length():
    model = init_mlp([3, 2, 1], seed=0)
    with pytest.raises(ValueError):
        simulate_trace(model, np.zeros(4), QUIET)


def test_device_config_invariants():
    with pytest.raises(ValueError):
        DeviceConfig(adc_bits=17)
    with pytest.raises(ValueError):
        DeviceConfig(adc_bits=0)
    with pytest.raises(ValueError):
        DeviceConfig(adc_lo=1.0, adc_hi=1.0)
    with pytest.raises(ValueError):
        DeviceConfig(samples_per_mac=0)
    with pytest.raises(ValueError):
        DeviceConfig(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        DeviceConfig(fixed_point_frac_bits=16, fixed_point_bits=16)


def test_trace_container_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    traces = rng.random((5, 17)).astype("<f4").astype(np.float64)
    meta = {"topology": [3, 2, 1], "note": "x"}
    write_trace_container(tmp_path / "c", traces, meta)
    back, meta2 = read_trace_container(tmp_path / "c")
    assert np.array_equal(back.astype(np.float64), traces)
    assert meta2["count"] == 5
    assert meta2["trace_len"] == 17
    assert meta2["topology"] == [3, 2, 1]


def test_trace_container_detects_truncation(tmp_path):
    write_trace_container(tmp_path / "c", np.ones((2, 3), dtype="<f4"), {})
    payload = (tmp_path / "c" / "traces.f32").read_bytes()
    (tmp_path / "c" / "traces.f32").write_bytes(payload[:-4])
    with pytest.raises(ValueError):
        read_trace_container(tmp_path / "c")
