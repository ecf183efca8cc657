"""Matrix image codec: shapes, row layout, padding, exact round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceweights.codec import (
    WeightsMatrix,
    coefficients_to_matrix,
    matrix_shape,
    matrix_to_coefficients,
    nonpad_mask,
)
from traceweights.device import total_macs
from traceweights.mlp import MlpModel, init_mlp


def test_matrix_shape_hand_values():
    assert matrix_shape([2, 3, 3, 1]) == (7, 4)
    assert matrix_shape([2, 1]) == (1, 3)
    assert matrix_shape([13, 128, 128, 64, 64, 3]) == (387, 129)


def test_sentinel_weights_land_in_expected_cells():
    # weight feeding neuron j of layer i from input k gets value 100i+10j+k,
    # bias gets 100i+10j+9; layout: one row per neuron, weights then bias.
    topo = (2, 3, 1)
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(topo[:-1], topo[1:]), start=1):
        w = np.zeros((fan_in, fan_out))
        b = np.zeros(fan_out)
        for j in range(fan_out):
            for k in range(fan_in):
                w[k, j] = 100 * i + 10 * j + k
            b[j] = 100 * i + 10 * j + 9
        weights.append(w)
        biases.append(b)
    model = MlpModel(topo, weights, biases)
    m = coefficients_to_matrix(model)
    assert m.data.shape == (4, 4)
    # layer-1 rows: fan_in 2 -> weight, weight, bias, pad
    assert list(m.data[0]) == [100.0, 101.0, 109.0, 0.0]
    assert list(m.data[1]) == [110.0, 111.0, 119.0, 0.0]
    assert list(m.data[2]) == [120.0, 121.0, 129.0, 0.0]
    # layer-2 row: fan_in 3 -> full width, bias in the last column
    assert list(m.data[3]) == [200.0, 201.0, 202.0, 209.0]


def test_sentinel_row_for_wide_then_narrow_layer():
    topo = (3, 1, 2)
    model = init_mlp(topo, seed=0)
    model.weights[0][:, 0] = [1.0, 2.0, 3.0]
    model.biases[0][0] = 4.0
    model.weights[1][0, :] = [5.0, 6.0]
    model.biases[1][:] = [7.0, 8.0]
    m = coefficients_to_matrix(model)
    assert m.data.shape == (3, 4)
    assert list(m.data[0]) == [1.0, 2.0, 3.0, 4.0]
    # layer-2 neurons have fan_in 1: weight, bias, then padding
    assert list(m.data[1]) == [5.0, 7.0, 0.0, 0.0]
    assert list(m.data[2]) == [6.0, 8.0, 0.0, 0.0]


def test_nonpad_mask_counts_match_total_macs():
    rng = np.random.default_rng(0)
    for i in range(50):
        depth = int(rng.integers(2, 6))
        topo = [int(rng.integers(1, 14)) for _ in range(depth)]
        mask = nonpad_mask(topo)
        assert mask.shape == matrix_shape(topo)
        assert int(mask.sum()) == total_macs(topo)


def test_pad_cells_do_not_influence_decoding():
    topo = (2, 3, 3, 1)
    model = init_mlp(topo, seed=7)
    m = coefficients_to_matrix(model)
    mask = nonpad_mask(topo)
    assert not np.all(mask)  # this topology does have pad cells
    poked = m.data.copy()
    poked[~mask] = 123.456
    m2 = WeightsMatrix(topo, poked)
    back = matrix_to_coefficients(m2, topo)
    ref = matrix_to_coefficients(m, topo)
    for a, b in zip(back.weights, ref.weights):
        assert np.array_equal(a, b)
    for a, b in zip(back.biases, ref.biases):
        assert np.array_equal(a, b)


def test_round_trip_bit_exact_1000_random_topologies():
    rng = np.random.default_rng(1)
    for i in range(1000):
        depth = int(rng.integers(2, 6))
        topo = [int(rng.integers(1, 10)) for _ in range(depth)]
        model = init_mlp(topo, seed=i)
        back = matrix_to_coefficients(coefficients_to_matrix(model), topo)
        assert back.topology == tuple(topo)
        for a, b in zip(back.weights, model.weights):
            assert np.array_equal(a, b)
        for a, b in zip(back.biases, model.biases):
            assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(
    topo=st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_round_trip_property(topo, seed):
    model = init_mlp(topo, seed=seed)
    m = coefficients_to_matrix(model)
    back = matrix_to_coefficients(m, topo)
    for a, b in zip(back.weights, model.weights):
        assert np.array_equal(a, b)
    for a, b in zip(back.biases, model.biases):
        assert np.array_equal(a, b)
    assert (m.rows, m.cols) == matrix_shape(topo)
    pads = m.data[~nonpad_mask(topo)]
    assert np.all(pads == 0.0)


def test_json_dict_schema_and_round_trip():
    model = init_mlp([2, 3, 1], seed=9)
    m = coefficients_to_matrix(model)
    d = m.to_json_dict()
    assert sorted(d.keys()) == ["cols", "data", "rows", "topology"]
    assert d["rows"] == 4 and d["cols"] == 4
    assert d["topology"] == [2, 3, 1]
    assert isinstance(d["data"], list) and isinstance(d["data"][0], list)
    m2 = WeightsMatrix.from_json_dict(d)
    assert np.array_equal(m2.data, m.data)
    assert m2.topology == m.topology


def test_matrix_header_and_topology_validation():
    with pytest.raises(ValueError):
        WeightsMatrix((2, 1), np.zeros((2, 3)))  # wrong shape for topology
    doc = WeightsMatrix((2, 1), np.zeros((1, 3))).to_json_dict()
    with pytest.raises(ValueError, match="header"):
        WeightsMatrix.from_json_dict({**doc, "rows": 2})  # header/data mismatch
    m = coefficients_to_matrix(init_mlp([3, 2], seed=0))
    with pytest.raises(ValueError):
        matrix_to_coefficients(m, [3, 2, 1])
