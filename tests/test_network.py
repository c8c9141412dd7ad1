"""Recurrent network: binarization, attention, iteration vs closed form."""

from __future__ import annotations

import random

import pytest

from nnsig.errors import DimensionMismatch, ParameterError, SingularWeightsError
from nnsig.field import Field
from nnsig.matrix import (
    MatrixZp,
    det,
    diag_from_vector,
    from_rows,
    identity,
    mat_add,
    mat_mul,
    mat_pow,
)
from nnsig.network import (
    AttentionSchedule,
    NetworkConfig,
    SynapticWeights,
    binarize,
    build_network,
    evolve_iterative,
    forward,
    generate_attention,
    invert,
    quantize_unit,
    sample_weights,
    sigmoid,
    unroll,
)

PRIMES_TO_97 = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def _weights(field, rows) -> SynapticWeights:
    return SynapticWeights(w=from_rows(field, rows))


def test_binarize_signs(f257):
    w = binarize([[0.0, -0.2], [1.5, 3.0]], f257)
    assert w.w.rows[0] == (1, 256)  # zero maps to +1
    assert w.w.rows[1] == (1, 1)


def test_binarize_rejects_singular(f5):
    with pytest.raises(SingularWeightsError):
        binarize([[1.0, 2.0], [3.0, 4.0]], f5)  # all positive -> all ones


@pytest.mark.parametrize("reals", [[[1.0, -1.0], [1.0]], [[1.0], [-1.0, 1.0]],
                                   [[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0]], [[]]])
def test_binarize_refuses_ragged_or_non_square_reals(f257, reals):
    with pytest.raises(DimensionMismatch):
        binarize(reals, f257)


@pytest.mark.parametrize("rows,error", [
    (((1, 2), (256, 1)), ParameterError),  # an entry other than 1 or p-1
    (((0, 1), (1, 1)), ParameterError),
    (((1, 256), (256, 1)), SingularWeightsError),  # row 1 is -1 times row 0
    (((1, 1, 256), (1, 256, 1), (1, 1, 256)), SingularWeightsError),  # row 2 repeats row 0
    ((), DimensionMismatch),
    (((),), DimensionMismatch),
    (((1, 256), (1,)), DimensionMismatch),
    (((1, 256, 1), (256, 1, 1)), DimensionMismatch),
])
def test_weights_refuse_what_no_network_holds(f257, rows, error):
    with pytest.raises(error):
        SynapticWeights(MatrixZp(f257, rows))


def test_singular_weights_are_a_parameter_error():
    assert issubclass(SingularWeightsError, ParameterError)


def test_binarize_randomized_always_invertible(f257):
    rng = random.Random(1)
    for _ in range(30):
        try:
            w = binarize([[rng.gauss(0, 1) for _ in range(4)] for _ in range(4)], f257)
        except SingularWeightsError:
            continue
        assert det(w.w) != 0
        assert all(x in (1, 256) for row in w.w.rows for x in row)


def test_sample_weights_gives_up_after_cap(f5):
    class AllPositive:
        def gauss(self, mu, sigma):
            return 1.0

    with pytest.raises(SingularWeightsError):
        sample_weights(3, f5, AllPositive())


def test_quantizer_midpoint():
    assert sigmoid(0.0) == 0.5
    assert quantize_unit(0.5, 257) == 129


def test_quantizer_bounds():
    rng = random.Random(2)
    for p in (3, 5, 257, 7919):
        for _ in range(500):
            q = quantize_unit(rng.random(), p)
            assert 1 <= q <= p - 1
        assert quantize_unit(1.0, p) == p - 1  # clamp at the top
        assert quantize_unit(0.0, p) == 1


def test_attention_entries_nonzero(f257):
    config = NetworkConfig(n=6, field=f257, rho=8, seed=b"att")
    schedule = generate_attention(config, (0,) * 6)
    assert schedule.rho == 8
    for vec in schedule.vectors:
        assert len(vec) == 6
        assert all(1 <= x <= 256 for x in vec)


def test_attention_deterministic_under_seed(f257):
    config = NetworkConfig(n=4, field=f257, rho=5, seed=b"fixed")
    s0 = (1, 2, 3, 4)
    assert generate_attention(config, s0) == generate_attention(config, s0)
    other = NetworkConfig(n=4, field=f257, rho=5, seed=b"other")
    assert generate_attention(config, s0) != generate_attention(other, s0)


def test_attention_state_length_check(f257):
    config = NetworkConfig(n=4, field=f257, rho=2, seed=b"x")
    with pytest.raises(DimensionMismatch):
        generate_attention(config, (1, 2, 3))


def test_evolve_matches_hand_recurrence(f5):
    # Independent oracle: the two steps computed with bare integer arithmetic.
    w_rows = ((1, 1), (1, 4))
    schedule = ((2, 3), (1, 4))
    state = (1, 2)
    theta = (3, 1)
    for att in schedule:
        gated = tuple(a * s % 5 for a, s in zip(att, state))
        state = tuple(
            (sum(wr[j] * gated[j] for j in range(2)) + th) % 5
            for wr, th in zip(w_rows, theta)
        )
    assert state == (2, 4)

    weights = _weights(f5, w_rows)
    got = evolve_iterative(weights, AttentionSchedule(schedule), (1, 2), theta)
    assert got == (2, 4)


def test_evolve_single_step_is_masked_linear_map(f7):
    weights = _weights(f7, [[1, 1], [1, 6]])
    schedule = AttentionSchedule(((1, 1),))
    s0 = (3, 4)
    got = evolve_iterative(weights, schedule, s0, (0, 0))
    assert got == ((3 + 4) % 7, (3 + 6 * 4) % 7)


def test_evolve_is_pure(f257):
    config = NetworkConfig(n=5, field=f257, rho=4, seed=b"pure")
    weights, schedule = build_network(config)
    rng = random.Random(3)
    s0 = f257.sample_vector(rng, 5)
    theta = f257.sample_vector(rng, 5)
    assert evolve_iterative(weights, schedule, s0, theta) == evolve_iterative(
        weights, schedule, s0, theta
    )


def test_unroll_depth_one(f7):
    weights = _weights(f7, [[1, 1], [1, 6]])
    schedule = AttentionSchedule(((2, 5),))
    maps = unroll(weights, schedule)
    assert maps.w_x == mat_mul(weights.w, diag_from_vector(f7, (2, 5)))
    assert maps.w_theta == identity(f7, 2)


def test_unroll_depth_two_bias_map(f7):
    weights = _weights(f7, [[1, 1], [1, 6]])
    schedule = AttentionSchedule(((2, 5), (3, 4)))
    maps = unroll(weights, schedule)
    m1 = mat_mul(weights.w, diag_from_vector(f7, (3, 4)))
    assert maps.w_theta == mat_add(m1, identity(f7, 2))
    m0 = mat_mul(weights.w, diag_from_vector(f7, (2, 5)))
    assert maps.w_x == mat_mul(m1, m0)


def test_closed_form_equals_iteration_randomized():
    rng = random.Random(4)
    for _ in range(60):
        p = rng.choice(PRIMES_TO_97)
        field = Field(p)
        n = rng.randrange(2, 7)
        rho = rng.randrange(1, 9)
        config = NetworkConfig(n=n, field=field, rho=rho, seed=rng.randbytes(8))
        weights, schedule = build_network(config)
        s0 = field.sample_vector(rng, n)
        theta = field.sample_vector(rng, n)
        maps = unroll(weights, schedule)
        assert forward(maps, s0, theta) == evolve_iterative(weights, schedule, s0, theta)


def test_step_matrices_invertible_and_det_product(f257):
    config = NetworkConfig(n=5, field=f257, rho=6, seed=b"det")
    weights, schedule = build_network(config)
    prod = 1
    for att in schedule.vectors:
        d = det(mat_mul(weights.w, diag_from_vector(f257, att)))
        assert d != 0
        prod = prod * d % 257
    maps = unroll(weights, schedule)
    assert det(maps.w_x) == prod


def test_forward_zero_inputs(f257):
    config = NetworkConfig(n=4, field=f257, rho=3, seed=b"z")
    weights, schedule = build_network(config)
    maps = unroll(weights, schedule)
    zero = (0, 0, 0, 0)
    assert forward(maps, zero, zero) == zero


def test_invert_recovers_preimage(f257):
    rng = random.Random(5)
    config = NetworkConfig(n=8, field=f257, rho=10, seed=b"inv")
    weights, schedule = build_network(config)
    maps = unroll(weights, schedule)
    for _ in range(20):
        x = f257.sample_vector(rng, 8)
        theta = f257.sample_vector(rng, 8)
        y = forward(maps, x, theta)
        assert invert(maps, y, theta) == x


def test_invert_with_bias_only_output(f257):
    config = NetworkConfig(n=4, field=f257, rho=2, seed=b"b")
    weights, schedule = build_network(config)
    maps = unroll(weights, schedule)
    theta = (9, 8, 7, 6)
    from nnsig.matrix import mat_vec

    y = tuple(mat_vec(maps.w_theta, theta))
    assert invert(maps, y, theta) == (0, 0, 0, 0)


def test_unrolled_map_does_not_commute_into_global_power():
    # w_x is an interleaved product W D_{rho-1} ... W D_0; the shortcut
    # W^rho * diag(prod A_j) is a different matrix essentially always.
    rng = random.Random(6)
    field = Field(257)
    differs = 0
    trials = 100
    for _ in range(trials):
        n = rng.randrange(3, 6)
        config = NetworkConfig(n=n, field=field, rho=3, seed=rng.randbytes(8))
        weights, schedule = build_network(config)
        maps = unroll(weights, schedule)
        gate = [1] * n
        for att in schedule.vectors:
            gate = [g * a % 257 for g, a in zip(gate, att)]
        shortcut = mat_mul(mat_pow(weights.w, 3), diag_from_vector(field, gate))
        if maps.w_x != shortcut:
            differs += 1
    assert differs >= 95


def test_build_network_deterministic(f257):
    config = NetworkConfig(n=6, field=f257, rho=4, seed=b"net-seed")
    w1, s1 = build_network(config)
    w2, s2 = build_network(config)
    assert w1 == w2
    assert s1 == s2


def test_config_validation(f257):
    with pytest.raises(ParameterError):
        NetworkConfig(n=1, field=f257, rho=3, seed=b"")
    with pytest.raises(ParameterError):
        NetworkConfig(n=4, field=f257, rho=0, seed=b"")
