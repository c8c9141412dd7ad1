"""Binary-weight recurrent network over Z_p and its unrolled linear maps.

The state recurrence is ``S_{t+1} = f(W @ (A_t * S_t) + theta)`` with ``f``
the mod-p reduction, ``W`` a binarized weight matrix (entries 1 or p-1) and
``A_t`` a per-step attention vector with entries in [1, p-1].  Because every
step is affine mod p, running the recurrence for rho steps equals a single
affine map ``S_rho = f(w_x @ S_0 + w_theta @ theta)`` whose factors this
module computes exactly; that closed form is what the signature scheme
inverts.

Also home to the ``NNSIGSH1`` shared-setup codec (layout in ``scheme``'s
format table): the base weights and public vector Q that keygen exports and
both sync parties load, decoded into a checked ``SynapticWeights``.
"""

from __future__ import annotations

import math
import struct
from typing import NamedTuple, Tuple

from .errors import DimensionMismatch, MalformedEncoding, ParameterError, SingularWeightsError
from .field import Field, FrozenValue, _sub_rng, tally
from .matrix import det, mat_inv, scaled_chain
from ._packed import (
    MatrixZp, encode_matrix, encode_vector, field_from_wire, mat_vec, read_header,
    read_matrix, read_vector, vec_add, vec_sub,
)

# How many fresh draws sample_weights makes before giving up on a nonsingular
# binarization.  Singular draws are common at tiny n (half of all 2x2 sign
# matrices), vanishing by n ~ 8, so a deep retry budget costs nothing.
WEIGHT_RETRY_CAP = 64

SETUP_MAGIC = b"NNSIGSH1"
SETUP_VERSION = 1
_SETUP_HEADER = struct.Struct("<QI")  # p, n: the fixed header after magic and version


class NetworkConfig(FrozenValue):
    """Shape, modulus, depth, and seed material for building a network."""

    _fields = ("n", "field", "rho", "seed")

    def __init__(self, n: int, field: Field, rho: int, seed: bytes = b"") -> None:
        if n < 2:
            raise ParameterError(f"need at least 2 neurons, got n={n}")
        if rho < 1:
            raise ParameterError(f"need at least 1 recurrence step, got rho={rho}")
        if not isinstance(seed, bytes):
            raise ParameterError("seed must be bytes")
        vars(self).update(n=n, field=field, rho=rho, seed=seed)


class SynapticWeights(FrozenValue):
    """Binarized weight matrix: square, every entry 1 or p-1, invertible mod p.
    The constructor holds this whole rule, so no holder checks it again."""

    _fields = ("w",)

    def __init__(self, w: MatrixZp) -> None:
        rows, p = w.rows, w.field.p
        if not rows or any(len(row) != len(rows) for row in rows):
            raise DimensionMismatch("weights must be a nonempty square matrix")
        if not set().union(*rows) <= {1, p - 1}:
            raise ParameterError(f"weights must have every entry 1 or {p - 1}")
        if det(w) == 0:
            raise SingularWeightsError(f"weights are singular mod {p}")
        vars(self).update(w=w)

    @property
    def n(self) -> int:
        return self.w.n_rows


class AttentionSchedule(NamedTuple):
    """One attention vector per recurrence step, entries in [1, p-1]."""

    vectors: tuple

    @property
    def rho(self) -> int:
        return len(self.vectors)


class UnrolledMaps(NamedTuple):
    """Closed-form factors of the unrolled recurrence."""

    w_x: MatrixZp
    w_theta: MatrixZp


def sigmoid(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-z))


def quantize_unit(a: float, p: int) -> int:
    """Map a real in (0, 1) to a nonzero field element: 1 + floor(a*(p-1)), clamped."""
    return min(1 + math.floor(a * (p - 1)), p - 1)


def binarize(real_rows, field: Field) -> SynapticWeights:
    """Sign-binarize a real matrix: entry >= 0 becomes 1, entry < 0 becomes p-1.
    On SingularWeightsError (from ``SynapticWeights``) the caller resamples."""
    p = field.p
    return SynapticWeights(MatrixZp(field, tuple(tuple(1 if x >= 0 else p - 1 for x in row)
                                                 for row in real_rows)))


def sample_weights(n: int, field: Field, rng) -> SynapticWeights:
    """Draw standard-normal entries and binarize, retrying singular draws."""
    last = None
    for _ in range(WEIGHT_RETRY_CAP):
        reals = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
        try:
            return binarize(reals, field)
        except SingularWeightsError as exc:
            last = exc
    raise SingularWeightsError(f"no invertible binarization in {WEIGHT_RETRY_CAP} draws") from last


def generate_attention(config: NetworkConfig, initial_state) -> AttentionSchedule:
    """Deterministic attention schedule from the config seed.

    Each step applies a sigmoid to (state surrogate + uniform noise) and
    quantizes into [1, p-1]; the surrogate entering the next step is the
    previous quantized value scaled back into [0, 1) by dividing by p.
    """
    if len(initial_state) != config.n:
        raise DimensionMismatch("initial state length does not match n")
    p = config.field.p
    rng = _sub_rng(config.seed, b"attention")
    surrogate = [s / p for s in initial_state]
    steps = []
    for _ in range(config.rho):
        vec = []
        for i in range(config.n):
            a_real = sigmoid(surrogate[i] + rng.random())
            q = quantize_unit(a_real, p)
            vec.append(q)
            surrogate[i] = q / p
        steps.append(tuple(vec))
    return AttentionSchedule(tuple(steps))


def build_network(config: NetworkConfig) -> Tuple[SynapticWeights, AttentionSchedule]:
    """Weights plus schedule, both a pure function of config.seed."""
    weights = sample_weights(config.n, config.field, _sub_rng(config.seed, b"weights"))
    s0 = config.field.sample_vector(_sub_rng(config.seed, b"state"), config.n)
    return weights, generate_attention(config, s0)


def evolve_iterative(weights: SynapticWeights, schedule: AttentionSchedule, s0, theta) -> tuple:
    """Run the recurrence step by step (the reference path for the closed form)."""
    w = weights.w
    n = w.n_rows
    if len(s0) != n or len(theta) != n:
        raise DimensionMismatch("state/bias length does not match n")
    field = w.field
    p = field.p
    state = tuple(x % p for x in s0)
    for att in schedule.vectors:
        if len(att) != n:
            raise DimensionMismatch("attention vector length does not match n")
        gated = tuple(a * s % p for a, s in zip(att, state))
        tally(muls=n)
        state = vec_add(field, mat_vec(w, gated), theta)
    return state


def unroll(weights: SynapticWeights, schedule: AttentionSchedule) -> UnrolledMaps:
    """Collapse rho recurrence steps into (w_x, w_theta).

    With step matrices M_j = W @ diag(A_j), applied oldest first:
    w_x = M_{rho-1} @ ... @ M_0 and w_theta sums the suffix products
    M_{rho-1} @ ... @ M_{k+1} for each step k (empty product = identity).

    ``matrix.scaled_chain`` computes both with the A_j newest first as its
    scales: it range-checks and packs W once, starts the suffix at
    M_{rho-1}, applies each diag(A_j) to a product's slots as they are
    reduced (so no M_j is built) and sums w_theta in one packed int, reduced
    once.  The tally is that of the rho step matrices, rho products and
    rho - 1 matrix sums of the step-by-step unrolling.
    """
    rho = schedule.rho
    w_x, w_theta = scaled_chain(weights.w, schedule.vectors[::-1])
    n = w_x.n_rows
    tally(muls=rho * n * n * (n + 1), adds=rho * n * n * (n - 1) + (rho - 1) * n * n)
    return UnrolledMaps(w_x=w_x, w_theta=w_theta)


def forward(maps: UnrolledMaps, x, theta) -> tuple:
    """Evaluate the closed form f(w_x @ x + w_theta @ theta)."""
    return vec_add(maps.w_x.field, mat_vec(maps.w_x, x), mat_vec(maps.w_theta, theta))


def invert(maps: UnrolledMaps, y, theta) -> tuple:
    """Recover x with f(w_x^{-1} @ (y - f(w_theta @ theta)))."""
    field = maps.w_x.field
    bias = mat_vec(maps.w_theta, theta)
    return mat_vec(mat_inv(maps.w_x), vec_sub(field, y, bias))


# --- shared-setup codec -------------------------------------------------------


def encode_shared_setup(weights: SynapticWeights, q: tuple) -> bytes:
    field = weights.w.field
    return (
        SETUP_MAGIC
        + bytes([SETUP_VERSION])
        + _SETUP_HEADER.pack(field.p, weights.n)
        + encode_matrix(weights.w)
        + encode_vector(field, q)
    )


def decode_shared_setup(data: bytes) -> Tuple[SynapticWeights, tuple]:
    (p, n), off = read_header(data, SETUP_MAGIC, SETUP_VERSION, "shared-setup", _SETUP_HEADER)
    field = field_from_wire(p)
    w, off = read_matrix(field, data, off)
    q, _ = read_vector(field, data, off, end="shared setup")
    if len(q) != n or w.n_rows != n or w.n_cols != n:
        raise MalformedEncoding("shared-setup dimensions are inconsistent")
    try:
        return SynapticWeights(w), q
    except ParameterError as exc:
        raise MalformedEncoding(f"bad shared-setup base matrix: {exc}") from exc
