"""Value semantics of the package's classes: equality, hashing, repr, memo
attributes, frozenness and constructor checks.

The plain records are ``NamedTuple``s; the classes that validate, memoise or
mutate derive from ``nnsig.field.Value`` or ``FrozenValue``.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple, Optional, Tuple

import pytest

from nnsig.errors import DimensionMismatch, ParameterError, SingularWeightsError
from nnsig.field import Field, OpCounter
from nnsig.hardness import MatrixPowerSolution, estimate, make_instance
from nnsig.matrix import MatrixZp, PermutationMatrix
from nnsig.metrics import MeasuredSizes, formula_sizes, op_count_report
from nnsig.network import NetworkConfig, SynapticWeights, build_network, unroll
from nnsig.scheme import (
    Signature,
    keygen,
    parse_public_key,
    parse_secret_key,
    serialize_public_key,
    serialize_secret_key,
    sign,
    verify,
)
from nnsig.sync import DhMatrixMessage, PublicVectorMessage, SyncConfig, SyncSession

FIELD = Field(257)
CONFIG = NetworkConfig(n=4, field=FIELD, rho=2, seed=b"values")
WEIGHTS, SCHEDULE = build_network(CONFIG)
SYNC = SyncConfig(weights=WEIGHTS, q=(1, 2, 3, 4))
THETA = (5, 6, 7, 8)
_pk, _sk = keygen(CONFIG, random.Random(5))
PK_BLOB, SK_BLOB = serialize_public_key(_pk), serialize_secret_key(_sk)
OTHER_PK, OTHER_SK = keygen(CONFIG, random.Random(6))


def _matrix(corner: int = 1) -> MatrixZp:
    return MatrixZp(FIELD, ((corner, 2), (3, 4)))


class Case(NamedTuple):
    build: Callable  # a fresh instance; two calls give equal values
    other: Callable  # an instance that differs in one field
    memos: Tuple[str, ...] = ()  # attributes left out of == and repr
    touch: Optional[Callable] = None  # fills the memos of an instance
    mutable: bool = False  # mutable values are unhashable and accept assignment
    bad: Optional[Tuple[Callable, type]] = None  # a refused construction and its error


CASES = {
    "MatrixZp": Case(_matrix, lambda: _matrix(0)),
    "SynapticWeights": Case(lambda: build_network(CONFIG)[0],
                            lambda: build_network(NetworkConfig(4, FIELD, 2, b"x"))[0],
                            bad=(lambda: SynapticWeights(MatrixZp(FIELD, ((1, 1), (1, 1)))),
                                 SingularWeightsError)),
    "AttentionSchedule": Case(lambda: build_network(CONFIG)[1],
                              lambda: build_network(NetworkConfig(4, FIELD, 3, b"values"))[1]),
    "UnrolledMaps": Case(lambda: unroll(WEIGHTS, SCHEDULE),
                         lambda: unroll(*build_network(NetworkConfig(4, FIELD, 2, b"x")))),
    "Signature": Case(lambda: Signature((1, 2), (3, 4)), lambda: Signature((1, 2), (3, 5))),
    "DhMatrixMessage": Case(lambda: DhMatrixMessage(_matrix()),
                            lambda: DhMatrixMessage(_matrix(0))),
    "PublicVectorMessage": Case(lambda: PublicVectorMessage(FIELD, (1, 2)),
                                lambda: PublicVectorMessage(Field(263), (1, 2))),
    "MatrixPowerInstance": Case(lambda: make_instance(2, Field(7), random.Random(3))[0],
                                lambda: make_instance(2, Field(7), random.Random(4))[0]),
    "MatrixPowerSolution": Case(lambda: MatrixPowerSolution(3, PermutationMatrix((1, 0))),
                                lambda: MatrixPowerSolution(3, PermutationMatrix((0, 1)))),
    "SecurityEstimate": Case(lambda: estimate(26, 257, 128), lambda: estimate(26, 257, 80)),
    "SchemeProfile": Case(lambda: formula_sizes(26, 257, 10), lambda: formula_sizes(26, 257, 9)),
    "OpCountReport": Case(lambda: op_count_report(26, 257), lambda: op_count_report(27, 257)),
    "MeasuredSizes": Case(lambda: MeasuredSizes(1, 2, 3), lambda: MeasuredSizes(1, 2, 4)),
    "Field": Case(lambda: Field(257), lambda: Field(263),
                  memos=("bits_per_element", "element_size"), bad=(lambda: Field(4), ParameterError)),
    "OpCounter": Case(lambda: OpCounter(1, 2, 3, 4), lambda: OpCounter(1, 2, 3, 5), mutable=True),
    "PermutationMatrix": Case(lambda: PermutationMatrix((1, 0, 2)),
                              lambda: PermutationMatrix((0, 1, 2)),
                              bad=(lambda: PermutationMatrix((0, 0)), DimensionMismatch)),
    "NetworkConfig": Case(lambda: NetworkConfig(n=4, field=FIELD, rho=2, seed=b"values"),
                          lambda: NetworkConfig(n=4, field=FIELD, rho=2),
                          bad=(lambda: NetworkConfig(n=1, field=FIELD, rho=2), ParameterError)),
    "SyncConfig": Case(lambda: SyncConfig(WEIGHTS, (1, 2, 3, 4)),
                       lambda: SyncConfig(WEIGHTS, (1, 2, 3, 4), u=3),
                       memos=("base_powers",), touch=lambda c: c.base_powers,
                       bad=(lambda: SyncConfig(WEIGHTS, (1, 2, 3, 4), u=0), ParameterError)),
    "PublicKey": Case(lambda: parse_public_key(PK_BLOB), lambda: OTHER_PK,
                      memos=("_bias", "_tail", "_theta_product"),
                      touch=lambda pk: verify(pk, THETA, b"m", Signature((0,) * 4, (0,) * 4))),
    "SecretKey": Case(lambda: parse_secret_key(SK_BLOB), lambda: OTHER_SK,
                      memos=("_public", "_sign_mat"),
                      touch=lambda sk: sign(sk, THETA, b"m", random.Random(1)), mutable=True),
    "SyncSession": Case(lambda: SyncSession(SYNC, 3, (1, 2)), lambda: SyncSession(SYNC, 3, (1, 3)),
                        memos=("_dh_share",),
                        touch=lambda s: setattr(s, "_dh_share", _matrix()),
                        mutable=True,
                        bad=(lambda: SyncSession(SYNC, 0, (1, 2)), ParameterError)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_semantics(name):
    case = CASES[name]
    a, b, other = case.build(), case.build(), case.other()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    shown = repr(a)
    assert shown.startswith(f"{name}(") and shown == repr(b)
    if case.mutable:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    if case.touch is not None:
        case.touch(a)
    for memo in case.memos:
        assert getattr(a, memo) is not None
        assert f"{memo}=" not in repr(a)
    assert a == b and repr(a) == shown
    if not case.mutable:
        assert hash(a) == hash(b)
    if case.mutable:
        for field in a._fields:
            setattr(a, field, getattr(other, field))
        assert a == other
    else:
        first = a._fields[0]
        with pytest.raises(AttributeError):
            setattr(a, first, getattr(other, first))
        with pytest.raises(AttributeError):
            delattr(a, first)
        assert a == b
    if isinstance(a, tuple):
        # A record is a tuple: it equals the plain tuple of its fields.
        assert len(b) == len(b._fields) and b == tuple(b)
    if case.bad is not None:
        make, error = case.bad
        with pytest.raises(error):
            make()
