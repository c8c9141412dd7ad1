"""Fixed-seed outputs pinned byte for byte.

Keygen, a synced theta and a signature are drawn from seeded rngs and their
serialized bytes hashed.  A change to any kernel or shortcut that keeps the
algebra exact leaves every digest here unchanged; a digest that moves means
the keys, thetas or signatures users hold would change.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from nnsig.field import Field
from nnsig.network import NetworkConfig
from nnsig.scheme import (
    keygen,
    serialize_public_key,
    serialize_secret_key,
    serialize_signature,
    sign,
    verify,
)
from nnsig.sync import SyncConfig, SyncSession, encode_theta, run_pair

GOLDEN = {
    (257, 8): {
        "pk": "882e6caf73b0d0586594b85aabb55b4bf15bd22ac2e273f285c180f45489489f",
        "sk": "3276640860e9c9d3d6dd0dad52a7630cbc68fbe887bf6de20c0b578a91e06541",
        "theta": "a6107da88a9237b40f2754e0250b1c4607f055f7a51a09d01d328dc5cc5018d6",
        "signature": "ffaa02d9815c8e3e06a7fa5dc63a71e278404262e29266628c580c96a106acda",
    },
    (257, 26): {
        "pk": "79f6fc223805b07ecacd5bc1664447dfb12277fc5aedd855aa36a23f95c285ec",
        "sk": "29ee40ea6d05438bbabff79752b3cc8b05945af64597eece2afa980702015b2b",
        "theta": "d8551843da3b3e2397a8e774d2fdc67feaa8171dc9e73b5210b21590d26488a4",
        "signature": "05fc45d5c19532e8d4a1c537c369ee967e312cc26cae5ee7323687c802607d43",
    },
    (2**61 - 1, 6): {
        "pk": "ebf1b35b81a7a9153030d60d80c662b0c763eebc7dec954bdcfce20eaa791f98",
        "sk": "8ec5901273605e45cc4b5dfba0b2ffc82c5458178226fc9feeacdef38d54ab96",
        "theta": "3da9ce7c4e9169c066f438e251ce97f746c01eb6b01b508e7eac012cade6c618",
        "signature": "b88da01484ecd33ab2226183a70a20c8a8bb1b4123bf8985abf3b48309d952e0",
    },
}


def _digests(p, n):
    field = Field(p)
    seed = b"golden-%d-%d" % (p, n)
    config = NetworkConfig(n=n, field=field, rho=5, seed=seed)
    pk, sk = keygen(config, random.Random(seed + b"keys"))
    q = field.sample_vector(random.Random(seed + b"q"), n)
    sync_config = SyncConfig(weights=sk.weights, q=q)
    a = SyncSession.create(sync_config, random.Random(seed + b"a"))
    b = SyncSession.create(sync_config, random.Random(seed + b"b"))
    theta_a, theta_b = run_pair(a, b)
    assert theta_a == theta_b
    message = b"golden message"
    signature = sign(sk, theta_a, message, random.Random(seed + b"sign"))
    assert verify(pk, theta_b, message, signature)
    blobs = {
        "pk": serialize_public_key(pk),
        "sk": serialize_secret_key(sk),
        "theta": encode_theta(field, theta_a),
        "signature": serialize_signature(signature, field),
    }
    return {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()}


@pytest.mark.parametrize("p,n", sorted(GOLDEN))
def test_fixed_seed_outputs_are_byte_identical(p, n):
    assert _digests(p, n) == GOLDEN[(p, n)]
