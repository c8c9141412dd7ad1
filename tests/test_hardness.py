"""Permuted-matrix-power problem: solvers and security estimates."""

from __future__ import annotations

import math
import random
from itertools import permutations

import pytest

from nnsig.errors import LimitExceeded, ParameterError
from nnsig.field import Field
from nnsig.hardness import (
    QUANTUM_STYLES,
    MatrixPowerInstance,
    MatrixPowerSolution,
    brute_force_solve,
    classical_security_bits,
    classical_security_ok,
    estimate,
    keyspace_bits,
    make_instance,
    quantum_security_ok,
    verify_solution,
)
from nnsig.matrix import PermutationMatrix, from_rows

P128 = 2**128 - 159

# Frozen from a high-precision (60-digit) evaluation of the same formulas.
CLASSICAL_ORACLE = {
    (2, 3): 5.6644487074538894,
    (26, 257): 113.48428643869417,
    (128, P128): 872.16172208362187,
}
KEYSPACE_ORACLE = {
    (2, 5): 7.584962500721156,
    (26, 257): 429.18112543422818,
    (128, P128): 3352.3234441672437,
}


def test_hand_planted_instance_unique_solution(f5):
    # A is unipotent: A^a = [[1,a],[0,1]], so the 4 powers are distinct and
    # only (a=3, row swap) can produce B = [[0,1],[1,3]].
    a_mat = from_rows(f5, [[1, 1], [0, 1]])
    b_mat = from_rows(f5, [[0, 1], [1, 3]])
    instance = MatrixPowerInstance(a_mat=a_mat, b_mat=b_mat)
    hits = brute_force_solve(instance)
    assert len(hits) == 1
    assert hits[0].exponent == 3
    assert hits[0].perm.perm == (1, 0)
    assert verify_solution(instance, hits[0])


def test_verify_rejects_wrong_candidates(f5):
    a_mat = from_rows(f5, [[1, 1], [0, 1]])
    b_mat = from_rows(f5, [[0, 1], [1, 3]])
    instance = MatrixPowerInstance(a_mat=a_mat, b_mat=b_mat)
    good = MatrixPowerSolution(exponent=3, perm=PermutationMatrix((1, 0)))
    assert verify_solution(instance, good)
    assert not verify_solution(
        instance, MatrixPowerSolution(exponent=2, perm=PermutationMatrix((1, 0)))
    )
    assert not verify_solution(
        instance, MatrixPowerSolution(exponent=3, perm=PermutationMatrix((0, 1)))
    )


def test_plant_and_recover_loop(f7):
    rng = random.Random(11)
    for _ in range(50):
        instance, planted = make_instance(3, f7, rng)
        assert verify_solution(instance, planted)
        hits = brute_force_solve(instance)
        assert any(
            h.exponent == planted.exponent and h.perm.perm == planted.perm.perm
            for h in hits
        )
        for h in hits:
            assert verify_solution(instance, h)


def test_brute_force_returns_every_accepted_solution(f7):
    rng = random.Random(12)
    candidates = [
        MatrixPowerSolution(exponent=exponent, perm=PermutationMatrix(perm))
        for exponent in range(1, 7)
        for perm in permutations(range(3))
    ]
    # Random instances here have one solution each.  Every power of a 3-cycle
    # is a permutation matrix, so against it each exponent has exactly one L.
    shift = PermutationMatrix((1, 2, 0)).to_matrix(f7)
    instances = [MatrixPowerInstance(a_mat=shift, b_mat=shift)]
    instances += [make_instance(3, f7, rng)[0] for _ in range(20)]
    for instance in instances:
        # Every accepted candidate, in the order of exponents, then of permutations.
        accepted = [c for c in candidates if verify_solution(instance, c)]
        assert brute_force_solve(instance) == accepted
    assert [h.exponent for h in brute_force_solve(instances[0])] == [1, 2, 3, 4, 5, 6]


def test_solver_guardrails(f7):
    rng = random.Random(13)
    instance, _ = make_instance(5, f7, rng)
    with pytest.raises(LimitExceeded):
        brute_force_solve(instance)
    big = Field(37)
    instance2, _ = make_instance(2, big, rng)
    with pytest.raises(LimitExceeded):
        brute_force_solve(instance2)
    # Explicit limits override the defaults.
    assert isinstance(brute_force_solve(instance2, p_limit=37), list)


def test_make_instance_validation(f5):
    with pytest.raises(ParameterError):
        make_instance(1, f5, random.Random(0))


def test_classical_bits_frozen_values():
    for (n, p), want in CLASSICAL_ORACLE.items():
        assert math.isclose(classical_security_bits(n, p), want, rel_tol=0, abs_tol=1e-9)


def test_classical_bits_against_live_high_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    rng = random.Random(14)
    pairs = [(2, 3), (26, 257), (33, 257), (43, 257), (128, P128)]
    pairs += [(rng.randrange(2, 200), rng.choice([3, 257, 7919, P128])) for _ in range(15)]
    for n, p in pairs:
        want = mp.log(p - 1, 2) + 3 * mp.log(n, 2) + mp.log(mp.log(p, 2), 2)
        for k in range(2, n + 1):
            want += mp.log(k, 2)
        got = classical_security_bits(n, p)
        assert abs(got - float(want)) < 1e-9 * max(1.0, float(want))


def test_keyspace_bits_frozen_values():
    assert math.isclose(keyspace_bits(2, 5), math.log2(192), rel_tol=0, abs_tol=1e-12)
    for (n, p), want in KEYSPACE_ORACLE.items():
        assert math.isclose(keyspace_bits(n, p), want, rel_tol=1e-12)
    # The headline keyspace at (26, 257) is ~429 bits -- easily mistaken for a
    # work-factor figure, which is actually ~113 bits at the same point.
    assert keyspace_bits(26, 257) > 3 * classical_security_bits(26, 257)


def test_estimator_validation():
    with pytest.raises(ParameterError):
        classical_security_bits(1, 5)
    with pytest.raises(ParameterError):
        keyspace_bits(4, 2)
    with pytest.raises(ParameterError):
        quantum_security_ok(4, 7, 80, style="shor")


def test_reference_level_128():
    assert classical_security_ok(128, P128, 128)
    assert classical_security_bits(128, P128) >= 128
    assert quantum_security_ok(128, P128, 128, style="grover")  # 872 >= 256
    assert quantum_security_ok(128, P128, 128, style="doubled_log")


def test_quantum_styles_disagree_where_expected():
    # classical(26, 257) ~= 113.5: short of 2*80 but past 80/2.
    assert not quantum_security_ok(26, 257, 80, style="grover")
    assert quantum_security_ok(26, 257, 80, style="doubled_log")
    assert QUANTUM_STYLES == ("grover", "doubled_log")


def test_estimate_summary_fields():
    est = estimate(26, 257, 80)
    assert est.n == 26 and est.p == 257 and est.level == 80
    assert math.isclose(est.classical_bits, CLASSICAL_ORACLE[(26, 257)], abs_tol=1e-9)
    assert est.quantum_bits == 2 * est.classical_bits
    assert math.isclose(est.keyspace_bits, KEYSPACE_ORACLE[(26, 257)], rel_tol=1e-12)
    assert est.classical_ok
    assert not est.quantum_ok_grover
    assert est.quantum_ok_doubled_log


def test_estimates_monotone_in_n_and_p():
    for n in range(2, 30):
        assert classical_security_bits(n + 1, 257) > classical_security_bits(n, 257)
        assert keyspace_bits(n + 1, 257) > keyspace_bits(n, 257)
    assert classical_security_bits(26, 7919) > classical_security_bits(26, 257)
    assert keyspace_bits(26, 7919) > keyspace_bits(26, 257)
