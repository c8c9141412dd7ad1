"""Scalar field arithmetic: oracles, axioms, sampling, parameter validation."""

from __future__ import annotations

import random

import pytest
from scipy import stats

from nnsig.errors import ParameterError
from nnsig.field import Field, count_ops, is_prime


def test_activation_canonical_residues(f7):
    assert f7.f_activate(10) == 3
    assert f7.f_activate(-3) == 4
    assert f7.f_activate(0) == 0
    assert f7.f_activate(7) == 0


def test_activation_matches_two_branch_definition(f7):
    # For x >= 0 the residue is x mod p; for x < 0 it is p - (|x| mod p), folded
    # back to 0 when |x| divides p.  Both branches must agree with plain % p.
    rng = random.Random(11)
    for _ in range(2000):
        x = rng.randrange(-10_000, 10_000)
        if x >= 0:
            expected = x % 7
        else:
            expected = (7 - (abs(x) % 7)) % 7
        assert f7.f_activate(x) == expected == x % 7


def test_add_sub_examples(f7):
    assert f7.add(5, 4) == 2
    assert f7.sub(2, 5) == 4
    assert f7.add(6, 1) == 0


def test_inverse_matches_exhaustive_search(f7):
    # Oracle: scan all candidates for the unique y with 3*y = 1 mod 7.
    matches = [y for y in range(1, 7) if (3 * y) % 7 == 1]
    assert matches == [5]
    assert f7.inv(3) == 5


def test_inverse_over_whole_field():
    f = Field(11)
    for a in range(1, 11):
        assert f.mul(a, f.inv(a)) == 1


def test_inverse_of_zero_raises(f7):
    with pytest.raises(ZeroDivisionError):
        f7.inv(0)


@pytest.mark.parametrize("p", [5, 257, 7919])
def test_field_axioms_randomized(p):
    f = Field(p)
    rng = random.Random(p)
    for _ in range(4000):
        a, b, c = rng.randrange(p), rng.randrange(p), rng.randrange(p)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_sample_determinism(f257):
    a = [f257.sample(random.Random(42)) for _ in range(10)]
    b = [f257.sample(random.Random(42)) for _ in range(10)]
    assert a == b


def test_sample_nonzero_never_zero(f5):
    rng = random.Random(3)
    draws = [f5.sample(rng, nonzero=True) for _ in range(100_000)]
    assert min(draws) >= 1
    assert max(draws) <= 4


def test_sample_uniformity_chi_square(f257):
    rng = random.Random(2024)
    counts = [0] * 257
    for _ in range(100_000):
        counts[f257.sample(rng)] += 1
    _, pvalue = stats.chisquare(counts)
    assert pvalue > 0.01


def test_rejects_composite_modulus():
    with pytest.raises(ParameterError):
        Field(4)
    with pytest.raises(ParameterError):
        Field(1)
    with pytest.raises(ParameterError):
        Field(561)  # Carmichael number


def test_modulus_bit_cap():
    Field((1 << 61) - 1)  # largest 61-bit prime is fine
    with pytest.raises(ParameterError):
        Field(2305843009213693967)  # first prime above 2^61


def test_is_prime_agrees_with_trial_division():
    def slow(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(2000):
        assert is_prime(n) == slow(n), n


# psi_12: the least composite that is a strong probable prime to each of the
# first 12 prime bases (Sorenson & Webster, 2015).
PSI_12 = 318665857834031151167461


def test_is_prime_rejects_the_twelve_base_strong_pseudoprime():
    assert 399165290221 * 798330580441 == PSI_12
    assert is_prime(PSI_12) is False


@pytest.mark.parametrize(
    "p,bits,size",
    [(3, 2, 1), (5, 3, 1), (257, 9, 2), (7919, 13, 2), ((1 << 61) - 1, 61, 8)],
)
def test_element_widths(p, bits, size):
    f = Field(p)
    assert f.bits_per_element == bits
    assert f.element_size == size


def test_op_counter_tallies_scalar_ops(f7):
    with count_ops() as counter:
        f7.add(1, 2)
        f7.mul(3, 4)
        f7.mul(3, 4)
        f7.sub(5, 6)
        f7.inv(3)
    assert counter.adds == 1
    assert counter.muls == 2
    assert counter.subs == 1
    assert counter.invs == 1
    assert counter.total == 5
    # counting stops once the context exits
    f7.mul(2, 2)
    assert counter.muls == 2
