import pytest

from smallsub.fields import GF, _is_prime, parse_field_spec

#: The first n at which Miller-Rabin on the 13 prime bases up to 41 is unproven.
MR_BOUND = 3_317_044_064_679_887_385_961_981


def test_primality_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(-3, 5000) if _is_prime(n)] == \
        [n for n in range(-3, 5000) if trial(n)]


@pytest.mark.parametrize("n", [2047, 1373653, 25326001, 3215031751,
                               3825123056546413051,
                               318665857834031151167461])
def test_strong_pseudoprimes_are_rejected(n):
    assert not _is_prime(n)
    with pytest.raises(ValueError, match="must be prime"):
        GF(n)


def test_large_primes_are_accepted():
    for p in (2 ** 31 - 1, 2 ** 61 - 1, 2 ** 64 - 59):
        assert GF(p).characteristic == p
    assert parse_field_spec("p=2305843009213693951") == GF(2 ** 61 - 1)


def test_characteristic_at_the_bound_is_rejected():
    with pytest.raises(ValueError, match="too large"):
        GF(MR_BOUND)
