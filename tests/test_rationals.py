"""Number-theory helpers: primality against the trial-division oracle."""

import pytest

import oracles
from fptkit.errors import DomainError
from fptkit.rationals import PRIME_TEST_LIMIT, is_prime


class TestIsPrime:
    def test_matches_oracle_below_20000(self):
        for n in range(20001):
            assert is_prime(n) == oracles.is_prime(n), n

    @pytest.mark.parametrize(
        "n",
        [
            3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
            3825123056546413051,  # strong pseudoprime to bases 2..31
            561 * 1105,
            (2**19 - 1) * (2**61 - 1),
        ],
    )
    def test_pseudoprimes_and_products_are_composite(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize(
        "n", [1000000000000000003, 2**61 - 1, 2**64 - 59, 2**80 - 65]
    )
    def test_large_primes(self, n):
        assert is_prime(n)

    def test_refuses_at_the_limit(self):
        assert is_prime(PRIME_TEST_LIMIT - 1) is False  # even
        for n in (PRIME_TEST_LIMIT, 2**89 - 1):
            with pytest.raises(DomainError, match=str(PRIME_TEST_LIMIT)):
                is_prime(n)
