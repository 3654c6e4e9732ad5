"""Prime fields for the closure: sampling, the field context, exact matmul mod p.

Every dimension reported by the library is a rank mod p computed by the
orbit-coordinate engine in `switching`; reported ranks are always confirmed
under two independently sampled primes.  A product of two arrays of
residues is `modmul`, in int64, as its dot products reach inner * (p - 1)^2,
past what float64 holds exactly.  A product of residues by a table of
counts, `switching.chain_products`, is float64 matmul through BLAS: exact
while every dot product stays below FLOAT64_EXACT, a bound the orbit index
checks for each table as it counts it (`ProductBoundError`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

#: Working primes, sampled or explicit, lie below 2^28 so that a 128-term dot
#: product of reduced residues fits in int64: 128 * (2^28 - 1)^2 < 2^63.
PRIME_LO = 1 << 27
PRIME_HI = 1 << 28
_MODMUL_CHUNK = 128
#: float64 holds every integer below 2^53 exactly
FLOAT64_EXACT = 1 << 53

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the sampling range."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sample_primes(seed: int, count: int = 2, avoid: int = 1) -> tuple[int, ...]:
    """Sample distinct primes in [PRIME_LO, PRIME_HI) not dividing `avoid`, seeded."""
    rng = random.Random(f"primes:{seed}")
    out: list[int] = []
    while len(out) < count:
        c = rng.randrange(PRIME_LO | 1, PRIME_HI, 2)
        if c in out or not is_prime(c):
            continue
        if avoid % c == 0:
            continue
        out.append(c)
    return tuple(out)


class ProductBoundError(ValueError):
    """A count table whose float64 products with residues could be inexact."""


@dataclass(frozen=True)
class FieldCtx:
    """The prime field Z/p of one closure run: an odd prime below PRIME_HI."""

    p: int

    def __post_init__(self):
        if self.p == 2 or not is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.p >= PRIME_HI:
            raise ValueError(
                f"prime {self.p} is not below {PRIME_HI}: int64 arithmetic mod p would overflow"
            )


def modmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for int64 arrays of residues mod p < PRIME_HI."""
    inner = a.shape[-1]
    if inner <= _MODMUL_CHUNK:
        return (a @ b) % p
    acc = None
    for lo in range(0, inner, _MODMUL_CHUNK):
        part = (a[..., lo : lo + _MODMUL_CHUNK] @ b[lo : lo + _MODMUL_CHUNK]) % p
        acc = part if acc is None else (acc + part) % p
    return acc
