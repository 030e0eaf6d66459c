"""Portable seeded randomness for the verification suites.

The generator is xoshiro256++ (public constants 23/17/45) seeded through
splitmix64, so any reimplementation that follows the published update rules
reproduces the exact scenario stream from the same integer seed.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31), state


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


class Xoshiro256pp:
    """xoshiro256++ with 64-bit output."""

    def __init__(self, seed: int):
        s = int(seed) & _MASK
        state = []
        for _ in range(4):
            z, s = _splitmix64(s)
            state.append(z)
        self._s = state

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s0 + s3) & _MASK, 23) + s0) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniforms(self, n: int) -> np.ndarray:
        return np.array([self.uniform() for _ in range(n)])

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n), rejection-sampled to avoid modulo bias."""
        if n <= 0:
            raise ValueError("n must be positive")
        zone = _MASK - (_MASK % n)
        while True:
            v = self.next_u64()
            if v < zone:
                return v % n

    def normals(self, n: int) -> np.ndarray:
        """Standard normals via Box-Muller on consecutive uniform pairs."""
        m = (n + 1) // 2
        u1, u2 = self.uniforms(m), self.uniforms(m)
        r = np.sqrt(-2.0 * np.log(1.0 - u1))
        out = np.concatenate([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)])
        return out[:n]

    def complex_normals(self, n: int) -> np.ndarray:
        g = self.normals(2 * n)
        return g[:n] + 1j * g[n:]


def random_unitary_matrix(rng: Xoshiro256pp, dim: int) -> np.ndarray:
    g = rng.complex_normals(dim * dim).reshape(dim, dim)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d.conj() / np.abs(d))


def random_hermitian_matrix(rng: Xoshiro256pp, dim: int, scale: float = 1.0) -> np.ndarray:
    g = rng.complex_normals(dim * dim).reshape(dim, dim)
    return scale * 0.5 * (g + g.conj().T)


def random_density_matrix(rng: Xoshiro256pp, dim: int, rank: int | None = None) -> np.ndarray:
    rank = dim if rank is None else max(1, int(rank))
    g = rng.complex_normals(dim * rank).reshape(dim, rank)
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_decomposition(rng: Xoshiro256pp, rho: np.ndarray, n_members: int) -> list[tuple[float, np.ndarray]]:
    """A random pure-state mixture that reproduces ``rho``.

    Any two decompositions of the same density are related by an isometry on
    the sqrt-weighted eigenvectors; drawing that isometry from a Haar unitary
    yields ``n_members`` weighted kets summing back to ``rho``.
    """
    p, vec = np.linalg.eigh(rho)
    keep = p > 1e-12
    p, vec = p[keep], vec[:, keep]
    rank = len(p)
    if n_members < rank:
        raise ValueError(f"need at least {rank} members for a rank-{rank} density")
    w = random_unitary_matrix(rng, n_members)[:, :rank]
    raw = (w * np.sqrt(p)[None, :]) @ vec.T  # row j = unnormalized member amplitudes
    members = []
    for j in range(n_members):
        amp = raw[j]
        q = float(np.vdot(amp, amp).real)
        if q < 1e-14:
            continue
        members.append((q, amp / np.sqrt(q)))
    total = sum(q for q, _ in members)
    return [(q / total, amp) for q, amp in members]
