"""L qubits on a 1D chain coupled to a set of discrete boson modes.

The coupling of qubit l at position r_l to mode k is
``g_k (exp(-i k r_l) a_k + exp(i k r_l) a_k^dag) (lambda1 sx_l + lambda2 sy_l)``
and the free parts are ``sum_l (w0_l/2) sz_l`` and ``sum_k w_k n_k``.

For thermal baths the quadratic damping coefficient of the entanglement
fidelity factorizes over qubit pairs:
``(1/2) sum_{l1,l2} Omega^2(r_l1 - r_l2) <dA_l1 dA_l2>`` with the spatial
correlation ``Omega^2(d) = 2 sum_k g_k^2 cos(k d) coth(w_k / 2T)``.  The
half compensates Omega^2's normalization (twice the per-site thermal weight,
so that Omega^2(0) is the conventional rate scale x) and makes the factorized
rate identical to the variance-form coefficient.  Mode sets are required to
be +/-k symmetric so the antisymmetric sin part of the thermal correlator
cancels exactly rather than approximately.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .operators import (
    DenseOperator,
    HilbertSpace,
    Ket,
    boson_ops,
    embed,
    kron_all,
    pauli,
    thermal_boson_state,
    _nonnegative,
)

COVARIANCE_IMAG_ATOL = 1e-10


def _check_finite(fields: dict) -> None:
    """Raise ValueError naming the first field whose value is NaN or infinite."""
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class QubitLattice:
    """Positions and shared coupling constants of a 1D qubit chain."""

    positions: tuple[float, ...]
    lambda1: float
    lambda2: float
    h0_splittings: tuple[float, ...] = ()

    def __post_init__(self):
        pos = tuple(float(r) for r in self.positions)
        splits = tuple(float(w) for w in self.h0_splittings) or (0.0,) * len(pos)
        _check_finite({"lambda1": self.lambda1, "lambda2": self.lambda2,
                       **{f"positions[{i}]": r for i, r in enumerate(pos)},
                       **{f"h0_splittings[{i}]": w for i, w in enumerate(splits)}})
        if not pos:
            raise ValueError("lattice needs at least one qubit")
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError(f"positions must be strictly increasing, got {pos}")
        if len(splits) != len(pos):
            raise ValueError(f"{len(splits)} level splittings for {len(pos)} qubits")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "h0_splittings", splits)

    @property
    def n_qubits(self) -> int:
        return len(self.positions)

    @property
    def coupling_norm(self) -> float:
        """|A| eigenvalue scale: sqrt(lambda1^2 + lambda2^2)."""
        return math.hypot(self.lambda1, self.lambda2)

    def coupling_matrix(self) -> np.ndarray:
        """The 2x2 qubit-side coupling lambda1 sx + lambda2 sy."""
        return self.lambda1 * pauli("x").matrix + self.lambda2 * pauli("y").matrix

    def coupling_eigenstates(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvectors of the coupling: (minus branch, plus branch).

        The branches carry eigenvalues -|lambda| and +|lambda|.
        """
        a = self.coupling_norm
        if a == 0.0:
            raise ValueError("coupling eigenstates are undefined for lambda1 = lambda2 = 0")
        phase = complex(self.lambda1, self.lambda2) / a
        minus = np.array([1.0, -phase], dtype=np.complex128) / math.sqrt(2.0)
        plus = np.array([1.0, phase], dtype=np.complex128) / math.sqrt(2.0)
        return minus, plus

    def qubit_space(self) -> HilbertSpace:
        return HilbertSpace((2,) * self.n_qubits)


@dataclass(frozen=True)
class BathMode:
    k: float
    omega: float
    g: float


@dataclass(frozen=True)
class BathModeSet:
    """Discrete boson modes (k, omega, g) plus a temperature.

    Every mode with k != 0 must have a mirror of its own, exactly (-k, omega,
    g), and a k = 0 mode is its own mirror; couplings are real (any phase is
    absorbable into the mode operators).  Any other mode set, such as
    {+k, +k, -k} or a mirror off in its last digit, raises ValueError.
    ``mirror_pairing`` gives the pairing, which the oracle uses to
    diagonalise in real arithmetic.
    """

    modes: tuple[BathMode, ...]
    temperature: float

    def __post_init__(self):
        modes = tuple(BathMode(float(m.k), float(m.omega), float(m.g)) for m in self.modes)
        _check_finite({"temperature": self.temperature,
                       **{f"modes[{i}].{f}": getattr(m, f) for i, m in enumerate(modes) for f in ("k", "omega", "g")}})
        if not modes:
            raise ValueError("mode set is empty")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        for m in modes:
            if m.omega <= 0:
                raise ValueError(f"mode frequencies must be positive, got {m.omega}")
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "temperature", float(self.temperature))
        self.mirror_pairing()  # raises on a mode without a mirror of its own

    @classmethod
    def symmetric(cls, pairs: Sequence[tuple[float, float, float]], temperature: float) -> "BathModeSet":
        """Build from (k, omega, g) entries, adding the -k mirror of each k > 0."""
        modes = []
        for k, omega, g in pairs:
            modes.append(BathMode(k, omega, g))
            if k != 0.0:
                modes.append(BathMode(-k, omega, g))
        return cls(tuple(modes), temperature)

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def mirror_pairing(self) -> tuple[int, ...]:
        """The involution pairing each mode with an exact mirror (k' = -k, omega' = omega, g' = g).

        A k = 0 mode is paired with itself.  A mode with no mirror left to
        pair with raises ValueError naming its k.
        """
        partner = list(range(self.n_modes))
        waiting: dict[tuple[float, float, float], list[int]] = {}
        for i, m in enumerate(self.modes):
            if m.k == 0.0:
                continue
            unpaired = waiting.get((-m.k, m.omega, m.g))
            if unpaired:
                j = unpaired.pop()
                partner[i], partner[j] = j, i
            else:
                waiting.setdefault((m.k, m.omega, m.g), []).append(i)
        for (k, _, _), unpaired in waiting.items():
            if unpaired:
                raise ValueError(f"mode set is not +/-k symmetric: no mirror of its own for k={k}")
        return tuple(partner)


def _coth(x: float) -> float:
    return 1.0 / math.tanh(x)


def thermal_occupation_factor(omega: float, temperature: float) -> float:
    """coth(omega / 2T) = 2<N> + 1; equals 1 at T = 0."""
    if temperature == 0.0:
        return 1.0
    return _coth(omega / (2.0 * temperature))


@dataclass(frozen=True)
class ModelHamiltonian:
    """The model Hamiltonian on [qubit 1..L, mode 1..K] factors.

    The coupling ``h_i`` is the model's only matrix.  The free parts are
    diagonal in the product basis, so they are kept as two energy vectors:
    ``h0_diag`` holds sum_l (w0_l/2) sz_l on the qubit basis (length 2^L) and
    ``h_env_diag`` holds sum_k w_k n_k on the mode basis ((n_max+1)^K), and
    basis state (s, e) of ``space`` has free energy h0_diag[s] + h_env_diag[e].
    Both are read-only float arrays whose lengths multiply to ``space.dim``.
    """

    space: HilbertSpace
    h0_diag: np.ndarray
    h_i: DenseOperator
    h_env_diag: np.ndarray
    lattice: QubitLattice
    modes: BathModeSet
    n_max: int

    def __post_init__(self):
        for name in ("h0_diag", "h_env_diag"):
            v = np.array(getattr(self, name), dtype=float)
            if v.ndim != 1 or not np.isfinite(v).all():
                raise ValueError(f"{name} must be a 1-D array of finite energies")
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        if len(self.h0_diag) * len(self.h_env_diag) != self.space.dim:
            raise ValueError(f"free energies of lengths {len(self.h0_diag)} and {len(self.h_env_diag)} "
                             f"do not span a space of dimension {self.space.dim}")

    def total(self) -> DenseOperator:
        """The full-size H_total: the dense reference that ``block`` is tested against."""
        idx = np.arange(self.space.dim)
        return DenseOperator.hermitian_op(self.space, self.block(idx, idx))

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """H_total's entries at ``np.ix_(rows, cols)`` for index arrays without repeats, without forming H_total.

        One gather of ``h_i``; the free energies land on the entries whose
        row equals their column.  No Hermiticity check: a block off the
        diagonal need not be Hermitian.
        """
        h = self.h_i.matrix[np.ix_(rows, cols)]
        both, i, j = np.intersect1d(rows, cols, assume_unique=True, return_indices=True)
        s, e = np.divmod(both, len(self.h_env_diag))
        h[i, j] = (h[i, j] + self.h0_diag[s]) + self.h_env_diag[e]
        return h

    def system_space(self) -> HilbertSpace:
        return self.lattice.qubit_space()

    def env_space(self) -> HilbertSpace:
        return HilbertSpace((self.n_max + 1,) * self.modes.n_modes)

    def parity(self) -> np.ndarray:
        """(popcount(s) + sum_k n_k) mod 2 for each basis index (s, e) of ``space``.

        Every coupling term flips one qubit and adds or removes one boson, and
        the free parts are diagonal, so this parity commutes with ``total()``.
        """
        dims = self.space.factor_dims
        return np.indices(dims).reshape(len(dims), -1).sum(axis=0) % 2

    def thermal_env_state(self) -> DenseOperator:
        parts = [thermal_boson_state(m.omega, self.modes.temperature, self.n_max) for m in self.modes.modes]
        return kron_all(parts)


def _coupling_stack(lattice: QubitLattice) -> np.ndarray:
    """The L couplings A_l = lambda1 sx_l + lambda2 sy_l as one (L, 2^L, 2^L) array, [l] = ``embed(A, l, ...)``.

    Qubit 0 is a basis index's most significant bit, and A_l flips bit l: A[1, 0] takes a 0 to a 1, A[0, 1] back.
    """
    a = lattice.coupling_matrix()
    L = lattice.n_qubits
    cols = np.arange(1 << L)
    masks = 1 << np.arange(L - 1, -1, -1)[:, None]
    stack = np.zeros((L, len(cols), len(cols)), dtype=np.complex128)
    stack[np.arange(L)[:, None], cols ^ masks, cols] = np.where(cols & masks, a[0, 1], a[1, 0])
    return stack


def build_hamiltonian(lattice: QubitLattice, modes: BathModeSet, n_max: int) -> ModelHamiltonian:
    """Assemble the dense model Hamiltonian at truncation level ``n_max``."""
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    L = lattice.n_qubits
    K = modes.n_modes
    qspace = lattice.qubit_space()
    mspace = HilbertSpace((n_max + 1,) * K)
    space = qspace * mspace

    bits = np.indices(qspace.factor_dims).reshape(L, -1)
    h0_diag = np.zeros(qspace.dim)
    for w0, b in zip(lattice.h0_splittings, bits):
        h0_diag += 0.5 * w0 * (1 - 2 * b)  # sz is +1 on |0>, -1 on |1>
    occupations = np.indices(mspace.factor_dims).reshape(K, -1)
    h_env_diag = sum(m.omega * n for m, n in zip(modes.modes, occupations))

    a1, _, _ = boson_ops(n_max)
    a_embedded = [embed(a1, j, mspace).matrix for j in range(K)]
    h_i_m = np.zeros((space.dim, space.dim), dtype=np.complex128)
    de = mspace.dim
    for r, a_l in zip(lattice.positions, _coupling_stack(lattice)):
        field_m = np.zeros((de, de), dtype=np.complex128)
        for j, m in enumerate(modes.modes):
            phase = np.exp(-1j * m.k * r)
            field_m += m.g * (phase * a_embedded[j] + np.conj(phase) * a_embedded[j].conj().T)
        for i, j in zip(*np.nonzero(a_l)):  # np.kron(a_l, field_m) added block by block, zero blocks skipped
            h_i_m[i * de:(i + 1) * de, j * de:(j + 1) * de] += a_l[i, j] * field_m
    h_i = DenseOperator.hermitian_op(space, h_i_m)

    return ModelHamiltonian(space, h0_diag, h_i, h_env_diag, lattice, modes, n_max)


def correlation_fn_discrete(modes: BathModeSet, delta_r: float) -> float:
    """Spatial correlation 2 sum_k g_k^2 cos(k dr) coth(w_k / 2T)."""
    t = modes.temperature
    return 2.0 * sum(
        m.g * m.g * math.cos(m.k * delta_r) * thermal_occupation_factor(m.omega, t)
        for m in modes.modes
    )


def _covariances(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Re <dO_i dO_j> of a stack ``ops``, one rho O_i at a time contracted against the whole stack for its row;
    an imaginary residue above tolerance raises."""
    means = np.empty(len(ops), dtype=np.complex128)
    raw = np.empty((len(ops), len(ops)), dtype=np.complex128)
    for i, op in enumerate(ops):
        rho_oi = rho @ op
        means[i] = np.trace(rho_oi)
        raw[i] = np.einsum("ab,jba->j", rho_oi, ops)  # tr[rho O_i O_j] for every j
    if np.abs(means.imag).max() > COVARIANCE_IMAG_ATOL:
        raise ValueError("coupling operators have non-real means against the state")
    cov = raw - np.outer(means, means)
    residue = np.abs(cov.imag) > COVARIANCE_IMAG_ATOL
    if residue.any():
        i, j = np.argwhere(residue)[0]
        raise ValueError(f"covariance ({i},{j}) has imaginary residue {cov[i, j].imag:.3e}")
    return cov.real


def _rate_sum(coords: Sequence[float], cov: np.ndarray, omega2: Callable[[float], float]) -> float:
    rate = 0.0
    for i, ri in enumerate(coords):
        for j, rj in enumerate(coords):
            rate += omega2(ri - rj) * cov[i, j]
    # Omega^2 is twice the per-site thermal weight; the factorized rate is the variance form
    return _nonnegative(0.5 * float(rate), "decoherence rate")


def rate_from_correlation(lattice: QubitLattice, omega2: Callable[[float], float],
                          rho_s: DenseOperator) -> float:
    """Factorized damping rate for an arbitrary spatial correlation function.

    ``(1/2) sum_{l1,l2} omega2(r_l1 - r_l2) <dA_l1 dA_l2>`` over single
    qubits; equals the variance-form damping coefficient when ``omega2`` is
    the bath's thermal correlation.  The coupling operators of distinct qubits
    commute, so the plain (unsymmetrized) covariance is real; a residue above
    1e-10 is rejected.
    """
    if rho_s.space != lattice.qubit_space():
        raise ValueError("state space does not match the lattice qubit space")
    cov = _covariances(_coupling_stack(lattice), rho_s.matrix)
    return _rate_sum(lattice.positions, cov, omega2)


def _pairs(lattice: QubitLattice) -> list[tuple[int, int]]:
    if lattice.n_qubits % 2:
        raise ValueError(f"pair operations need an even qubit count, got {lattice.n_qubits}")
    return [(2 * p, 2 * p + 1) for p in range(lattice.n_qubits // 2)]


PAIR_CONSTANT_RTOL = 0.01


def pair_rate(lattice: QubitLattice, omega2: Callable[[float], float], rho_s: DenseOperator) -> float:
    """Damping rate of adjacent qubit pairs under a pair-constant correlation.

    Uses the summed pair couplings A_l + A_l' and evaluates the correlation at
    pair-center separations, i.e. the intra-pair correlation is treated as
    constant (the collective regime this formula is derived for).  A warning
    is emitted when the correlation actually varies across a pair by more
    than 1%; the value is still computed as defined.
    """
    if rho_s.space != lattice.qubit_space():
        raise ValueError("state space does not match the lattice qubit space")
    centers = []
    x = omega2(0.0)
    for a, b in _pairs(lattice):
        centers.append(0.5 * (lattice.positions[a] + lattice.positions[b]))
        intra = lattice.positions[b] - lattice.positions[a]
        if x != 0.0 and abs(omega2(intra) - x) > PAIR_CONSTANT_RTOL * abs(x):
            warnings.warn(
                f"correlation varies by more than {PAIR_CONSTANT_RTOL:.0%} across the pair at "
                f"{centers[-1]}; the pair-constant approximation is outside its regime",
                stacklevel=2,
            )
    stack = _coupling_stack(lattice)
    stack[0::2] += stack[1::2]  # A_l + A_l' for each pair (l, l') of _pairs, in place
    cov = _covariances(stack[0::2], rho_s.matrix)
    return _rate_sum(centers, cov, omega2)


def pair_encode(logical: Ket, lattice: QubitLattice) -> Ket:
    """Map an L-qubit state onto 2L qubits, one antisymmetric pair per qubit.

    In the eigenbasis of the coupling A the rule is |-> -> |-,+> and
    |+> -> |+,->, so every output is annihilated by each pair sum A_l + A_l'.
    """
    pairs = _pairs(lattice)
    n_logical = len(pairs)
    if logical.space.factor_dims != (2,) * n_logical:
        raise ValueError(
            f"logical state has factors {logical.space.factor_dims}, expected {n_logical} qubits"
        )
    minus, plus = lattice.coupling_eigenstates()
    step = (
        np.outer(np.kron(minus, plus), minus.conj())
        + np.outer(np.kron(plus, minus), plus.conj())
    )
    enc = step
    for _ in range(n_logical - 1):
        enc = np.kron(enc, step)
    return Ket(lattice.qubit_space(), enc @ logical.amplitudes)
