"""Dense operator algebra on small composite Hilbert spaces.

All objects are plain ``numpy`` complex matrices/vectors tagged with the list
of tensor-factor dimensions of the space they act on.  Units: hbar = k_B = 1,
so propagators are ``exp(-i H t)`` and thermal weights are ``exp(-n w / T)``.

Dense storage only; the intended regime is total dimension <= ~4096.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITIAN_ATOL = 1e-12
DENSITY_TRACE_ATOL = 1e-12
DENSITY_EIG_FLOOR = -1e-10
KET_NORM_ATOL = 1e-12
# eigenvalue checks on densities get expensive; above this dimension the
# positivity check is skipped (constructions preserve it mathematically)
SPECTRUM_CHECK_MAX_DIM = 512

# the floor below which a damping coefficient or a factorized rate is an error, not rounding
VARIANCE_NEGATIVE_ERROR = -1e-9

# the truncation policy: the Gibbs weight left beyond n_max stays below this
TAIL_WEIGHT_TARGET = 1e-10
N_MAX_FLOOR = 2
CONJUGATION_TRACE_ATOL = 1e-10
# the Hermiticity check works on row blocks of at most this many entries: an eighth of
# the full-stack model's 512 x 512 sector blocks, so the check never sets the oracle's memory peak
HERMITIAN_CHECK_BLOCK_ELEMENTS = 1 << 15
# the coupling's second moment works on row blocks of at most this many entries
MOMENT_BLOCK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class HilbertSpace:
    """An ordered list of tensor-factor dimensions."""

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims:
            raise ValueError("a Hilbert space needs at least one factor")
        if any(d < 1 for d in dims):
            raise ValueError(f"factor dimensions must be positive, got {dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def dim(self) -> int:
        return math.prod(self.factor_dims)

    @property
    def n_factors(self) -> int:
        return len(self.factor_dims)

    def __mul__(self, other: "HilbertSpace") -> "HilbertSpace":
        return HilbertSpace(self.factor_dims + other.factor_dims)


def _as_complex_matrix(m, dim: int) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (dim, dim):
        raise ValueError(f"matrix shape {m.shape} does not match space dimension {dim}")
    return m


def _hermitian_deviation(m: np.ndarray) -> float:
    """max |m - m^dag|, one block of rows at a time; a non-finite entry raises ValueError.

    The blocks bound the temporaries to HERMITIAN_CHECK_BLOCK_ELEMENTS entries
    each, and the maximum is the whole-matrix one.  A non-finite entry is
    rejected up front, because NaN compares false against any tolerance.
    """
    n = m.shape[0]
    step = max(1, HERMITIAN_CHECK_BLOCK_ELEMENTS // n)
    dev = 0.0
    for i in range(0, n, step):
        rows = m[i:i + step]
        finite = np.isfinite(rows)
        if not finite.all():
            r, c = np.argwhere(~finite)[0]
            raise ValueError(f"matrix has a non-finite entry {rows[r, c]} at ({i + r}, {c})")
        dev = max(dev, np.abs(rows - m[:, i:i + step].conj().T).max())
    return dev


@dataclass(frozen=True)
class DenseOperator:
    """A complex square matrix bound to a :class:`HilbertSpace`.

    ``hermitian`` / ``density`` record validated structure; operations that
    rely on it (propagation, partial trace, the coupling's second moment) require the flag.
    """

    space: HilbertSpace
    matrix: np.ndarray
    hermitian: bool = False
    density: bool = False

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_complex_matrix(self.matrix, self.space.dim))

    @classmethod
    def hermitian_op(cls, space: HilbertSpace, matrix) -> "DenseOperator":
        m = _as_complex_matrix(matrix, space.dim)
        dev = _hermitian_deviation(m)
        if dev > HERMITIAN_ATOL:
            raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
        return cls(space, m, hermitian=True)

    @classmethod
    def density_op(cls, space: HilbertSpace, matrix, check_spectrum: bool | None = None) -> "DenseOperator":
        m = _as_complex_matrix(matrix, space.dim)
        dev = _hermitian_deviation(m)
        if dev > HERMITIAN_ATOL:
            raise ValueError(f"density matrix is not Hermitian (max deviation {dev:.3e})")
        tr = np.trace(m)
        if abs(tr - 1.0) > DENSITY_TRACE_ATOL:
            raise ValueError(f"density matrix trace {tr} is not 1")
        if check_spectrum is None:
            check_spectrum = space.dim <= SPECTRUM_CHECK_MAX_DIM
        if check_spectrum:
            lo = np.linalg.eigvalsh(m).min()
            if lo < DENSITY_EIG_FLOOR:
                raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
        return cls(space, m, hermitian=True, density=True)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


@dataclass(frozen=True)
class Ket:
    """A normalized state vector bound to a :class:`HilbertSpace`."""

    space: HilbertSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if v.shape != (self.space.dim,):
            raise ValueError(f"amplitude length {v.shape[0]} does not match dimension {self.space.dim}")
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > KET_NORM_ATOL:
            raise ValueError(f"ket norm {nrm} is not 1")
        object.__setattr__(self, "amplitudes", v)

    def projector(self) -> DenseOperator:
        return DenseOperator(self.space, np.outer(self.amplitudes, self.amplitudes.conj()),
                             hermitian=True, density=True)


def identity(space: HilbertSpace) -> DenseOperator:
    return DenseOperator(space, np.eye(space.dim), hermitian=True)


def kron(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    """Tensor product; the result's factor list is the concatenation."""
    return DenseOperator(
        a.space * b.space,
        np.kron(a.matrix, b.matrix),
        hermitian=a.hermitian and b.hermitian,
        density=a.density and b.density,
    )


def kron_all(ops: list[DenseOperator]) -> DenseOperator:
    out = ops[0]
    for op in ops[1:]:
        out = kron(out, op)
    return out


def partial_trace(rho: DenseOperator, keep) -> DenseOperator:
    """Trace out every tensor factor not listed in ``keep``.

    Parameters
    ----------
    rho : DenseOperator
        Density-flagged operator on a composite space.
    keep : iterable of int
        Indices (into ``rho.space.factor_dims``) of the factors to retain,
        in their original order.

    Returns
    -------
    DenseOperator
        Density on the kept factors; the trace is preserved.
    """
    if not rho.density:
        raise ValueError("partial_trace requires a density-flagged operator")
    dims = rho.space.factor_dims
    n = len(dims)
    keep = sorted(set(int(i) for i in keep))
    if any(i < 0 or i >= n for i in keep):
        raise IndexError(f"keep indices {keep} out of range for {n} factors")
    if len(keep) == n:
        return rho

    tensor = rho.matrix.reshape(dims + dims)
    # einsum integer subscripts: kept factors get distinct row/col labels,
    # traced factors share one label between row and col
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out_idx = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(tensor, row + col, out_idx)
    kept_dim = math.prod(dims[i] for i in keep)
    out_space = HilbertSpace(tuple(dims[i] for i in keep))
    return DenseOperator.density_op(out_space, reduced.reshape(kept_dim, kept_dim), check_spectrum=False)


def herm_propagator(h: DenseOperator, t: float) -> DenseOperator:
    """exp(-i h t) for Hermitian ``h``, via eigendecomposition."""
    if not h.hermitian:
        raise ValueError("herm_propagator requires a Hermitian-flagged operator")
    lam, vec = np.linalg.eigh(h.matrix)
    u = (vec * np.exp(-1j * lam * t)) @ vec.conj().T
    return DenseOperator(h.space, u)


def conjugate_density(u: DenseOperator, rho: DenseOperator) -> DenseOperator:
    """u rho u^dagger, guarding trace preservation."""
    m = u.matrix @ rho.matrix @ u.matrix.conj().T
    tr = np.trace(m)
    if abs(tr - 1.0) > CONJUGATION_TRACE_ATOL:
        raise ValueError(f"conjugation did not preserve the trace (got {tr})")
    # renormalize rounding residue and symmetrize so the density flag is honest
    m = 0.5 * (m + m.conj().T) / tr.real
    return DenseOperator.density_op(rho.space, m, check_spectrum=False)


def thermal_boson_state(omega: float, temperature: float, n_max: int) -> DenseOperator:
    """Truncated Gibbs state of one oscillator mode, diagonal in Fock space.

    Populations are proportional to ``exp(-n omega / T)`` for n = 0..n_max and
    renormalized on the truncated space; T = 0 returns the vacuum projector.
    """
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    space = HilbertSpace((n_max + 1,))
    # exp(-omega/T) underflows to 0 beyond ~745, indistinguishable from T = 0;
    # the guard also avoids 0 * inf = nan when omega/T overflows
    if temperature == 0.0 or omega / temperature > 745.0:
        pops = np.zeros(n_max + 1)
        pops[0] = 1.0
    else:
        pops = np.exp(-np.arange(n_max + 1) * (omega / temperature))
        pops /= pops.sum()
    return DenseOperator(space, np.diag(pops.astype(np.complex128)), hermitian=True, density=True)


def gibbs_tail_weight(omega: float, temperature: float, n_max: int) -> float:
    """Weight of the untruncated Gibbs distribution beyond level ``n_max``."""
    if temperature == 0.0:
        return 0.0
    r = math.exp(-omega / temperature)
    return r ** (n_max + 1)


def n_max_for_tail(omega: float, temperature: float) -> int:
    """Smallest level, at least N_MAX_FLOOR, whose untruncated tail weight is below TAIL_WEIGHT_TARGET."""
    if temperature == 0.0:
        return N_MAX_FLOOR
    n = math.ceil(math.log(TAIL_WEIGHT_TARGET) / (-omega / temperature)) - 1
    return max(N_MAX_FLOOR, n)


def boson_ops(n_max: int) -> tuple[DenseOperator, DenseOperator, DenseOperator]:
    """(a, a_dagger, number) on the (n_max+1)-dimensional truncated Fock space."""
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    space = HilbertSpace((n_max + 1,))
    a = np.diag(np.sqrt(np.arange(1, n_max + 1)).astype(np.complex128), k=1)
    num = np.diag(np.arange(n_max + 1).astype(np.complex128))
    return (
        DenseOperator(space, a),
        DenseOperator(space, a.conj().T),
        DenseOperator(space, num, hermitian=True),
    )


_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

QUBIT = HilbertSpace((2,))


def pauli(axis: str) -> DenseOperator:
    """Single-qubit Pauli operator; ``axis`` is one of 'x', 'y', 'z'."""
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    return DenseOperator(QUBIT, _PAULI[axis], hermitian=True)


def embed(op: DenseOperator, factor_index: int, space: HilbertSpace) -> DenseOperator:
    """Place a single-factor operator into ``space`` with identity padding."""
    if op.space.n_factors != 1:
        raise ValueError("embed expects a single-factor operator")
    i = int(factor_index)
    dims = space.factor_dims
    if i < 0 or i >= len(dims):
        raise IndexError(f"factor index {i} out of range for {len(dims)} factors")
    if dims[i] != op.space.dim:
        raise ValueError(f"operator dimension {op.space.dim} does not match factor {i} (dim {dims[i]})")
    left = math.prod(dims[:i])
    right = math.prod(dims[i + 1:])
    m = np.kron(np.kron(np.eye(left), op.matrix), np.eye(right))
    return DenseOperator(space, m, hermitian=op.hermitian)


def purify(rho_s: DenseOperator) -> Ket:
    """A purification of ``rho_s`` on ancilla (one factor of dim n) x system.

    Built from the eigendecomposition as sum_i sqrt(p_i) |i>_ancilla |v_i>_sys
    with eigenvalues in descending order, so tracing out the ancilla (factor 0)
    reproduces ``rho_s``.
    """
    if not rho_s.density:
        raise ValueError("purify requires a density-flagged operator")
    n = rho_s.space.dim
    p, vec = np.linalg.eigh(rho_s.matrix)
    if p.min() < DENSITY_EIG_FLOOR:
        raise ValueError(f"input has negative eigenvalue {p.min():.3e}")
    order = np.argsort(p)[::-1]
    p = np.clip(p[order], 0.0, None)
    p[p < 1e-14 * p.max()] = 0.0  # sqrt would amplify eigensolver noise in null directions
    vec = vec[:, order]
    amp = (np.sqrt(p)[:, None] * vec.T).reshape(-1)
    amp /= np.linalg.norm(amp)
    return Ket(HilbertSpace((n,) + rho_s.space.factor_dims), amp)


def _split_system_env(h_i: DenseOperator, rho_s: DenseOperator, rho_env: DenseOperator) -> tuple[int, int]:
    """Validate the [system factors..., env factors...] layout; return (ds, de)."""
    sys_dims = rho_s.space.factor_dims
    env_dims = rho_env.space.factor_dims
    if h_i.space.factor_dims != sys_dims + env_dims:
        raise ValueError(
            f"coupling factors {h_i.space.factor_dims} are not system {sys_dims} followed by env {env_dims}"
        )
    return rho_s.space.dim, rho_env.space.dim


def _diagonal(rho: DenseOperator) -> np.ndarray | None:
    """The diagonal of ``rho`` when every off-diagonal entry is zero, else None."""
    p = np.diagonal(rho.matrix)
    return p if np.count_nonzero(rho.matrix) == np.count_nonzero(p) else None


def _env_mean_square(rho_env: DenseOperator, b: np.ndarray) -> float:
    """tr[rho_env B^2] for an operator ``B`` on the environment."""
    p = _diagonal(rho_env)
    if p is not None:
        return float(np.sum(p[:, None] * b * b.T).real)
    return float(np.sum((rho_env.matrix @ b) * b.T).real)


def _nonnegative(value: float, what: str) -> float:
    """A variance-form quantity: rounding residue below 0 is clamped to 0, below VARIANCE_NEGATIVE_ERROR it raises."""
    if value < VARIANCE_NEGATIVE_ERROR:
        raise ValueError(f"{what} is negative beyond rounding noise: {value:.3e}")
    return max(value, 0.0)


def _second_moment(h_i: DenseOperator, rho_s: DenseOperator, rho_env: DenseOperator) -> float:
    """m2 = tr[(rho_s x rho_env) H^2], without forming the joint state or any n x n product.

    With ``W = (rho_s x rho_env) H`` and ``H^T = H*`` (H is Hermitian),
    ``m2 = sum conj(H) W``.  ``W`` is built over blocks of environment rows,
    one tensor factor at a time: rho_s is one ``(ds x ds) @ (ds x .)``
    product per block, and a diagonal rho_env scales that block by its
    weights (the two factors commute), where any other rho_env takes one
    product per block first.  The work is ``n^2 ds`` or ``n^2 (ds + de)``,
    and a block's arrays hold at most MOMENT_BLOCK_ELEMENTS entries (or one
    environment row).
    """
    if not (h_i.hermitian and rho_s.density and rho_env.density):
        raise ValueError("the second moment requires Hermitian coupling and density-flagged states")
    ds, de = _split_system_env(h_i, rho_s, rho_env)
    n = ds * de
    h = h_i.matrix.reshape(ds, de, n)
    p = _diagonal(rho_env)
    # the non-diagonal path holds two block arrays at once: the rho_env product and W
    step = max(1, MOMENT_BLOCK_ELEMENTS // (ds * n * (1 if p is not None else 2)))
    m2 = 0.0
    for e in range(0, de, step):
        rows = h[:, e:e + step]
        if p is not None:
            w = (rho_s.matrix @ rows.reshape(ds, -1)).reshape(rows.shape)
            w *= p[e:e + step, None]
        else:
            w = (rho_s.matrix @ np.matmul(rho_env.matrix[e:e + step], h).reshape(ds, -1)).reshape(rows.shape)
        m2 += sum(np.vdot(rows[s], w[s]) for s in range(ds)).real
        del w  # so the next block's W is not made while this one is alive
    return float(m2)
