"""Brute-force ground truth for the closed-form damping coefficients.

The full system x environment state is evolved exactly, the three fidelity
definitions are evaluated directly (``fidelity_curve``), and a short-time
quartic fit extracts the numerical (c1, c2) for comparison against the closed
forms.  What depends on the kind comes from the kind table in ``fidelity``;
a ``factorized-rate`` scenario fits the entanglement fidelity
(``Scenario.fidelity_kind``).  ``resolve_n_max`` is the truncation rule for
every model: a requested level, or else the tail-weight policy
``tail_n_max``, guarded by ``dimension_cap``.  ``factorization_check`` is the
one test of the paper's identity (``factorized_c2`` under the discrete
correlation = ``closed_form_c2``, both of the entanglement kind) on a
truncated model, to a tolerance set by the truncation tail.  A row whose
closed form is at most FLAT_C2_FRACTION of the model's coupling scale is
flat, and is judged against that scale; only a model without coupling is
judged on an absolute floor.

All three fidelities go through one core.  Each input is a weighted set of
system densities (the kind's members: io the input's projector; entanglement
rho_s itself, on which alone its fidelity depends; average one projector per
ensemble state), and the environment's Fock states, weighted by sqrt(p), are
the columns that evolution propagates instead of a full density (weights at
or below ENV_WEIGHT_CUTOFF are dropped).  The total Hamiltonian is
diagonalised per parity sector: every coupling term flips one qubit and adds
or removes one boson, so (excited qubits + total boson number) mod 2 is
conserved and the two sectors are diagonalised as independent half-size
blocks.  ``ModelMemo`` holds the current model's diagonalisation: the
consecutive scenarios of a verify run on one model share it, at any
temperature, and a model the run comes back to is diagonalised again.
Memory, for a model of dimension n: the model keeps one n x n complex matrix
(the coupling) and its free parts as two energy vectors.  Each sector's n/2
x n/2 block is the coupling's block with the free energies on its diagonal
(``ModelHamiltonian.block``), made real and diagonalised in turn, so H_total
is never formed (only ``evolve_exact``, the tests' dense reference, forms
it), and the eigenvectors stay as one real n x n/2 array, each basis state's
row in its own sector's eigenbasis, for as long as the model is in use.  Per
curve, each sector keeps only the environment rows and Fock columns that the
input's support reaches in it: a single-parity input does a quarter of the
dense product's work.  A curve keeps those rows and its members' densities.
The mirror-basis mixing of a sector block, the propagation and the Taylor
terms work in chunks sized so that their temporaries hold BATCH_ELEMENTS
complex entries together (numpy's own copies keep a chunk's peak below about
twice that), so the oracle's peak is the model, its eigenvectors, one sector
block (while it is diagonalised) or one curve's parts, plus about one
budget, whatever the model's size.  Propagation and the Taylor terms share
one product per part and chunk, the eigenvector rows against the density
applied to the columns' eigenvector rows, weighted by exp(-i (lam - h0) t)
or its Taylor coefficients, and the sectors' amplitudes are summed before
|.|^2 is taken.  A row is fitted once: the same eigenpairs give the exact
Taylor coefficients c1..c6 of 1 - F(t), and ``t_max`` minimises the fitted
c2's error bound (the t^5 and t^6 bias plus sample rounding), which must
stay below the row's pass tolerance or raise ConvergenceError.

The +/-k mirror symmetry that makes Omega^2(d) real also gives H_total an
antiunitary symmetry T = (D x P) K with T^2 = 1 (``_MirrorBasis``); every
``BathModeSet`` pairs its modes with exact mirrors one-to-one, so every
model has it.  In the T-invariant basis W = diag(u^popcount(s)) x W_env
every sector block is real symmetric, so ``eigh`` runs on real blocks, the
eigenvectors ``vec`` are real, and the curves take their inputs into W: a
density rho becomes D^dag rho D, and the Fock columns need no W_env, which
mixes only mirrored Fock states, on which the environment state's weights
are equal (``_env_weights``).  A block whose imaginary part in W exceeds
HERMITIAN_ATOL raises ValueError.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ConvergenceError
from .fidelity import (FIDELITY_KINDS, C2_ZERO_FLOOR, closed_form_c2, factorized_c2, kind_members,
                       kind_state, _density)
from .model import (
    BathModeSet,
    ModelHamiltonian,
    QubitLattice,
    build_hamiltonian,
    correlation_fn_discrete,
)
from .operators import (
    HERMITIAN_ATOL,
    TAIL_WEIGHT_TARGET,
    DenseOperator,
    HilbertSpace,
    conjugate_density,
    gibbs_tail_weight,
    herm_propagator,
    n_max_for_tail,
    _diagonal,
    _second_moment,
)

FIT_POINTS = 9
FIT_RESIDUAL_TARGET = 1e-10
TAYLOR_ORDER = 6  # c5 and c6 bias the quartic fit's c2
# rounding of one 1 - F sample: F sums |amplitude|^2 terms of order one
SAMPLE_ROUNDING = 1e-15
FIT_REL_TOL = 1e-2
FACTORIZATION_REL_TOL = 1e-6
FLAT_C2_FRACTION = 1e-12
FLAT_PASS_FRACTION = 1e-4
C1_PASS_FRACTION = 1e-4
ENV_WEIGHT_CUTOFF = 1e-15
# complex entries (2 MiB) that the temporaries of one step of any of the oracle's chunked loops are sized to
# hold together; what stays resident (the model, its eigenvectors, a curve's parts) is not counted
BATCH_ELEMENTS = 1 << 17
DEFAULT_DIM_CAP = 4096
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class FidelityCurve:
    """Sampled fidelity values starting from F(0) = 1."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape:
            raise ValueError("times and values must be 1D arrays of equal length")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must increase strictly from 0")
        if abs(v[0] - 1.0) > 1e-12:
            raise ValueError(f"F(0) = {v[0]} is not 1")
        if v.min() < -1e-9 or v.max() > 1.0 + 1e-9:
            raise ValueError("fidelity values leave [0, 1]")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ExpansionEstimate:
    """Fitted damping coefficients and the fit quality that produced them."""

    c1_hat: float
    c2_hat: float
    residual: float


def _fit_design(s: np.ndarray) -> np.ndarray:
    """The fit's columns s, s^2, s^3, s^4; F(0) = 1 exactly, so there is no constant."""
    return np.column_stack([s, s ** 2, s ** 3, s ** 4])


@functools.cache
def _c2_row_weights() -> tuple[float, float, float]:
    """(beta5, beta6, gamma): the fitted s^2 coefficient's weights on s^5 and s^6, and its L1 gain on sample
    errors.  Made on first use, since a LAPACK call at import would cost every command its buffers."""
    s = np.linspace(0.0, 1.0, FIT_POINTS)
    row = np.linalg.pinv(_fit_design(s))[1]
    return float(row @ s ** 5), float(row @ s ** 6), float(np.abs(row).sum())


def evolve_exact(model: ModelHamiltonian, rho0: DenseOperator, t: float) -> DenseOperator:
    """U rho0 U^dag with U = exp(-i (h0 + h_i + h_env) t)."""
    if rho0.space != model.space:
        raise ValueError("initial state does not live on the model space")
    u = herm_propagator(model.total(), t)
    return conjugate_density(u, rho0)


class _MirrorBasis(NamedTuple):
    """W = diag(u^popcount(s)) x W_env: the basis in which every parity block of H_total is real symmetric.

    H_total has the antiunitary symmetry T = U K, with K complex conjugation
    and U = D x P: P swaps each mode factor with its exact mirror (k <-> -k),
    and D = x_l diag(1, u^2) for the coupling phase u = (lambda1 + i lambda2) /
    |lambda1 + i lambda2| (u = 1 without coupling).  Then U H* U^dag = H and
    U U* = 1, and W is T-invariant (U W* = W), so W^dag H W is real.  W_env
    sends a pair e < sigma(e) of mirrored environment states to
    (|e> + |sigma e>)/sqrt2 and i(|e> - |sigma e>)/sqrt2 and keeps a fixed
    point sigma(e) = e.  P keeps the total boson number, so W maps each parity
    sector onto itself and a basis label (s, e) keeps its parity.
    """

    phase: np.ndarray  # u^popcount(s) per system basis state
    mirror: np.ndarray  # sigma(e) per environment basis state


def _mirror_basis(model: ModelHamiltonian) -> _MirrorBasis:
    """The model's T-invariant basis, from its modes' exact one-to-one mirror pairing."""
    dims = model.env_space().factor_dims
    occupations = np.indices(dims).reshape(len(dims), -1)
    mirror = np.ravel_multi_index(tuple(occupations[list(model.modes.mirror_pairing())]), dims)
    lam = complex(model.lattice.lambda1, model.lattice.lambda2)
    u = lam / abs(lam) if lam else 1.0 + 0.0j
    popcount = np.indices(model.system_space().factor_dims).reshape(model.lattice.n_qubits, -1).sum(axis=0)
    return _MirrorBasis(u ** popcount, mirror)


def _chunk(per_item: int) -> int:
    """How many items of ``per_item`` complex entries each fit in BATCH_ELEMENTS together; at least one."""
    return max(1, BATCH_ELEMENTS // max(per_item, 1))


def _mix_pairs(m: np.ndarray, lo: np.ndarray, hi: np.ndarray, factor: complex) -> None:
    """In place on the rows of ``m``: row lo becomes (lo + hi)/sqrt2 and row hi becomes factor (lo - hi)/sqrt2.

    The pairs go through in chunks whose three row copies fit in BATCH_ELEMENTS.
    """
    step = _chunk(3 * m.shape[1])
    for i in range(0, len(lo), step):
        l, h = lo[i:i + step], hi[i:i + step]
        a, b = m[l], m[h]
        a *= _SQRT_HALF
        b *= _SQRT_HALF
        m[l] = a + b
        a -= b
        a *= factor
        m[h] = a


def _real_block(h: np.ndarray, idx: np.ndarray, basis: _MirrorBasis) -> np.ndarray:
    """The real part of W^dag h W for the sector block h = H[idx, idx], made in place on ``h`` and returned
    as a contiguous copy: a caller that holds no other reference to ``h`` frees it before ``eigh``.

    An imaginary part above HERMITIAN_ATOL raises ValueError.
    """
    de = len(basis.mirror)
    s, e = np.divmod(idx, de)
    phase = basis.phase[s]
    h *= phase.conj()[:, None]
    h *= phase
    lo = np.flatnonzero(e < basis.mirror[e])
    hi = np.searchsorted(idx, s[lo] * de + basis.mirror[e[lo]])  # a mirror pair shares its sector
    _mix_pairs(h, lo, hi, -1j)  # W_env^dag on the rows
    _mix_pairs(h.T, lo, hi, 1j)  # W_env on the columns
    imag = max(h.imag.max(), -h.imag.min())
    if imag > HERMITIAN_ATOL:
        raise ValueError(f"a sector block is not real in the mirror basis (max imaginary part {imag:.3e})")
    return np.ascontiguousarray(h.real)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for real ``a`` and complex ``b``: one real product on b's (re, im) float view, half zgemm's flops."""
    b = np.ascontiguousarray(b)
    return (a @ b.view(np.float64)).view(np.complex128)


class _Propagated:
    """The eigendecomposition of H_total, one parity sector at a time, shared by every curve on the model.

    H_total conserves ``model.parity()``, so each sector's block is gathered
    from the model (``model.block``) and diagonalised on its own; the
    full-size H_total is never formed.  Flipping qubit 0 maps one sector onto
    the other, so both hold n/2 states.  ``lam`` holds the whole spectrum
    with the even sector first.  ``vec`` is (n, n/2): row i holds basis state
    i's coefficients in its own sector's eigenbasis.  ``sectors`` holds, per
    sector (even, then odd), its basis indices and its slice of ``lam``.  A
    Hamiltonian with an entry between the sectors, or a sector block that is
    not Hermitian, or not real in W, raises ValueError.

    ``basis`` is the T-invariant basis W (``_MirrorBasis``): each block is
    diagonalised as the real symmetric W^dag H W, ``vec`` holds its real
    eigenvectors Q, and basis state i is W's column i, so H's eigenvectors
    are W Q.  The curves (``_Curve``) take their inputs into W.
    """

    def __init__(self, model: ModelHamiltonian):
        parity = model.parity()
        even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)
        if np.any(model.block(even, odd)) or np.any(model.block(odd, even)):
            raise ValueError("H_total couples the two parity sectors")
        n = len(parity)
        self.lam = np.empty(n)
        self.sectors = [(even, slice(0, len(even))), (odd, slice(len(even), n))]
        self.basis = _mirror_basis(model)
        self.vec = np.empty((n, n // 2))
        for idx, cols in self.sectors:
            # the complex block lives only inside _real_block, and the next sector's block is built without this one
            block = _real_block(DenseOperator.hermitian_op(HilbertSpace((len(idx),)), model.block(idx, idx)).matrix,
                                idx, self.basis)
            self.lam[cols], self.vec[idx] = np.linalg.eigh(block)
            del block
        self.h0_diag = model.h0_diag
        ds = len(self.h0_diag)
        self.parity = parity.reshape(ds, n // ds)  # (system, env)
        self.rows = self.vec.reshape(ds, n // ds, n // 2)  # (system, env, sector eigenvector)

    def advance(self, curve: _Curve, t) -> np.ndarray:
        """The curve's F at every time in ``t`` (a scalar or 1D array); F(0) = 1 exactly, unpropagated.

        F = sum_b p_b sum_{e,c} p_c |tr[rho_b exp(i h0 t) <e| exp(-i H t) |e_c>]|^2
        over the member densities rho_b and the Fock columns e_c, with the
        free co-rotation.  Each sector part adds sum_{s,n} rows[s, e, n]
        exp(-i (lam_n - h0_s) t) b[s, n, c] into the member's amplitudes
        w[t, e, c] before |w|^2 is taken (``_amplitudes``; a mixed-parity
        input feeds both sectors into the same (e, c)).  The times go through
        in spans whose phases fit in BATCH_ELEMENTS, each span's columns in
        chunks.
        """
        times = np.atleast_1d(np.asarray(t, dtype=float))
        live = times[times != 0.0]
        f = np.zeros(len(live))
        de, m = self.rows.shape[1], curve.env_cols
        for weight, parts in curve.members:
            span = _chunk(sum(p.gaps.size for p in parts))  # times whose phases fit in the budget
            for i in range(0, len(live), span):
                tc = live[i:i + span]
                phases = [np.exp(-1j * np.multiply.outer(p.gaps, tc)) for p in parts]
                for w in _amplitudes(parts, phases, de, m):
                    # pairwise summation over each time's (e, m): a running row sum loses the fit's precision
                    f[i:i + span] += weight * np.sum(np.abs(w) ** 2, axis=(1, 2))
        out = np.ones(times.shape)
        out[times != 0.0] = f
        return out


def _amplitudes(parts: list[_Part], coefs: list[np.ndarray], de: int, m: int):
    """w[q, e, c] = sum over the parts of sum_{s,n} rows[s, e, n] coef[s, n, q] b[s, n, c], per chunk of the
    Fock columns c (yielded in order), where b[s, n, c] = sqrt(p_c) sum_s' G[s, s'] rows[s', e_c, n] and each
    part has one coefficient array, shaped (support, sector, q).

    A chunk's temporaries fit in BATCH_ELEMENTS, at one column or more; each part is one real product on
    the (re, im) view of its coefficients times b.
    """
    q = coefs[0].shape[2]
    # per column: w and |w|^2, then one part's column rows (real, then complex), b, coefficients times b,
    # product and the product's gather from w
    columns = min(m, _chunk(2 * q * de + max((q + 3) * s * n + 2 * q * e for s, e, n in (p.rows.shape for p in parts))))
    for c0 in range(0, m, columns):
        w = np.zeros((q, de, min(columns, m - c0)), dtype=np.complex128)
        for part, coef in zip(parts, coefs):
            j0, j1 = np.searchsorted(part.ket_cols, (c0, c0 + w.shape[2]))
            if j0 == j1:
                continue
            s, e, n = part.rows.shape
            env_major = part.rows.transpose(1, 0, 2)  # (e, s, n), contiguous
            x = env_major[part.col_rows[j0:j1]]
            x *= part.col_amps[j0:j1, None, None]
            b = np.matmul(part.gram, x).transpose(1, 2, 0)  # (s, n, c)
            y = _product(env_major.reshape(e, s * n), (coef[:, :, :, None] * b[:, :, None, :]).reshape(s * n, -1))
            w[_at(part.env_rows, part.ket_cols[j0:j1] - c0)] += y.reshape(e, q, j1 - j0).transpose(1, 0, 2)
        yield w


def _at(rows: np.ndarray, cols: np.ndarray) -> tuple:
    """The index of w[:, rows, cols] for ascending, non-empty ``rows`` and ``cols``; a contiguous run is a
    slice, so a part that covers its chunk adds in place, without a gather and a scatter."""
    rows, cols = (slice(i[0], i[-1] + 1) if i[-1] - i[0] + 1 == len(i) else i for i in (rows, cols))
    if not isinstance(rows, slice) and not isinstance(cols, slice):
        rows = rows[:, None]
    return slice(None), rows, cols


def _env_weights(rho_env: DenseOperator, mirror: np.ndarray) -> np.ndarray:
    """The environment state's Fock weights.  It must be diagonal in the Fock basis, with weights on each
    mirror pair equal to within ENV_WEIGHT_CUTOFF, as every thermal state is (W_env then leaves it as it is);
    any other state raises ValueError."""
    p = _diagonal(rho_env)
    if p is None:
        raise ValueError("the environment state must be diagonal in the Fock basis")
    gap = np.abs(p - p[mirror]).max()
    if gap > ENV_WEIGHT_CUTOFF:
        raise ValueError(f"the environment state's weights on a mirror pair differ by {gap:.3e}")
    return p.real


class _Part(NamedTuple):
    """One sector's share of one class of a member's support states (see ``_Curve``)."""

    gaps: np.ndarray  # lam_n - h0_s: the sector's eigenvalues less the support's free energies, (support, sector)
    gram: np.ndarray  # G = (D^dag rho D)^T on the class's support, (support, support)
    # eigenvector rows on the support and the kept environment rows, (support, env, sector); stored env-major,
    # so that its (env, support x sector) matrix is a view
    rows: np.ndarray
    env_rows: np.ndarray  # the kept environment rows, ascending: where the part lands in w[., e, c]
    ket_cols: np.ndarray  # the kept Fock columns, as indices among the curve's columns, ascending
    col_rows: np.ndarray  # each kept column's Fock state, as a position in env_rows
    col_amps: np.ndarray  # each kept column's sqrt(p)


class _Curve:
    """Exact F(t) of one fidelity kind on one model.

    Every kind is a weighted set of system densities (``kind_members``):
    ``io`` is the input's projector, ``entanglement`` the density itself and
    ``average`` one projector per ensemble state.  A member enters the mirror
    basis W (``_Propagated.basis``) as G = (D^dag rho D)^T, and the
    environment as its Fock columns, which need no W_env (``_env_weights``).

    ``members`` keeps ``(weight, parts)`` per member.  The member's support
    splits into its even and its odd states when G has no entry between
    them, and is one class otherwise; each class gets one ``_Part`` per
    parity sector that its columns reach.  A part keeps only the environment
    rows its support reaches in the sector and the Fock columns among them:
    a single-parity class keeps half of each, so its two parts do a quarter
    of the dense product's work.
    """

    def __init__(self, prop: _Propagated, model: ModelHamiltonian, kind: str, state, rho_env: DenseOperator):
        system = model.system_space()
        if rho_env.space != model.env_space():
            raise ValueError("environment state does not live on the mode space")
        p = _env_weights(rho_env, prop.basis.mirror)
        states = np.flatnonzero(p > ENV_WEIGHT_CUTOFF)
        amps = np.sqrt(p[states])
        self.prop = prop
        self.env_cols = len(states)
        self.members = []
        system_parity = prop.parity[:, 0]  # environment index 0 is the boson vacuum
        phase = prop.basis.phase
        for weight, psi in kind_members(kind, state):
            rho = _density(psi)
            if rho.space != system or not rho.density:
                raise ValueError("input state is not a density-flagged state on the system space")
            gram = phase[:, None] * rho.matrix.T * phase.conj()  # (D^dag rho D)^T
            live = (gram != 0) | (gram.T != 0)
            support = np.flatnonzero(np.any(live, axis=0))
            even, odd = (support[system_parity[support] == q] for q in (0, 1))
            classes = [support] if np.any(live[np.ix_(even, odd)]) else [even, odd]
            self.members.append((weight, [part for cls in classes if len(cls)
                                          for part in _sector_parts(prop, gram[np.ix_(cls, cls)], cls, states, amps)]))
        self.width = sum(len(part.ket_cols) for _, parts in self.members for part in parts)

    @property
    def shape(self) -> tuple[int, int]:
        """(n, columns propagated, summed over the parts); perfbench's tracer reads it as ``advance``'s width."""
        return self.prop.vec.shape[0], self.width

    def curve(self, times) -> FidelityCurve:
        times = np.asarray(times, float)
        return FidelityCurve(times, self.prop.advance(self, times))


def _sector_parts(prop: _Propagated, gram: np.ndarray, support: np.ndarray, states: np.ndarray,
                  amps: np.ndarray) -> list[_Part]:
    """The parts of one class of support states, with ``gram`` its G; ``states`` are the curve's Fock columns
    (ascending environment states) and ``amps`` their sqrt(p).

    Each sector keeps the environment rows a support entry reaches in it and
    the columns whose Fock state is one of them: no other column reaches the
    sector.  A sector with no such column gets no part.
    """
    parts = []
    for p, (_, cols) in enumerate(prop.sectors):
        in_sector = prop.parity[support] == p
        env_rows = np.flatnonzero(np.any(in_sector, axis=0))
        ket_cols = np.flatnonzero(np.isin(states, env_rows))
        if len(ket_cols) == 0:
            continue
        # a row of the other sector holds that sector's coefficients: zero it
        rows = prop.rows[support, env_rows[:, None]]  # (env, support, sector)
        rows[~in_sector[:, env_rows].T] = 0.0
        parts.append(_Part(prop.lam[cols] - prop.h0_diag[support, None], gram, rows.transpose(1, 0, 2), env_rows,
                           ket_cols, np.searchsorted(env_rows, states[ket_cols]), amps[ket_cols]))
    return parts


def taylor_coefficients(prop: _Propagated, curve: _Curve) -> np.ndarray:
    """c_0..c_TAYLOR_ORDER with 1 - F(t) = sum_k c_k t^k, from the parts ``prop.advance`` propagates.

    Expanding ``advance``'s phases exp(-i (lam_n - h0_s) t) gives the amplitude's order-k term w_k, with the
    coefficients (-i (lam_n - h0_s))^k / k! in their place, for every order in one product (``_amplitudes``);
    then F_k = sum_a <w_a, w_{k-a}> over the weighted members, c_0 = 1 - F_0 and c_k = -F_k.  F_k sums over
    (e, c), so the Fock columns go through in chunks.
    """
    k = np.arange(TAYLOR_ORDER + 1)
    inv_fact = 1.0 / np.cumprod(np.maximum(k, 1))
    f = np.zeros(len(k))
    for weight, parts in curve.members:
        orders = [(-1j * p.gaps)[:, :, None] ** k * inv_fact for p in parts]
        for w in _amplitudes(parts, orders, prop.rows.shape[1], curve.env_cols):
            v = w.reshape(len(k), -1).view(np.float64)  # Re <w_a, w_b> is a dot product of (re, im) pairs
            gram = v @ v.T
            f += weight * np.bincount(np.add.outer(k, k).ravel(), gram.ravel())[:len(k)]
    return (k == 0) - f


def fidelity_curve(model: ModelHamiltonian, kind: str, state, rho_env: DenseOperator, times) -> FidelityCurve:
    """Exact fidelity curve of one kind on the given time grid.

    ``rho_env`` must be diagonal in the Fock basis, with equal weights on
    mirrored Fock states to within ENV_WEIGHT_CUTOFF, as every thermal state
    is; any other state raises ValueError.
    """
    return _Curve(_Propagated(model), model, kind, state, rho_env).curve(times)


def estimate_c2(curve: FidelityCurve) -> ExpansionEstimate:
    """Least-squares fit of 1 - c1 t - c2 t^2 - c3 t^3 - c4 t^4.

    The quartic terms absorb third/fourth-order contamination so c2 is
    unbiased to the fit window's cubic truncation.  Requires a uniform grid
    starting at 0.
    """
    t = curve.times
    if len(t) < 6:
        raise ValueError(f"need at least 6 samples, got {len(t)}")
    steps = np.diff(t)
    if np.abs(steps - steps[0]).max() > 1e-9 * steps[0]:
        raise ValueError("fit requires a uniform time grid")
    t_max = float(t[-1])
    design = _fit_design(t / t_max)
    y = 1.0 - curve.values
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = float(np.abs(design @ sol - y).max())
    return ExpansionEstimate(
        c1_hat=float(sol[0] / t_max),
        c2_hat=float(sol[1] / t_max ** 2),
        residual=residual,
    )


def _fit_window(c: np.ndarray) -> tuple[float, float]:
    """(t_max, E): the minimiser and minimum of the fitted c2's error bound, from Taylor coefficients ``c``.

    E(t) = a t^3 + b t^4 + gamma SAMPLE_ROUNDING / t^2 with a = |beta5 c5| and
    b = |beta6 c6|; E' = 0 at the positive root of 4b t^6 + 3a t^5 - 2 gamma SAMPLE_ROUNDING.
    """
    beta5, beta6, gamma = _c2_row_weights()
    a, b = abs(beta5 * c[5]), abs(beta6 * c[6])
    noise = gamma * SAMPLE_ROUNDING
    roots = np.roots([4.0 * b, 3.0 * a, 0.0, 0.0, 0.0, 0.0, -2.0 * noise])
    real = roots.real[(roots.real > 0.0) & (np.abs(roots.imag) <= 1e-9 * np.abs(roots))]
    if len(real) == 0:
        raise ConvergenceError("c5 = c6 = 0: no fit window minimises the c2 error bound")
    t = float(real.max())
    return t, a * t ** 3 + b * t ** 4 + noise / t ** 2


@dataclass(frozen=True)
class Scenario:
    """One verification case: a physical model plus an input and a path."""

    name: str
    kind: str  # io | entanglement | average | factorized-rate
    lattice: QubitLattice
    modes: BathModeSet
    state: object  # Ket | DenseOperator | Ensemble, matching the kind
    n_max: int | None = None

    VALID_KINDS = FIDELITY_KINDS + ("factorized-rate",)

    def __post_init__(self):
        if self.kind not in self.VALID_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        # a check only: the scenario keeps its state as given
        kind_state(self.fidelity_kind, self.state)

    @property
    def fidelity_kind(self) -> str:
        """The kind table's name for this scenario: a factorized-rate row fits the entanglement fidelity."""
        return "entanglement" if self.kind == "factorized-rate" else self.kind


@dataclass(frozen=True)
class VerifyReport:
    scenario: str
    kind: str
    c2_analytic: float
    c2_fitted: float
    c1_fitted: float
    rel_err: float
    bound: float  # B: the fit's c2 error bound, in rel_err's units
    residual: float
    t_max: float
    n_max: int
    tail_weight: float
    c2_factorized: float | None
    factorization_rel_err: float | None
    passed: bool


def tail_n_max(modes: BathModeSet) -> int:
    """The tail-weight policy's level: every mode's Gibbs tail beyond it is below TAIL_WEIGHT_TARGET."""
    return max(n_max_for_tail(m.omega, modes.temperature) for m in modes.modes)


def dimension_cap() -> int:
    """Total-dimension guard, overridable through DECOLAB_NMAX_CAP."""
    raw = os.environ.get("DECOLAB_NMAX_CAP")
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ConfigError("DECOLAB_NMAX_CAP", f"not an integer: {raw!r}") from exc
    if cap < 2:
        raise ConfigError("DECOLAB_NMAX_CAP", f"must be >= 2, got {cap}")
    return cap


def resolve_n_max(modes: BathModeSet, n_qubits: int, requested: int | None) -> int:
    """The truncation rule: the requested level, or else ``tail_n_max``, guarded by ``dimension_cap()``.

    An explicit request is honored as long as it fits.  A policy-derived level
    that does not fit is an error rather than a silent under-truncation: the
    closed forms are only tail-converged at the policy level.
    """
    dim_cap = dimension_cap()
    n = tail_n_max(modes) if requested is None else int(requested)
    dim = (2 ** n_qubits) * (n + 1) ** modes.n_modes
    if dim > dim_cap:
        what = f"requested n_max={n}" if requested is not None else \
            f"tail-weight policy (< {TAIL_WEIGHT_TARGET:g}) needs n_max={n}"
        raise ConvergenceError(
            f"{what}, total dimension {dim} exceeds the cap {dim_cap}; "
            "set a smaller n_max explicitly or raise DECOLAB_NMAX_CAP"
        )
    return n


def _worst_tail(modes: BathModeSet, n_max: int) -> float:
    return max(gibbs_tail_weight(m.omega, modes.temperature, n_max) for m in modes.modes)


def factorization_check(model: ModelHamiltonian, rho_env: DenseOperator,
                        rho_s: DenseOperator) -> tuple[float, float, float, bool]:
    """The paper's identity on one truncated model: (factorized rate, variance form, relative gap, pass).

    The gap must be below FACTORIZATION_REL_TOL when the truncation tail is
    converged below TAIL_WEIGHT_TARGET, and below FIT_REL_TOL otherwise.
    """
    rate = float(factorized_c2("entanglement", rho_s, model.lattice,
                               lambda d: correlation_fn_discrete(model.modes, d)))
    vf = closed_form_c2("entanglement", rho_s, model.h_i, rho_env)
    rel = abs(rate - vf) / max(vf, C2_ZERO_FLOOR)
    tol = FACTORIZATION_REL_TOL if _worst_tail(model.modes, model.n_max) < TAIL_WEIGHT_TARGET else FIT_REL_TOL
    return rate, vf, rel, rel < tol


def _scale_moment(model: ModelHamiltonian, rho_env: DenseOperator) -> float:
    """2 <H_I^2> against the maximally mixed system: the c2 magnitude scale.

    State-independent on purpose: subdecoherent inputs make the state's own
    second moment vanish even though the fit window still sees higher-order
    decay, and flat-scenario tolerances must be judged against the coupling
    strength, not against that zero.
    """
    ds = model.system_space().dim
    mixed = DenseOperator.density_op(model.system_space(), np.eye(ds) / ds, check_spectrum=False)
    return max(2.0 * _second_moment(model.h_i, mixed, rho_env), 0.0)


class ModelMemo:
    """The current truncated model's oracle state, shared by consecutive scenarios of one verify run.

    It holds one model and its eigendecomposition, keyed without the temperature, on which the Hamiltonian
    does not depend, and one temperature's thermal state and scale moment.  Another model drops both before
    it is built, so a run never holds two dense models, and a list that comes back to a model rebuilds it.
    """

    def __init__(self):
        self._spectrum: tuple | None = None  # ((lattice, modes.modes, n_max), (model, eigendecomposition))
        self._run: tuple | None = None  # ((lattice, modes, n_max), what ``get`` returns)

    def get(self, lattice: QubitLattice, modes: BathModeSet, n_max: int) -> tuple:
        """(model, thermal environment state, scale moment, eigendecomposition)."""
        key, shared = (lattice, modes, n_max), (lattice, modes.modes, n_max)
        if self._spectrum is None or self._spectrum[0] != shared:
            self._spectrum = self._run = None  # the held model goes before the next one is built
            model = build_hamiltonian(lattice, modes, n_max)
            self._spectrum = shared, (model, _Propagated(model))
        if self._run is None or self._run[0] != key:
            model, prop = self._spectrum[1]
            if model.modes != modes:  # the same Hamiltonian at another temperature
                model = replace(model, modes=modes)
            rho_env = model.thermal_env_state()
            self._run = key, (model, rho_env, _scale_moment(model, rho_env), prop)
        return self._run[1]


def verify_expansion(scenario: Scenario, check_convergence: bool = False,
                     memo: ModelMemo | None = None) -> VerifyReport:
    """Compare the closed-form damping coefficient against the fitted oracle.

    For ``factorized-rate`` scenarios the analytic side is the spatial
    correlation formula, and ``factorization_check`` must pass as well.

    ``check_convergence`` re-runs the fit at doubled n_max and demands the
    fitted coefficient move by less than 1e-8 relative (raises otherwise).

    ``memo`` shares the model, its eigendecomposition and the scale moment
    with the scenarios run next to this one on the same model.
    """
    memo = ModelMemo() if memo is None else memo
    result = _verify_once(scenario, memo)
    if check_convergence:
        again = _verify_once(replace(scenario, n_max=2 * result.n_max), memo)
        denom = max(abs(result.c2_fitted), abs(again.c2_fitted), C2_ZERO_FLOOR)
        shift = abs(again.c2_fitted - result.c2_fitted) / denom
        if shift > 1e-8:
            raise ConvergenceError(
                f"doubling n_max ({result.n_max} -> {2 * result.n_max}) shifted fitted c2", achieved=shift
            )
    return result


def _verify_once(scenario: Scenario, memo: ModelMemo) -> VerifyReport:
    n_max = resolve_n_max(scenario.modes, scenario.lattice.n_qubits, scenario.n_max)
    model, rho_env, scale, prop = memo.get(scenario.lattice, scenario.modes, n_max)
    kind = scenario.fidelity_kind
    c2_factorized = factorization_rel_err = None
    identity_holds = True
    if scenario.kind == "factorized-rate":
        c2_factorized, _, factorization_rel_err, identity_holds = factorization_check(
            model, rho_env, kind_state(kind, scenario.state))
        c2_analytic = c2_factorized
    else:
        c2_analytic = closed_form_c2(kind, scenario.state, model.h_i, rho_env)

    # flat rows are judged against the coupling scale (or absolutely, without coupling)
    flat = c2_analytic <= FLAT_C2_FRACTION * scale
    denom, fit_tol = (scale or 1.0, FLAT_PASS_FRACTION) if flat else (c2_analytic, FIT_REL_TOL)
    curve = _Curve(prop, model, kind, scenario.state, rho_env)
    if scale == 0.0:  # no coupling: F is flat to rounding, and only rounding biases c2
        t_max, error = 1.0, _c2_row_weights()[2] * SAMPLE_ROUNDING
    else:
        t_max, error = _fit_window(taylor_coefficients(prop, curve))
    bound = error / denom
    if not bound < fit_tol:
        raise ConvergenceError(f"c2 error bound B = {bound:.3e} at t_max = {t_max:.3e} "
                               f"is not below the pass tolerance {fit_tol:g}", achieved=bound)
    est = estimate_c2(curve.curve(np.linspace(0.0, t_max, FIT_POINTS)))
    if est.residual > FIT_RESIDUAL_TARGET:
        raise ConvergenceError(f"quartic fit residual exceeds {FIT_RESIDUAL_TARGET:g} "
                               f"at t_max = {t_max:.3e}", achieved=est.residual)

    rel_err = abs(est.c2_hat - c2_analytic) / denom
    if flat:
        passed = abs(est.c2_hat) <= (FLAT_PASS_FRACTION * scale if scale else 1e-10)
    else:
        passed = rel_err < FIT_REL_TOL
        if est.c2_hat > 0:
            passed = passed and abs(est.c1_hat) * t_max <= C1_PASS_FRACTION * est.c2_hat * t_max ** 2

    return VerifyReport(
        scenario=scenario.name,
        kind=scenario.kind,
        c2_analytic=c2_analytic,
        c2_fitted=est.c2_hat,
        c1_fitted=est.c1_hat,
        rel_err=rel_err,
        bound=bound,
        residual=est.residual,
        t_max=t_max,
        n_max=n_max,
        tail_weight=_worst_tail(scenario.modes, n_max),
        c2_factorized=c2_factorized,
        factorization_rel_err=factorization_rel_err,
        passed=passed and identity_holds,
    )
