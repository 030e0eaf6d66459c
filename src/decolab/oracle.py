"""Brute-force ground truth for the closed-form damping coefficients.

The full system x environment state is evolved exactly, the three fidelity
definitions are evaluated directly (``fidelity_curve``), and a short-time
quartic fit extracts the numerical (c1, c2) for comparison against the closed
forms.  What depends on the kind comes from the kind table in ``fidelity``;
a ``factorized-rate`` scenario fits the entanglement fidelity
(``Scenario.fidelity_kind``).  ``resolve_n_max`` is the truncation rule for
every model: a requested level, or else the tail-weight policy
``tail_n_max``, guarded by ``dimension_cap``.  ``factorization_check`` is the
one test of the paper's identity (factorized rate = variance form) on a
truncated model, to a tolerance set by the truncation tail.

All three fidelities go through one core.  Each input is a weighted set of
purifications (the kind's members: io one ancilla row; entanglement the
purification of rho_s, or one row for a pure state; average one row per
ensemble state), and a mixed environment state is expanded into its
eigenvector ensemble, so evolution propagates a block of kets instead of a
full density (exact up to environment weights below 1e-15, which are
dropped).  The total Hamiltonian is diagonalised once per model
per verify run (``ModelMemo`` shares it between scenarios), and per parity
sector: every coupling term flips one qubit and adds or removes one boson,
so (excited qubits + total boson number) mod 2 is conserved and the two
sectors are diagonalised as independent half-size blocks.  Memory, for a
model of dimension n: the model keeps one n x n complex matrix (the
coupling) and its free parts as two energy vectors.  Each sector's n/2 x n/2
block is the coupling's block with the free energies on its diagonal
(``ModelHamiltonian.block``), diagonalised in turn, so H_total is never
formed (only ``evolve_exact``, the tests' dense reference, forms it), and
the eigenvectors stay as one n x n/2 array, each basis state's row in its
own sector's eigenbasis, for as long as the model is in use.  Per curve,
ancilla rows and system-basis entries with zero amplitude are dropped, and
each sector keeps only the environment rows and ensemble columns that the
input reaches in it: a single-parity input against a diagonal environment
does a quarter of the dense product's work.  The eigenvector rows are
projected onto <psi_r(t)| x <e| before the product, the sectors' amplitudes
are summed before |.|^2 is taken, and all times of a curve are propagated
in one batched call.  A row is fitted once: the same eigenpairs give the
exact Taylor coefficients c1..c6 of 1 - F(t), and ``t_max`` minimises the
fitted c2's error bound (the t^5 and t^6 bias plus sample rounding), which
must stay below the row's pass tolerance or raise ConvergenceError.

The +/-k mirror symmetry that makes Omega^2(d) real also gives H_total an
antiunitary symmetry T = (D x P) K with T^2 = 1 (``_MirrorBasis``); every
``BathModeSet`` pairs its modes with exact mirrors one-to-one, so every model
has it.  In the T-invariant basis W = diag(u^popcount(s)) x W_env every
sector block is real symmetric, so ``eigh`` runs on real blocks, the
eigenvectors ``vec`` are real, and the curves take their inputs into W; a
real eigenvector row times complex kets is one real product on the kets'
(re, im) view.  A block whose imaginary part in W exceeds HERMITIAN_ATOL
raises ValueError.
"""

from __future__ import annotations

import functools
import math
import os
from collections import Counter
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, ConvergenceError
from .fidelity import (FIDELITY_KINDS, C2_ZERO_FLOOR, closed_form_c2, entanglement_c2, kind_members,
                       kind_state)
from .model import (
    BathModeSet,
    ModelHamiltonian,
    QubitLattice,
    build_hamiltonian,
    decoherence_rate,
)
from .operators import (
    HERMITIAN_ATOL,
    TAIL_WEIGHT_TARGET,
    DenseOperator,
    HilbertSpace,
    Ket,
    conjugate_density,
    gibbs_tail_weight,
    herm_propagator,
    n_max_for_tail,
    purify,
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
BATCH_ELEMENTS = 1 << 17  # complex entries per batched propagation intermediate (2 MiB)
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


def _mix_pairs(m: np.ndarray, lo: np.ndarray, hi: np.ndarray, factor: complex) -> None:
    """In place on the rows of ``m``: row lo becomes (lo + hi)/sqrt2 and row hi becomes factor (lo - hi)/sqrt2."""
    a, b = m[lo], m[hi]
    a *= _SQRT_HALF
    b *= _SQRT_HALF
    m[lo] = a + b
    a -= b
    a *= factor
    m[hi] = a


def _env_adjoint(basis: _MirrorBasis, x: np.ndarray) -> np.ndarray:
    """W_env^dag x, for x with one row per environment basis state."""
    lo = np.flatnonzero(np.arange(len(basis.mirror)) < basis.mirror)
    y = x.astype(np.complex128)
    _mix_pairs(y, lo, basis.mirror[lo], -1j)
    return y


def _real_block(h: np.ndarray, idx: np.ndarray, basis: _MirrorBasis) -> np.ndarray:
    """The real part of W^dag h W for the sector block h = H[idx, idx], made in place on ``h``.

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
    return h.real


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
            h = DenseOperator.hermitian_op(HilbertSpace((len(idx),)), model.block(idx, idx)).matrix
            self.lam[cols], self.vec[idx] = np.linalg.eigh(_real_block(h, idx, self.basis))
            del h  # the next sector's block is built without this one
        self.h0_diag = model.h0_diag
        ds = len(self.h0_diag)
        self.parity = parity.reshape(ds, n // ds)  # (system, env)
        self.rows = self.vec.reshape(ds, n // ds, n // 2)  # (system, env, sector eigenvector)

    def advance(self, curve: _Curve, t) -> np.ndarray:
        """The curve's F at every time in ``t`` (a scalar or 1D array).

        F = sum_b p_b sum_{e,m} |sum_r <psi_br(t)| x <e| exp(-i H t) |col_brm>|^2,
        where psi_br(t) carries the free co-rotation.  Each sector part
        projects its eigenvector rows onto <psi_br(t)| x <e| for its own
        environment rows e, makes its dense product, and adds it into the
        member's amplitudes w[t, e, m] before |w|^2 is taken: a mixed-parity
        input feeds both sectors into the same (e, m).  The times go through
        in batches of at most BATCH_ELEMENTS entries per intermediate.
        """
        times = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros(times.shape)
        de, m = self.rows.shape[1], curve.env_cols
        for weight, parts in curve.members:
            # the largest intermediate per time: w, or a part's projected rows or phased kets
            size = max([de * m] + [max(p.rows.shape[1] * p.kets.shape[0] * p.kets.shape[1], p.kets.size)
                                   for p in parts])
            step = max(1, BATCH_ELEMENTS // size)
            for i in range(0, len(times), step):
                tc = times[i:i + step]
                w = np.zeros((len(tc), de, m), dtype=np.complex128)
                for part in parts:
                    r, n, mp = part.kets.shape
                    rotated = np.exp(1j * np.outer(tc, part.h0))[:, None, :] * part.bra
                    proj = np.tensordot(rotated, part.rows, axes=(2, 0)).transpose(0, 2, 1, 3)
                    proj = proj.reshape(len(tc), -1, r * n)
                    phased = np.exp(-1j * np.outer(tc, self.lam[part.cols]))[:, None, :, None] * part.kets
                    w[part.block] += proj @ phased.reshape(len(tc), r * n, mp)
                out[i:i + step] += weight * np.sum(np.abs(w) ** 2, axis=(1, 2))
        out[times == 0.0] = 1.0  # exact, as the fit's first sample assumes
        return out


def _env_ensemble(rho_env: DenseOperator) -> tuple[np.ndarray, np.ndarray]:
    """(weights, eigenvector columns) of the environment state, pruned."""
    m = rho_env.matrix
    off = m - np.diag(np.diagonal(m))
    if np.abs(off).max() < 1e-14:
        q = np.diagonal(m).real.copy()
        vec = np.eye(m.shape[0], dtype=np.complex128)
    else:
        q, vec = np.linalg.eigh(m)
    keep = q > ENV_WEIGHT_CUTOFF
    return q[keep], vec[:, keep]


class _Part(NamedTuple):
    """One sector's share of one class of a member's ancilla rows (see ``_Curve``)."""

    h0: np.ndarray  # free qubit energies on the support
    bra: np.ndarray  # conjugate amplitudes, (rows, support)
    cols: slice  # the sector's slice of the eigenvalues ``lam``
    rows: np.ndarray  # eigenvector rows on the support and the kept environment rows, (support, env, sector)
    kets: np.ndarray  # the ancilla rows' kets in the sector's eigenbasis, (rows, sector, kept columns)
    block: tuple  # where the part's amplitudes land in w[t, e, m]: all of it, or (kept rows, kept columns)


class _Curve:
    """Exact F(t) of one fidelity kind on one model.

    Every kind is a weighted set of purified inputs, where row r of a member's
    amplitudes holds the system amplitudes paired with ancilla state r: ``io``
    is one single-row member, ``entanglement`` of a mixed state is one member
    holding the purification (the ancilla is untouched by the dynamics and by
    the free co-rotation; an optional ancilla unitary probes purification
    independence), and ``average`` is one single-row member per ensemble state.

    ``members`` keeps ``(weight, parts)`` per member.  Its nonzero ancilla rows
    are classed by the parities their system support carries (even, odd or
    both), and each class gets one ``_Part`` per parity sector that its kets
    reach.  A part keeps only the environment rows its support reaches in
    the sector and the environment-ensemble columns whose kets are not zero
    there: a single-parity class against a diagonal environment keeps half
    of each, so its two parts do a quarter of the dense product's work.

    The inputs go into the mirror basis W (``_Propagated.basis``): the
    system amplitudes take conj(u^popcount(s)) and the environment-ensemble
    columns take W_env^dag; the bra is still the conjugate of the amplitudes.
    The sum of |w|^2 over environment rows does not change, because W_env is
    unitary and keeps each part's set of environment rows (it keeps the boson
    parity).
    """

    def __init__(self, prop: _Propagated, model: ModelHamiltonian, kind: str, state, rho_env: DenseOperator,
                 ancilla_unitary: np.ndarray | None = None):
        system = model.system_space()
        if rho_env.space != model.env_space():
            raise ValueError("environment state does not live on the mode space")
        q, venv = _env_ensemble(rho_env)
        env_cols = _env_adjoint(prop.basis, venv * np.sqrt(q)[None, :])
        self.prop = prop
        self.env_cols = env_cols.shape[1]
        self.width = 0
        self.members = []
        system_parity = prop.parity[:, 0]  # environment index 0 is the boson vacuum
        for weight, psi in kind_members(kind, state):
            if psi.space != system:
                raise ValueError("input state does not live on the system space")
            if isinstance(psi, Ket):
                amps = psi.amplitudes[None, :]
            else:
                amps = purify(psi).amplitudes.reshape(system.dim, system.dim)
                if ancilla_unitary is not None:
                    amps = ancilla_unitary @ amps
            amps = amps * prop.basis.phase.conj()  # diag(u^popcount(s))^dag
            amps = amps[np.any(amps != 0, axis=1)]
            self.width += amps.shape[0] * self.env_cols
            classes = [frozenset(system_parity[row != 0]) for row in amps]
            parts = []
            for cls in dict.fromkeys(classes):
                group = amps[[c == cls for c in classes]]
                support = np.flatnonzero(np.any(group != 0, axis=0))
                parts += _sector_parts(prop, group[:, support], support, env_cols)
            self.members.append((weight, parts))

    @property
    def shape(self) -> tuple[int, int]:
        """(n, propagated ket columns); perfbench's tracer reads it as ``advance``'s width."""
        return self.prop.vec.shape[0], self.width

    def curve(self, times) -> FidelityCurve:
        times = np.asarray(times, float)
        return FidelityCurve(times, self.prop.advance(self, times))


def _sector_parts(prop: _Propagated, amps: np.ndarray, support: np.ndarray, env_cols: np.ndarray) -> list[_Part]:
    """The parts of one class of ancilla rows, ``amps`` shaped (rows, support).

    Each sector keeps the environment rows a support entry reaches in it and
    the environment-ensemble columns whose kets are not zero there; a sector
    with no such column gets no part.
    """
    parts = []
    r, m = amps.shape[0], env_cols.shape[1]
    for p, (_, cols) in enumerate(prop.sectors):
        in_sector = prop.parity[support] == p
        env_rows = np.flatnonzero(np.any(in_sector, axis=0))
        # a row of the other sector holds that sector's coefficients: zero it
        rows = np.where(in_sector[:, env_rows, None], prop.rows[support[:, None], env_rows], 0)
        s, e, n = rows.shape
        kets = np.einsum("rs,em->serm", amps, env_cols[env_rows]).reshape(s * e, r * m)
        kets = _product(rows.reshape(s * e, n).T, kets).reshape(n, r, m)
        ket_cols = np.flatnonzero(np.any(kets != 0, axis=(0, 1)))
        if len(ket_cols) == 0:
            continue
        if e == prop.rows.shape[1] and len(ket_cols) == m:
            block = (slice(None),) * 3  # a plain in-place add: no scatter
        else:
            block = (slice(None), env_rows[:, None], ket_cols)
        parts.append(_Part(prop.h0_diag[support], amps.conj(), cols, rows,
                           kets[:, :, ket_cols].transpose(1, 0, 2).copy(), block))
    return parts


def taylor_coefficients(prop: _Propagated, curve: _Curve) -> np.ndarray:
    """c_0..c_TAYLOR_ORDER with 1 - F(t) = sum_k c_k t^k, from the parts ``prop.advance`` propagates.

    Expanding both exponentials of ``advance``'s amplitude gives w_k = sum_{j+l=k} [bra (i h0)^j / j!]
    rows [(-i lam)^l / l! kets], then F_k = sum_a <w_a, w_{k-a}> over the weighted members, c_0 = 1 - F_0
    and c_k = -F_k, one order l at a time.
    """
    k = np.arange(TAYLOR_ORDER + 1)
    inv_fact = 1.0 / np.cumprod(np.maximum(k, 1))
    f = np.zeros(len(k))
    de, m = prop.rows.shape[1], curve.env_cols
    for weight, parts in curve.members:
        w = np.zeros((len(k), de, m), dtype=np.complex128)
        for part in parts:
            r, n, mp = part.kets.shape
            s, e = part.rows.shape[:2]
            bra = ((1j * part.h0) ** k[:, None] * inv_fact[:, None])[:, None, :] * part.bra  # (j, r, s)
            lam = (-1j * prop.lam[part.cols]) ** k[:, None] * inv_fact[:, None]  # (l, n)
            rows = part.rows.reshape(s * e, n)
            kets = part.kets.transpose(1, 0, 2)  # (n, r, mp)
            wp = np.zeros((len(k), e, mp), dtype=np.complex128)
            for l in k:
                x = _product(rows, (lam[l, :, None, None] * kets).reshape(n, -1)).reshape(s, e, r, mp)
                wp[l:] += np.tensordot(bra[:len(k) - l], x, axes=([1, 2], [2, 0]))
            w[part.block] += wp
        v = w.reshape(len(k), -1).view(np.float64)  # Re <w_a, w_b> is a dot product of (re, im) pairs
        gram = v @ v.T
        f += weight * np.bincount(np.add.outer(k, k).ravel(), gram.ravel())[:len(k)]
    return (k == 0) - f


def fidelity_curve(model: ModelHamiltonian, kind: str, state, rho_env: DenseOperator, times,
                   ancilla_unitary: np.ndarray | None = None) -> FidelityCurve:
    """Exact fidelity curve of one kind on the given time grid.

    ``ancilla_unitary`` rotates the purifying ancilla of a mixed input, which
    probes the entanglement fidelity's purification independence.
    """
    return _Curve(_Propagated(model), model, kind, state, rho_env, ancilla_unitary).curve(times)


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
        # a check only: a Ket stays a Ket, which the oracle propagates as one row
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
    rate = float(decoherence_rate(model.lattice, model.modes, rho_s))
    vf = entanglement_c2(rho_s, model.h_i, rho_env)
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
    """Shared oracle state per truncated model, for the scenarios of one verify run.

    Each model is built and diagonalised once and held only while a listed
    scenario still needs it, so grouped scenarios keep a single dense model
    alive.  A model no listed scenario names (such as a convergence re-run)
    is built for its one use.  Results never depend on a hit.
    """

    def __init__(self, scenarios: Sequence[Scenario] = ()):
        self._uses = Counter()
        for s in scenarios:
            try:
                self._uses[s.lattice, s.modes, resolve_n_max(s.modes, s.lattice.n_qubits, s.n_max)] += 1
            except ConvergenceError:
                pass  # a level over the dimension cap raises again in the scenario's own row
        self._runs: dict[tuple, tuple] = {}

    def get(self, lattice: QubitLattice, modes: BathModeSet, n_max: int) -> tuple:
        """(model, thermal environment state, scale moment, eigendecomposition)."""
        key = (lattice, modes, n_max)
        run = self._runs.pop(key, None)
        if run is None:
            model = build_hamiltonian(lattice, modes, n_max)
            rho_env = model.thermal_env_state()
            run = model, rho_env, _scale_moment(model, rho_env), _Propagated(model)
        self._uses[key] -= 1
        if self._uses[key] > 0:
            self._runs[key] = run
        return run


def verify_expansion(scenario: Scenario, check_convergence: bool = False,
                     memo: ModelMemo | None = None) -> VerifyReport:
    """Compare the closed-form damping coefficient against the fitted oracle.

    For ``factorized-rate`` scenarios the analytic side is the spatial
    correlation formula, and ``factorization_check`` must pass as well.

    ``check_convergence`` re-runs the fit at doubled n_max and demands the
    fitted coefficient move by less than 1e-8 relative (raises otherwise).

    ``memo`` shares the model, its eigendecomposition and the scale moment
    with the other scenarios it lists.
    """
    if memo is None:
        memo = ModelMemo()
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
    flat = c2_analytic <= FLAT_C2_FRACTION * max(scale, 1.0)
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
        passed = abs(est.c2_hat) <= FLAT_PASS_FRACTION * scale + 1e-10
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
