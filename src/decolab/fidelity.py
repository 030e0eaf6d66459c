"""Short-time damping coefficients of three decoherence fidelities.

Every fidelity here admits the expansion ``F(t) = 1 - c2 t^2 + O(t^3)``,
with no linear term; ``c2`` plays the role of a squared damping rate
(``tau2 = c2**-0.5``).  It is returned itself, a float, rather than a
characteristic time, so vanishing rates stay representable.

The kinds, ``FIDELITY_KINDS`` (io, entanglement, average), differ only in the
weighted set of system states they average over, ``kind_members``.  Both
forms of ``c2`` iterate those members: ``closed_form_c2``, the coupling
variance against a model's coupling and environment state, and
``factorized_c2``, the factorized rate under a spatial correlation function.
The kind table below holds the rules, and only it: ``kind_state``,
``kind_members`` and both forms raise ValueError for any other kind name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import QubitLattice, rate_from_correlation
from .operators import DenseOperator, Ket, _env_mean_square, _nonnegative, _second_moment

# damping_time reports a rate at most this fraction of its coupling scale as zero (infinite characteristic time)
C2_ZERO_FLOOR = 1e-14
INEQUALITY_SLACK = 1e-10
ENSEMBLE_WEIGHT_ATOL = 1e-12
ENSEMBLE_MIX_ATOL = 1e-10


def damping_time(c2: float, scale: float) -> float:
    """Quadratic damping time c2**-0.5; infinite when the rate vanishes against ``scale``, its coupling scale."""
    return math.inf if c2 <= C2_ZERO_FLOOR * scale else c2 ** -0.5


@dataclass(frozen=True)
class Ensemble:
    """A pure-state mixture: list of (probability, ket) pairs on one space."""

    members: tuple[tuple[float, Ket], ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        space = self.members[0][1].space
        total = 0.0
        for p, psi in self.members:
            if p < 0:
                raise ValueError(f"negative probability {p}")
            if psi.space != space:
                raise ValueError("ensemble members live on different spaces")
            total += p
        if abs(total - 1.0) > ENSEMBLE_WEIGHT_ATOL:
            raise ValueError(f"ensemble probabilities sum to {total}, not 1")

    @property
    def space(self):
        return self.members[0][1].space

    def density(self) -> DenseOperator:
        m = sum(p * np.outer(psi.amplitudes, psi.amplitudes.conj()) for p, psi in self.members)
        return DenseOperator.density_op(self.space, m, check_spectrum=False)


def _density(state) -> DenseOperator:
    return state.projector() if isinstance(state, Ket) else state


# per kind: the inputs it accepts and their description
_KINDS = {
    "io": (Ket, "a pure state"),
    "entanglement": ((Ket, DenseOperator), "a pure state or a density"),
    "average": (Ensemble, "an ensemble"),
}
FIDELITY_KINDS = tuple(_KINDS)


def kind_state(kind: str, state):
    """What a kind acts on: io a ``Ket`` and average an ``Ensemble``, as is;
    entanglement a ``Ket`` or a density, as the density.  Else ValueError."""
    if kind not in _KINDS:
        raise ValueError(f"unknown fidelity kind {kind!r}; expected one of {FIDELITY_KINDS}")
    accepts, what = _KINDS[kind]
    if not isinstance(state, accepts):
        raise ValueError(f"the {kind} fidelity needs {what}")
    return _density(state) if kind == "entanglement" else state


def kind_members(kind: str, state) -> tuple:
    """The weighted inputs ``(p, state)`` that both forms of c2 and the oracle's curves iterate: the ensemble's
    members, or the state as given."""
    kind_state(kind, state)
    return state.members if kind == "average" else ((1.0, state),)


def closed_form_c2(kind: str, state, h_i: DenseOperator, rho_env: DenseOperator) -> float:
    """The kind's damping coefficient: the coupling variance over the kind's weighted members.

    ``c2 = tr[(rho x rho_env) H^2] - sum_b p_b tr[rho_env B_b^2]``, where ``rho = sum_b p_b rho_b`` is the
    members' mixture and ``B_b = tr_s[(rho_b x 1) H]`` is member b's system-averaged coupling, an operator on
    the environment.  The squared mean is averaged per member, so the average kind depends on the chosen
    decomposition, not only on the mixed density.  The result is >= 0 (Cauchy-Schwarz): rounding residue
    below 0 is clamped to 0, and anything below -1e-9 raises.
    """
    members = kind_members(kind, state)
    first = _density(members[0][1])  # the mixture keeps its flags, so an unflagged density is still refused
    mix = replace(first, matrix=sum(p * _density(psi).matrix for p, psi in members))
    m2 = _second_moment(h_i, mix, rho_env)  # also checks the flags and the factor layout
    ds, de = first.space.dim, rho_env.space.dim
    h4 = h_i.matrix.reshape(ds, de, ds, de)
    msq = sum(p * _env_mean_square(rho_env, _system_mean(psi, h4)) for p, psi in members)
    return _nonnegative(m2 - msq, "damping coefficient")


def _system_mean(member, h4: np.ndarray) -> np.ndarray:
    """``tr_s[(rho x 1) H]`` for one member: a ket from its amplitudes, a density from its matrix."""
    if isinstance(member, Ket):
        return np.einsum("u,uesf,s->ef", member.amplitudes.conj(), h4, member.amplitudes)
    return np.einsum("su,uesf->ef", member.matrix, h4)


def factorized_c2(kind: str, state, lattice: QubitLattice, omega2) -> float:
    """The members' weighted factorized rates under the spatial correlation ``omega2``."""
    return sum(p * rate_from_correlation(lattice, omega2, _density(psi)) for p, psi in kind_members(kind, state))


@dataclass(frozen=True)
class RateInequalityReport:
    c2_entanglement: float
    c2_average: float
    holds: bool


def check_rate_inequality(rho_s: DenseOperator, ensemble: Ensemble,
                          h_i: DenseOperator, rho_env: DenseOperator) -> RateInequalityReport:
    """Entanglement damping dominates every decomposition's average damping.

    Verifies that ``ensemble`` actually mixes to ``rho_s`` before comparing.
    """
    mix = ensemble.density()
    dev = np.abs(mix.matrix - rho_s.matrix).max()
    if dev > ENSEMBLE_MIX_ATOL:
        raise ValueError(f"ensemble does not reproduce the density (max deviation {dev:.3e})")
    c2_e = closed_form_c2("entanglement", rho_s, h_i, rho_env)
    c2_a = closed_form_c2("average", ensemble, h_i, rho_env)
    return RateInequalityReport(c2_e, c2_a, c2_e >= c2_a - INEQUALITY_SLACK)
