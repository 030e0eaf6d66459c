"""Short-time damping coefficients of three decoherence fidelities.

Every fidelity here admits the expansion ``F(t) = 1 - c2 t^2 + O(t^3)``,
with no linear term; ``c2`` is the coupling variance form evaluated against
the appropriate system mean, and plays the role of a squared damping rate
(``tau2 = c2**-0.5``).  The closed forms return ``c2`` itself, a float,
rather than a characteristic time, so vanishing rates stay representable.

The kinds, ``FIDELITY_KINDS`` (io, entanglement, average), differ only in the
state they act on and how they average over it.  The kind table below holds
those rules, and only it: ``kind_state``, ``kind_members``, ``closed_form_c2``
and ``factorized_c2``.  Each raises ValueError for any other kind name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import QubitLattice, rate_from_correlation
from .operators import DenseOperator, Ket, variance_form, _env_mean_square, _nonnegative, _second_moment

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


def input_output_c2(psi0: Ket, h_i: DenseOperator, rho_env: DenseOperator) -> float:
    """Quadratic damping of the pure-input fidelity: c2 = variance form."""
    return variance_form(h_i, psi0.projector(), rho_env)


def entanglement_c2(rho_s: DenseOperator, h_i: DenseOperator, rho_env: DenseOperator) -> float:
    """Quadratic damping of the entanglement fidelity.

    Intrinsic to ``rho_s``: the system mean in the variance form is taken
    against the density itself, so no purification enters.
    """
    return variance_form(h_i, rho_s, rho_env)


def average_c2(ensemble: Ensemble, h_i: DenseOperator, rho_env: DenseOperator) -> float:
    """Quadratic damping of the ensemble-average fidelity.

    The squared system mean is averaged per member, which makes the result
    depend on the chosen decomposition, not only on the mixed density.
    Equals the probability-weighted mean of the members' pure-input c2.
    """
    m2 = _second_moment(h_i, ensemble.density(), rho_env)  # also checks the flags and the factor layout
    ds, de = ensemble.space.dim, rho_env.space.dim
    h4 = h_i.matrix.reshape(ds, de, ds, de)
    msq = 0.0
    for p, psi in ensemble.members:
        amp = psi.amplitudes
        msq += p * _env_mean_square(rho_env, np.einsum("u,uesf,s->ef", amp.conj(), h4, amp))
    return _nonnegative(m2 - msq, "damping coefficient")


def _density(state) -> DenseOperator:
    return state.projector() if isinstance(state, Ket) else state


# per kind: the inputs it accepts, their description, and the name of its closed form
_KINDS = {
    "io": (Ket, "a pure state", "input_output_c2"),
    "entanglement": ((Ket, DenseOperator), "a pure state or a density", "entanglement_c2"),
    "average": (Ensemble, "an ensemble", "average_c2"),
}
FIDELITY_KINDS = tuple(_KINDS)


def kind_state(kind: str, state):
    """What a kind acts on: io a ``Ket`` and average an ``Ensemble``, as is;
    entanglement a ``Ket`` or a density, as the density.  Else ValueError."""
    if kind not in _KINDS:
        raise ValueError(f"unknown fidelity kind {kind!r}; expected one of {FIDELITY_KINDS}")
    accepts, what, _ = _KINDS[kind]
    if not isinstance(state, accepts):
        raise ValueError(f"the {kind} fidelity needs {what}")
    return _density(state) if kind == "entanglement" else state


def kind_members(kind: str, state) -> tuple:
    """The weighted inputs ``(p, state)`` the oracle evolves as densities: the ensemble's members, or the state
    as given."""
    kind_state(kind, state)
    return state.members if kind == "average" else ((1.0, state),)


def closed_form_c2(kind: str, state, h_i: DenseOperator, rho_env: DenseOperator) -> float:
    """The kind's variance-form damping coefficient.

    The closed form is looked up in the module by name at call time, so a
    rebinding of ``input_output_c2`` (a tracer's, a test's) sees every call.
    """
    state = kind_state(kind, state)
    return globals()[_KINDS[kind][2]](state, h_i, rho_env)


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
    c2_e = entanglement_c2(rho_s, h_i, rho_env)
    c2_a = average_c2(ensemble, h_i, rho_env)
    return RateInequalityReport(c2_e, c2_a, c2_e >= c2_a - INEQUALITY_SLACK)
