"""Named qubit-register states used by the CLI presets and the suites."""

from __future__ import annotations

import numpy as np

from .fidelity import Ensemble
from .model import QubitLattice, pair_encode
from .operators import DenseOperator, HilbertSpace, Ket


def _register(n_qubits: int) -> HilbertSpace:
    return HilbertSpace((2,) * n_qubits)


def ground_ket(n_qubits: int) -> Ket:
    amp = np.zeros(2 ** n_qubits, dtype=np.complex128)
    amp[0] = 1.0
    return Ket(_register(n_qubits), amp)


def plus_all_ket(n_qubits: int) -> Ket:
    amp = np.full(2 ** n_qubits, 2.0 ** (-n_qubits / 2), dtype=np.complex128)
    return Ket(_register(n_qubits), amp)


def ghz_ket(n_qubits: int) -> Ket:
    amp = np.zeros(2 ** n_qubits, dtype=np.complex128)
    amp[0] = amp[-1] = 1.0 / np.sqrt(2.0)
    return Ket(_register(n_qubits), amp)


def maximally_mixed_density(n_qubits: int) -> DenseOperator:
    d = 2 ** n_qubits
    return DenseOperator.density_op(_register(n_qubits), np.eye(d) / d)


def computational_ensemble(n_qubits: int) -> Ensemble:
    """The uniform computational-basis decomposition of the maximally mixed state."""
    d = 2 ** n_qubits
    members = []
    for i in range(d):
        amp = np.zeros(d, dtype=np.complex128)
        amp[i] = 1.0
        members.append((1.0 / d, Ket(_register(n_qubits), amp)))
    return Ensemble(tuple(members))


def ket_from_amplitudes(values, n_qubits: int) -> Ket:
    amp = np.asarray(values, dtype=np.complex128)
    nrm = np.linalg.norm(amp)
    if nrm == 0:
        raise ValueError("state amplitudes are all zero")
    return Ket(_register(n_qubits), amp / nrm)


# per preset name: its state on a lattice's register; encoded is the all-zeros logical register on antisymmetric pairs
_PRESETS = {
    "ground": lambda lattice: ground_ket(lattice.n_qubits),
    "plus_all": lambda lattice: plus_all_ket(lattice.n_qubits),
    "ghz": lambda lattice: ghz_ket(lattice.n_qubits),
    "maximally_mixed": lambda lattice: maximally_mixed_density(lattice.n_qubits),
    "encoded": lambda lattice: pair_encode(ground_ket(lattice.n_qubits // 2), lattice),
}
PRESET_NAMES = tuple(_PRESETS)


def build_preset(name: str, lattice: QubitLattice):
    """Resolve a preset name to a Ket or a density on the lattice register."""
    if name not in _PRESETS:
        raise ValueError(f"unknown state preset {name!r}")
    return _PRESETS[name](lattice)
