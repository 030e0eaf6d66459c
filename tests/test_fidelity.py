import functools
import math
import re

import numpy as np
import pytest

from decolab.fidelity import (
    FIDELITY_KINDS,
    Ensemble,
    check_rate_inequality,
    closed_form_c2,
    damping_time,
    factorized_c2,
    kind_members,
    kind_state,
)
from decolab.operators import (
    DenseOperator,
    HilbertSpace,
    Ket,
    boson_ops,
    pauli,
    thermal_boson_state,
)
from decolab.rng import Xoshiro256pp, random_decomposition, random_density_matrix, random_hermitian_matrix

Q1 = HilbertSpace((2,))
G = 0.05
N_MAX = 4


@pytest.fixture(scope="module")
def x_model():
    a, adag, _ = boson_ops(N_MAX)
    space = HilbertSpace((2, N_MAX + 1))
    h = DenseOperator.hermitian_op(space, G * np.kron(pauli("x").matrix, a.matrix + adag.matrix))
    vac = thermal_boson_state(1.0, 0.0, N_MAX)
    return h, vac


def ket(*amps):
    v = np.array(amps, dtype=complex)
    return Ket(Q1, v / np.linalg.norm(v))


def test_io_zero_coupling(x_model):
    _, vac = x_model
    h0 = DenseOperator.hermitian_op(HilbertSpace((2, N_MAX + 1)), np.zeros((2 * (N_MAX + 1),) * 2))
    out = closed_form_c2("io", ket(1, 0), h0, vac)
    assert out == 0.0
    assert damping_time(out, 0.0) == math.inf


def test_io_transverse_vacuum_coefficient(x_model):
    h, vac = x_model
    out = closed_form_c2("io", ket(1, 0), h, vac)
    assert type(out) is float
    assert abs(out - G * G) < 1e-15
    assert abs(damping_time(out, 2 * G * G) - 1.0 / G) < 1e-10  # scale Omega^2(0) = 2 g^2 at T = 0


def test_io_coupling_eigenstate_gives_zero():
    a, adag, _ = boson_ops(N_MAX)
    space = HilbertSpace((2, N_MAX + 1))
    h = DenseOperator.hermitian_op(space, G * np.kron(pauli("z").matrix, a.matrix + adag.matrix))
    vac = thermal_boson_state(1.0, 0.0, N_MAX)
    assert closed_form_c2("io", ket(1, 0), h, vac) == 0.0


def test_entanglement_pure_input_reduces_to_io(x_model):
    h, vac = x_model
    rng = Xoshiro256pp(17)
    for _ in range(5):
        amp = rng.complex_normals(2)
        psi = Ket(Q1, amp / np.linalg.norm(amp))
        io = closed_form_c2("io", psi, h, vac)
        ent = closed_form_c2("entanglement", psi.projector(), h, vac)
        assert abs(io - ent) < 1e-14


def test_entanglement_maximally_mixed_transverse(x_model):
    h, vac = x_model
    mixed = DenseOperator.density_op(Q1, np.eye(2) / 2)
    assert abs(closed_form_c2("entanglement", mixed, h, vac) - G * G) < 1e-15


def test_average_singleton_equals_io(x_model):
    h, vac = x_model
    psi = ket(0.6, 0.8)
    single = Ensemble(((1.0, psi),))
    assert abs(closed_form_c2("average", single, h, vac) - closed_form_c2("io", psi, h, vac)) < 1e-15


def test_average_depends_on_decomposition(x_model):
    h, vac = x_model
    plus, minus = ket(1, 1), ket(1, -1)
    zero, one = ket(1, 0), ket(0, 1)
    eig_mix = Ensemble(((0.5, plus), (0.5, minus)))
    comp_mix = Ensemble(((0.5, zero), (0.5, one)))
    assert closed_form_c2("average", eig_mix, h, vac) == 0.0
    assert abs(closed_form_c2("average", comp_mix, h, vac) - G * G) < 1e-15


def test_average_equals_member_weighted_io(x_model):
    h, vac = x_model
    rng = Xoshiro256pp(23)
    for _ in range(20):
        rho = random_density_matrix(rng, 2)
        members = [(p, Ket(Q1, amp)) for p, amp in random_decomposition(rng, rho, 3)]
        ens = Ensemble(tuple(members))
        direct = closed_form_c2("average", ens, h, vac)
        summed = sum(p * closed_form_c2("io", psi, h, vac) for p, psi in members)
        assert abs(direct - summed) < 1e-10


@pytest.mark.parametrize("lam", [2.0, 4.0, 0.5])
def test_scale_covariance_exact_for_binary_factors(x_model, lam):
    h, vac = x_model
    psi = ket(0.6, 0.8)
    scaled = DenseOperator.hermitian_op(h.space, lam * h.matrix)
    assert closed_form_c2("io", psi, scaled, vac) == lam * lam * closed_form_c2("io", psi, h, vac)


def test_scale_covariance_general_factor(x_model):
    h, vac = x_model
    psi = ket(1, 1j)
    scaled = DenseOperator.hermitian_op(h.space, 3.0 * h.matrix)
    base = closed_form_c2("io", psi, h, vac)
    assert abs(closed_form_c2("io", psi, scaled, vac) - 9.0 * base) <= 1e-14 * max(base, 1.0)


def test_inequality_pure_state_is_equality(x_model):
    h, vac = x_model
    psi = ket(0.8, 0.6j)
    rep = check_rate_inequality(psi.projector(), Ensemble(((1.0, psi),)), h, vac)
    assert rep.holds
    assert abs(rep.c2_entanglement - rep.c2_average) < 1e-14


def test_inequality_strict_for_eigenstate_mixture(x_model):
    h, vac = x_model
    mixed = DenseOperator.density_op(Q1, np.eye(2) / 2)
    ens = Ensemble(((0.5, ket(1, 1)), (0.5, ket(1, -1))))
    rep = check_rate_inequality(mixed, ens, h, vac)
    assert rep.holds
    assert rep.c2_average == 0.0
    assert rep.c2_entanglement > 10 * rep.c2_average
    assert abs(rep.c2_entanglement - G * G) < 1e-15


def test_inequality_rejects_mismatched_ensemble(x_model):
    h, vac = x_model
    mixed = DenseOperator.density_op(Q1, np.eye(2) / 2)
    with pytest.raises(ValueError):
        check_rate_inequality(mixed, Ensemble(((1.0, ket(1, 0)),)), h, vac)


def test_inequality_random_property():
    rng = Xoshiro256pp(99)
    for _ in range(100):
        ds = 2 + 2 * rng.randint(2)
        de = 2 + rng.randint(3)
        sys_dims = (2,) * int(math.log2(ds))
        rho = DenseOperator.density_op(HilbertSpace(sys_dims), random_density_matrix(rng, ds))
        rank = sum(1 for p in np.linalg.eigvalsh(rho.matrix) if p > 1e-12)
        members = [(p, Ket(HilbertSpace(sys_dims), amp))
                   for p, amp in random_decomposition(rng, rho.matrix, rank + rng.randint(3))]
        env = DenseOperator.density_op(HilbertSpace((de,)), random_density_matrix(rng, de))
        h = DenseOperator.hermitian_op(HilbertSpace(sys_dims + (de,)),
                                       random_hermitian_matrix(rng, ds * de, 0.1))
        rep = check_rate_inequality(rho, Ensemble(tuple(members)), h, env)
        assert rep.holds


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble(((0.7, ket(1, 0)), (0.7, ket(0, 1))))
    with pytest.raises(ValueError):
        Ensemble(((-0.5, ket(1, 0)), (1.5, ket(0, 1))))


def test_tau2_reporting():
    assert damping_time(0.0, 0.0) == math.inf
    assert damping_time(0.0, 1.0) == math.inf
    assert damping_time(4.0, 1.0) == 0.5
    # the floor is relative to the coupling scale: a weak bath keeps a finite damping time
    assert damping_time(4e-20, 2e-20) == 5e9
    assert damping_time(4e-20, 1.0) == math.inf


@pytest.mark.parametrize("kind", ["entangelment", "factorized-rate"])
def test_kind_table_rejects_other_kind_names(kind):
    # such names used to read as entanglement: on the L2-K1-T0 grid model the
    # misspelt kind gave the GHZ input's entanglement c2, 0.01
    from decolab.model import build_hamiltonian
    from decolab.states import ghz_ket
    from decolab.suites import _grid_lattice, _grid_modes

    lattice = _grid_lattice(2)
    model = build_hamiltonian(lattice, _grid_modes(1, 0.0), 2)
    env = model.thermal_env_state()
    psi = ghz_ket(2)
    assert closed_form_c2("entanglement", psi, model.h_i, env) == pytest.approx(0.01, rel=1e-12)
    calls = [lambda: kind_state(kind, psi), lambda: kind_members(kind, psi),
             lambda: closed_form_c2(kind, psi, model.h_i, env),
             lambda: factorized_c2(kind, psi, lattice, lambda d: 1.0)]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"{kind!r}; expected one of {FIDELITY_KINDS}")):
            call()


def _negative_by(a):
    """Each caller's variance-form quantity at exactly -a, for the input |0> under sx.

    The environment "state" diag(1 + a, -a) bypasses validation, so a coupling
    sx x |1><1| has <H^2> = -a while its system mean vanishes; the factorized
    rate gets the same -a from a negative correlation.
    """
    from decolab.model import QubitLattice, rate_from_correlation

    env = DenseOperator(Q1, np.diag([1.0 + a, -a]), hermitian=True, density=True)
    h = DenseOperator.hermitian_op(HilbertSpace((2, 2)), np.kron(pauli("x").matrix, np.diag([0.0, 1.0])))
    zero = ket(1, 0)
    lattice = QubitLattice((0.0,), 1.0, 0.0, (1.0,))  # coupling sx
    states = {"io": zero, "entanglement": zero.projector(), "average": Ensemble(((1.0, zero),))}
    calls = {kind: (functools.partial(closed_form_c2, kind, state, h, env), "damping coefficient")
             for kind, state in states.items()}
    calls["rate_from_correlation"] = (lambda: rate_from_correlation(lattice, lambda d: -2.0 * a, zero.projector()),
                                      "decoherence rate")
    return calls


@pytest.mark.parametrize("caller", [*FIDELITY_KINDS, "rate_from_correlation"])
def test_nonnegativity_rule(caller):
    call, what = _negative_by(1e-6)[caller]
    with pytest.raises(ValueError, match=re.escape(f"{what} is negative beyond rounding noise: -1.000e-06")):
        call()
    call, _ = _negative_by(1e-12)[caller]
    out = call()
    assert out == 0.0 and type(out) is float
