import math

import numpy as np
import pytest

from decolab.errors import ConvergenceError
from decolab.fidelity import Ensemble
from decolab.model import BathMode, BathModeSet, QubitLattice, build_hamiltonian
from decolab.operators import DenseOperator, HilbertSpace, Ket, kron
from decolab.oracle import (
    FidelityCurve,
    Scenario,
    estimate_c2,
    evolve_exact,
    fidelity_curve,
    verify_expansion,
)
from decolab.rng import Xoshiro256pp, random_unitary_matrix
from decolab.states import ghz_ket, ground_ket, maximally_mixed_density, plus_all_ket

G = 0.05


def single_qubit_model(g=G, temperature=0.0, n_max=4, splitting=1.0):
    lattice = QubitLattice((0.0,), 1.0, 0.0, (splitting,))
    modes = BathModeSet((BathMode(0.0, 1.0, g),), temperature)
    model = build_hamiltonian(lattice, modes, n_max)
    return model, model.thermal_env_state()


def test_evolve_exact_identity_at_zero():
    model, env = single_qubit_model()
    rho0 = kron(ground_ket(1).projector(), env)
    out = evolve_exact(model, rho0, 0.0)
    assert np.abs(out.matrix - rho0.matrix).max() < 1e-12


def test_evolve_exact_stationary_product():
    model, env = single_qubit_model(g=0.0, temperature=0.5)
    rho0 = kron(ground_ket(1).projector(), env)  # commutes with h0 and h_env
    out = evolve_exact(model, rho0, 2.7)
    assert np.abs(out.matrix - rho0.matrix).max() < 1e-12


def test_evolve_exact_preserves_spectrum():
    model, env = single_qubit_model(temperature=0.5)
    rho0 = kron(plus_all_ket(1).projector(), env)
    out = evolve_exact(model, rho0, 1.3)
    assert np.abs(np.sort(np.linalg.eigvalsh(out.matrix)) -
                  np.sort(np.linalg.eigvalsh(rho0.matrix))).max() < 1e-10


def test_io_curve_flat_without_coupling():
    model, env = single_qubit_model(g=0.0)
    times = np.linspace(0.0, 2.0, 9)
    curve = fidelity_curve(model, "io", plus_all_ket(1), env, times)
    assert np.abs(curve.values - 1.0).max() < 1e-12


def test_io_curve_matches_closed_form_quadratic():
    model, env = single_qubit_model()
    times = np.linspace(0.0, 0.4, 9)
    curve = fidelity_curve(model, "io", ground_ket(1), env, times)
    assert np.all(curve.values <= 1.0 + 1e-9) and np.all(curve.values >= 0.0)
    expected = 1.0 - G * G * times ** 2
    assert np.abs(curve.values - expected).max() < 2e-5


def test_io_curve_agrees_with_dense_evolution():
    # the ket-ensemble fast path must reproduce literal U rho U^dag evolution
    model, env = single_qubit_model(temperature=0.7, n_max=6)
    psi = plus_all_ket(1)
    times = np.linspace(0.0, 0.8, 5)
    curve = fidelity_curve(model, "io", psi, env, times)
    from decolab.operators import partial_trace

    sys_dim = 2
    for t, val in zip(times, curve.values):
        rho0 = kron(psi.projector(), env)
        rho_t = evolve_exact(model, rho0, t)
        red = partial_trace(rho_t, keep={0})
        u0 = np.exp(-1j * _qubit_energies(model) * t)
        rotated = u0 * psi.amplitudes
        direct = (rotated.conj() @ red.matrix @ rotated).real
        assert abs(val - direct) < 1e-12


def test_entanglement_curve_pure_state_equals_io():
    model, env = single_qubit_model(temperature=0.5)
    times = np.linspace(0.0, 0.6, 9)
    io = fidelity_curve(model, "io", ground_ket(1), env, times)
    ent = fidelity_curve(model, "entanglement", ground_ket(1).projector(), env, times)
    assert np.abs(io.values - ent.values).max() < 1e-12


def test_entanglement_curve_purification_invariance():
    model, env = single_qubit_model(temperature=0.5)
    rho_s = maximally_mixed_density(1)
    times = np.linspace(0.0, 0.6, 9)
    base = fidelity_curve(model, "entanglement", rho_s, env, times)
    rng = Xoshiro256pp(2024)
    for _ in range(20):
        u = random_unitary_matrix(rng, 2)
        rotated = fidelity_curve(model, "entanglement", rho_s, env, times, ancilla_unitary=u)
        assert np.abs(rotated.values - base.values).max() < 1e-10


def test_entanglement_curve_fits_mixed_coefficient():
    model, env = single_qubit_model()
    sc = Scenario("mixed", "entanglement", model.lattice, model.modes, maximally_mixed_density(1))
    rep = verify_expansion(sc)
    assert rep.passed
    assert abs(rep.c2_fitted - G * G) / (G * G) < 1e-3


def test_average_curve_singleton_equals_io():
    model, env = single_qubit_model(temperature=0.5)
    times = np.linspace(0.0, 0.6, 9)
    psi = plus_all_ket(1)
    avg = fidelity_curve(model, "average", Ensemble(((1.0, psi),)), env, times)
    io = fidelity_curve(model, "io", psi, env, times)
    assert np.abs(avg.values - io.values).max() < 1e-14


def test_average_curve_eigenstate_mixture_flat_to_quartic():
    model, env = single_qubit_model()
    plus = plus_all_ket(1)
    minus = Ket(HilbertSpace((2,)), np.array([1.0, -1.0]) / math.sqrt(2))
    ens = Ensemble(((0.5, plus), (0.5, minus)))
    sc = Scenario("avg-flat", "average", model.lattice, model.modes, ens)
    rep = verify_expansion(sc)
    assert rep.passed
    assert abs(rep.c2_fitted) < 1e-4 * (2 * G * G)


@pytest.mark.parametrize("kind, state", [
    ("io", maximally_mixed_density(1)),
    ("average", ground_ket(1)),
    ("entanglement", Ensemble(((1.0, ground_ket(1)),))),
])
def test_scenario_rejects_a_state_its_kind_cannot_take(kind, state):
    lattice = QubitLattice((0.0,), 1.0, 0.0, (1.0,))
    modes = BathModeSet((BathMode(0.0, 1.0, G),), 0.0)
    with pytest.raises(ValueError, match=f"the {kind} fidelity needs"):
        Scenario("mismatch", kind, lattice, modes, state)


def test_fitted_ordering_entanglement_vs_average():
    # the entanglement coefficient dominates every decomposition's average,
    # checked on the fitted values, not just the closed forms
    rng = Xoshiro256pp(31)
    from decolab.rng import random_density_matrix, random_decomposition

    for i in range(100):
        g = 0.03 + 0.04 * rng.uniform()
        temperature = 0.4 * rng.uniform()
        n_max = 3 if temperature < 0.1 else 6
        model, env = single_qubit_model(g=g, temperature=temperature, n_max=n_max)
        rho_m = random_density_matrix(rng, 2)
        rho = DenseOperator.density_op(HilbertSpace((2,)), rho_m)
        members = [(p, Ket(HilbertSpace((2,)), amp)) for p, amp in random_decomposition(rng, rho_m, 3)]
        ens = Ensemble(tuple(members))
        rep_e = verify_expansion(Scenario(f"e{i}", "entanglement", model.lattice, model.modes, rho, n_max))
        rep_a = verify_expansion(Scenario(f"a{i}", "average", model.lattice, model.modes, ens, n_max))
        assert rep_e.passed and rep_a.passed
        fit_noise = 1e-3 * max(rep_e.c2_fitted, rep_a.c2_fitted, 1e-10)
        assert rep_e.c2_fitted >= rep_a.c2_fitted - fit_noise


def test_estimate_c2_exact_parabola():
    times = np.linspace(0.0, 1.5, 9)
    curve = FidelityCurve(times, 1.0 - 0.02 * times ** 2)
    est = estimate_c2(curve)
    assert abs(est.c2_hat - 0.02) < 1e-12
    assert abs(est.c1_hat) < 1e-12
    assert est.residual < 1e-14


def test_estimate_c2_constant_curve():
    times = np.linspace(0.0, 1.0, 9)
    est = estimate_c2(FidelityCurve(times, np.ones(9)))
    assert est.c2_hat == 0.0 and est.c1_hat == 0.0


def test_estimate_c2_rejects_nonuniform_grid():
    times = np.array([0.0, 0.1, 0.25, 0.4, 0.6, 0.85, 1.0, 1.2, 1.5])
    with pytest.raises(ValueError):
        estimate_c2(FidelityCurve(times, 1.0 - 1e-4 * times ** 2))


def test_estimate_c2_window_study_single_mode():
    model, env = single_qubit_model()
    sc = Scenario("window", "io", model.lattice, model.modes, ground_ket(1))
    rep = verify_expansion(sc)
    assert abs(rep.c2_fitted / (G * G) - 1.0) < 1e-3
    assert rep.residual <= 1e-10
    assert abs(rep.c1_fitted) * rep.t_max <= 1e-6 * rep.c2_fitted * rep.t_max ** 2 * 10


def test_verify_zero_coupling_passes():
    lattice = QubitLattice((0.0,), 1.0, 0.0, (1.0,))
    modes = BathModeSet((BathMode(0.0, 1.0, 0.0),), 0.0)
    rep = verify_expansion(Scenario("null", "io", lattice, modes, ground_ket(1)))
    assert rep.passed
    assert rep.c2_analytic == 0.0 and abs(rep.c2_fitted) < 1e-10


def test_verify_free_hamiltonian_independence():
    # same coupling, very different qubit splittings: same curvature
    reps = []
    for splitting in (0.0, 1.0, 3.0):
        model, _ = single_qubit_model(splitting=splitting)
        rep = verify_expansion(Scenario(f"h0-{splitting}", "io", model.lattice, model.modes, ground_ket(1)))
        assert rep.passed
        reps.append(rep)
    assert all(abs(r.c2_analytic - reps[0].c2_analytic) < 1e-15 for r in reps)
    assert all(abs(r.c2_fitted - reps[0].c2_fitted) / reps[0].c2_fitted < 1e-3 for r in reps)


def test_verify_factorized_rate_full_stack():
    lattice = QubitLattice((0.0, 0.7), 1.0, 0.5, (1.0, 0.8))
    modes = BathModeSet.symmetric([(1.3, 1.0, 0.04)], 0.5)
    rep = verify_expansion(Scenario("ghz-factorized", "factorized-rate", lattice, modes, ghz_ket(2)))
    assert rep.passed
    assert rep.tail_weight < 1e-10
    assert rep.factorization_rel_err < 1e-6
    assert rep.rel_err < 1e-2


def test_verify_truncation_convergence_gate():
    lattice = QubitLattice((0.0,), 1.0, 0.5, (1.0,))
    modes = BathModeSet((BathMode(0.0, 1.0, 0.05),), 0.5)
    rep = verify_expansion(Scenario("gate", "entanglement", lattice, modes, maximally_mixed_density(1)),
                           check_convergence=True)
    assert rep.passed
    assert rep.tail_weight < 1e-10


def test_resolve_dimension_cap_enforced():
    lattice = QubitLattice((0.0, 0.7), 1.0, 0.5)
    modes = BathModeSet.symmetric([(0.9, 1.0, 0.04), (1.6, 1.2, 0.03)], 0.5)
    with pytest.raises(ConvergenceError):
        verify_expansion(Scenario("too-big", "entanglement", lattice, modes,
                                  maximally_mixed_density(2), n_max=12))


def test_library_scenario_honours_env_dimension_cap(monkeypatch):
    monkeypatch.setenv("DECOLAB_NMAX_CAP", "8")
    lattice = QubitLattice((0.0,), 1.0, 0.0, (1.0,))
    modes = BathModeSet((BathMode(0.0, 1.0, G),), 0.0)
    with pytest.raises(ConvergenceError, match="total dimension 10 exceeds the cap 8"):
        verify_expansion(Scenario("capped", "io", lattice, modes, ground_ket(1), n_max=4))


def test_curve_validation():
    with pytest.raises(ValueError):
        FidelityCurve(np.array([0.0, 1.0]), np.array([0.9, 0.8]))  # F(0) != 1
    with pytest.raises(ValueError):
        FidelityCurve(np.array([0.1, 1.0]), np.array([1.0, 0.9]))  # does not start at 0
    with pytest.raises(ValueError):
        FidelityCurve(np.array([0.0, 1.0]), np.array([1.0, 1.5]))  # leaves [0, 1]


@pytest.mark.parametrize("g", [0.3, 1e-4])
def test_window_selection_across_coupling_scales(g):
    lattice = QubitLattice((0.0,), 1.0, 0.0, (1.0,))
    modes = BathModeSet((BathMode(0.0, 1.0, g),), 0.0)
    rep = verify_expansion(Scenario(f"g{g}", "io", lattice, modes, ground_ket(1)))
    assert rep.passed
    assert rep.rel_err < 1e-6


def test_verify_factorized_rate_thermal_four_modes():
    # warm 4-mode corner: dense truncation cannot reach the 1e-10 tail target,
    # so the factorization check runs at the fit tolerance instead
    from decolab.suites import _grid_lattice, _grid_modes

    sc = Scenario("full-stack", "factorized-rate", _grid_lattice(2), _grid_modes(4, 0.5),
                  ghz_ket(2).projector(), n_max=3)
    rep = verify_expansion(sc)
    assert rep.passed
    assert rep.tail_weight > 1e-10  # genuinely outside the tail-converged regime
    assert rep.factorization_rel_err < 1e-2


def test_factorization_check_relaxes_its_tolerance_off_the_tail_policy(monkeypatch):
    # the warm 4-mode corner at n_max=3: a 3.4e-4 tail leaves a 6.8e-3 truncation gap
    from decolab import oracle
    from decolab.suites import _grid_lattice, _grid_modes

    model = build_hamiltonian(_grid_lattice(2), _grid_modes(4, 0.5), 3)
    env, rho_s = model.thermal_env_state(), ghz_ket(2).projector()
    assert oracle._worst_tail(model.modes, 3) == pytest.approx(3.4e-4, rel=0.05)
    rate, vf, rel, passed = oracle.factorization_check(model, env, rho_s)
    assert rel == pytest.approx(6.84e-3, rel=1e-3)
    assert rel == abs(rate - vf) / vf
    assert passed  # only at FIT_REL_TOL: the gap is far above FACTORIZATION_REL_TOL
    monkeypatch.setattr(oracle, "TAIL_WEIGHT_TARGET", 1.0)  # as if this tail were converged
    assert not oracle.factorization_check(model, env, rho_s)[3]


def test_factorization_check_is_tight_at_the_tail_policy_level():
    from decolab import oracle
    from decolab.suites import FACTORIZATION_COMBOS, _grid_lattice, _grid_modes

    for L, K, t_ratio in FACTORIZATION_COMBOS:
        modes = _grid_modes(K, t_ratio)
        n_max = oracle.resolve_n_max(modes, L, None)
        model = build_hamiltonian(_grid_lattice(L), modes, n_max)
        rho_s = maximally_mixed_density(1) if L == 1 else ghz_ket(L).projector()
        assert oracle._worst_tail(modes, n_max) < 1e-10
        _, _, rel, passed = oracle.factorization_check(model, model.thermal_env_state(), rho_s)
        assert rel < oracle.FACTORIZATION_REL_TOL and passed, (L, K, t_ratio)


def _qubit_energies(model):
    """The diagonal of sum_l (w0_l/2) sz_l on the qubit space, embedded factor by factor."""
    from decolab.operators import embed, pauli

    space = model.system_space()
    h0 = sum(0.5 * w0 * embed(pauli("z"), l, space).matrix for l, w0 in enumerate(model.lattice.h0_splittings))
    return np.diagonal(h0).real


def _two_qubit_thermal_model():
    lattice = QubitLattice((0.0, 0.7), 1.0, 0.5, (1.0, 0.8))
    modes = BathModeSet((BathMode(0.0, 1.0, 0.3),), 0.6)
    model = build_hamiltonian(lattice, modes, 2)
    return model, model.thermal_env_state()


def _reference_entanglement(model, env, rho_s, t, ancilla_unitary=None):
    """<Psi(t)| (tr_env U (|Psi><Psi| x env) U^dag) |Psi(t)> on ancilla x system x env."""
    from decolab.model import ModelHamiltonian
    from decolab.operators import identity, partial_trace, purify

    anc = HilbertSpace((model.system_space().dim,))
    ext = ModelHamiltonian(anc * model.space, np.tile(model.h0_diag, anc.dim), kron(identity(anc), model.h_i),
                           model.h_env_diag, model.lattice, model.modes, model.n_max)
    psi = purify(rho_s).amplitudes.reshape(anc.dim, -1)
    if ancilla_unitary is not None:
        psi = ancilla_unitary @ psi
    pure = Ket(anc * model.system_space(), psi.reshape(-1))
    rho_t = evolve_exact(ext, kron(pure.projector(), env), t)
    red = partial_trace(rho_t, keep=set(range(1 + model.lattice.n_qubits)))
    rotated = (psi * np.exp(-1j * _qubit_energies(model) * t)[None, :]).reshape(-1)
    return (rotated.conj() @ red.matrix @ rotated).real


def _reference_io(model, env, psi, t):
    from decolab.operators import partial_trace

    rho_t = evolve_exact(model, kron(psi.projector(), env), t)
    red = partial_trace(rho_t, keep=set(range(model.lattice.n_qubits)))
    rotated = np.exp(-1j * _qubit_energies(model) * t) * psi.amplitudes
    return (rotated.conj() @ red.matrix @ rotated).real


@pytest.mark.parametrize("rank", [1, 2, 4])
def test_entanglement_curve_matches_dense_evolution(rank):
    from decolab.rng import random_density_matrix

    model, env = _two_qubit_thermal_model()
    rng = Xoshiro256pp(40 + rank)
    rho_s = DenseOperator.density_op(model.system_space(), random_density_matrix(rng, 4, rank=rank))
    u = random_unitary_matrix(rng, 4)
    times = np.linspace(0.0, 2.5, 6)
    for unitary in (None, u):
        curve = fidelity_curve(model, "entanglement", rho_s, env, times, ancilla_unitary=unitary)
        ref = [_reference_entanglement(model, env, rho_s, t, unitary) for t in times]
        assert np.abs(curve.values - ref).max() < 1e-12
    assert curve.values[-1] < 0.99  # the dynamics is far from trivial on this window


def test_io_and_average_curves_match_dense_evolution():
    from decolab.rng import random_decomposition, random_density_matrix

    model, env = _two_qubit_thermal_model()
    rng = Xoshiro256pp(7)
    space = model.system_space()
    times = np.linspace(0.0, 2.5, 6)
    amp = rng.complex_normals(4)
    psi = Ket(space, amp / np.linalg.norm(amp))
    for ket in (psi, ghz_ket(2)):  # full support, and support on 2 of 4 basis entries
        io = fidelity_curve(model, "io", ket, env, times)
        assert np.abs(io.values - [_reference_io(model, env, ket, t) for t in times]).max() < 1e-12
        ent = fidelity_curve(model, "entanglement", ket.projector(), env, times)
        assert np.abs(ent.values - io.values).max() < 1e-12
    members = tuple((p, Ket(space, amp))
                    for p, amp in random_decomposition(rng, random_density_matrix(rng, 4, rank=3), 5))
    avg = fidelity_curve(model, "average", Ensemble(members), env, times)
    ref = [sum(p * _reference_io(model, env, m, t) for p, m in members) for t in times]
    assert np.abs(avg.values - ref).max() < 1e-12


def test_quick_suite_diagonalises_each_model_once(monkeypatch, tmp_path):
    from decolab import oracle
    from decolab.cli import main

    keys = []
    init = oracle._Propagated.__init__

    def counting(self, model):
        keys.append((model.lattice, model.modes, model.n_max))
        init(self, model)

    monkeypatch.setattr(oracle._Propagated, "__init__", counting)
    assert main(["verify", "--suite", "quick", "--out", str(tmp_path / "quick.csv")]) == 0
    assert len(keys) == len(set(keys))
    assert len(keys) < 8  # fewer models than rows: scenarios share them


def test_time_batches_agree_with_single_time_steps(monkeypatch):
    from decolab import oracle
    from decolab.rng import random_density_matrix

    model, env = _two_qubit_thermal_model()
    rho_s = DenseOperator.density_op(model.system_space(), random_density_matrix(Xoshiro256pp(5), 4))
    times = np.linspace(0.0, 2.5, 9)
    prop = oracle._Propagated(model)
    curve = oracle._Curve(prop, model, "entanglement", rho_s, env)
    batched, taylor = curve.curve(times), oracle.taylor_coefficients(prop, curve)
    monkeypatch.setattr(oracle, "BATCH_ELEMENTS", 1)  # one time (or one order) per dense product
    single = curve.curve(times)
    assert np.abs(batched.values - single.values).max() < 1e-14
    assert np.abs(oracle.taylor_coefficients(prop, curve) - taylor).max() < 1e-14


def test_model_memo_builds_each_model_once_interleaved(monkeypatch):
    from decolab import oracle

    lattice = QubitLattice((0.0,), 1.0, 0.0, (1.0,))
    mode_sets = [BathModeSet((BathMode(0.0, 1.0, g),), 0.0) for g in (0.05, 0.07)]
    scenarios = [Scenario(f"s{i}", "io", lattice, mode_sets[i % 2], ground_ket(1), n_max=2) for i in range(12)]
    memo = oracle.ModelMemo(scenarios)
    built = []
    init = oracle._Propagated.__init__

    def counting(self, model):
        built.append(model.modes)
        init(self, model)

    monkeypatch.setattr(oracle._Propagated, "__init__", counting)
    got = [memo.get(lattice, s.modes, 2) for s in scenarios]
    assert len(built) == 2 and set(built) == set(mode_sets)  # one build per model
    for i, run in enumerate(got):
        assert run is got[i % 2] and run[0].modes == mode_sets[i % 2]
    assert memo._runs == {}  # every planned use consumed: nothing kept alive


def test_propagated_rejects_a_hamiltonian_that_breaks_parity():
    from dataclasses import replace

    from decolab.oracle import _Propagated
    from decolab.operators import embed, pauli

    model, _ = single_qubit_model(temperature=0.5, n_max=3)
    sx = embed(pauli("x"), 0, model.space)  # sx x 1: flips the qubit, keeps the bosons
    broken = replace(model, h_i=DenseOperator.hermitian_op(model.space, model.h_i.matrix + 0.3 * sx.matrix))
    with pytest.raises(ValueError, match="parity"):
        _Propagated(broken)
    _Propagated(model)  # the unbroken model diagonalises


def _with_one_coupling_entry(model, row, col):
    """The model with one extra entry in h_i, unflagged, so that only _Propagated's own checks can catch it."""
    from dataclasses import replace

    h = model.h_i.matrix.copy()
    h[row, col] += 0.3
    return replace(model, h_i=DenseOperator(model.space, h))


def test_propagated_rejects_an_entry_in_the_odd_even_block_alone():
    from decolab.oracle import _Propagated

    model, _ = single_qubit_model(temperature=0.5, n_max=3)
    parity = model.parity()
    odd, even = np.flatnonzero(parity == 1)[0], np.flatnonzero(parity == 0)[0]
    with pytest.raises(ValueError, match="parity"):
        _Propagated(_with_one_coupling_entry(model, odd, even))  # only the (odd, even) block is touched


@pytest.mark.parametrize("p", [0, 1])
def test_propagated_rejects_a_non_hermitian_sector_block(p):
    from decolab.oracle import _Propagated

    model, _ = single_qubit_model(temperature=0.5, n_max=3)
    i, j = np.flatnonzero(model.parity() == p)[:2]
    with pytest.raises(ValueError, match="not Hermitian"):
        _Propagated(_with_one_coupling_entry(model, i, j))


def test_propagated_keeps_sector_sized_eigenvectors():
    import tracemalloc

    from decolab.oracle import _Propagated
    from decolab.suites import _grid_lattice, _grid_modes

    model = build_hamiltonian(_grid_lattice(2), _grid_modes(4, 0.5), 3)  # the full-stack row's model
    n = model.space.dim
    assert n == 1024
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        prop = _Propagated(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prop.vec.shape[0] == n  # perfbench's tracer reads it as the model's dimension
    assert prop.vec.dtype == np.float64 and prop.vec.nbytes <= 8 * n * n // 2
    # H_total plus n x n complex eigenvectors take 2.5 x 16 n^2; complex n x n/2 ones
    # with one block's gather took 1.28
    assert peak - entry <= 1.1 * 16 * n * n


def _mirror_mode_model():
    from decolab.suites import _grid_lattice, _grid_modes

    model = build_hamiltonian(_grid_lattice(2), _grid_modes(2, 0.5), 2)
    return model, model.thermal_env_state()


def _mirror_columns(prop, idx):
    """W's block on the sector ``idx``, entry by entry from its definition diag(u^popcount(s)) x W_env.

    W_env sends a pair e < sigma(e) to (|e> + |sigma e>)/sqrt2 and
    i(|e> - |sigma e>)/sqrt2 and keeps a fixed point; without a basis W = 1.
    """
    w = np.eye(len(idx), dtype=complex)
    if prop.basis is None:
        return w
    de = len(prop.basis.mirror)
    where = {g: i for i, g in enumerate(idx.tolist())}
    h = math.sqrt(0.5)
    for i, g in enumerate(idx.tolist()):
        s, e = divmod(g, de)
        f = int(prop.basis.mirror[e])
        j = where[s * de + f]  # the mirror shares the sector
        w[i, i] = 0.0
        if f == e:
            w[i, i] = 1.0
        elif e < f:
            w[i, i] = w[j, i] = h
        else:  # the second state of the pair (f, e)
            w[j, i], w[i, i] = 1j * h, -1j * h
        w[:, i] *= prop.basis.phase[s]
    return w


def _eigenpair_errors(model, prop):
    """(max |V diag(lam) V^dag - H[idx, idx]|, max |Q^dag Q - 1|) over the sectors, with V = W Q."""
    h = model.total().matrix
    reassembly = orthogonality = 0.0
    for idx, cols in prop.sectors:
        q = prop.vec[idx]  # the sector's eigenvectors in W
        v = _mirror_columns(prop, idx) @ q
        reassembly = max(reassembly, np.abs((v * prop.lam[cols]) @ v.conj().T - h[np.ix_(idx, idx)]).max())
        orthogonality = max(orthogonality, np.abs(q.conj().T @ q - np.eye(len(idx))).max())
    return reassembly, orthogonality


def test_sector_eigenpairs_reassemble_the_total_hamiltonian():
    from test_model import _suite_models

    from decolab.oracle import _Propagated

    models = _suite_models()
    assert len(models) >= 20
    for model in models:  # every quick and full model
        prop = _Propagated(model)
        n = model.space.dim
        assert prop.vec.shape == (n, n // 2)
        assert prop.basis is not None and prop.vec.dtype == np.float64  # their modes pair one-to-one
        parity = model.parity()
        for p, (idx, _) in enumerate(prop.sectors):
            assert np.all(parity[idx] == p) and len(idx) == n // 2
        assert sorted(np.concatenate([idx for idx, _ in prop.sectors]).tolist()) == list(range(n))
        reassembly, orthogonality = _eigenpair_errors(model, prop)
        assert reassembly < 1e-12 and orthogonality < 1e-12, model.modes


@pytest.mark.parametrize("lambdas", [(1.0, 0.5), (0.0, 0.7), (0.0, 0.0)])
def test_mirror_basis_is_fixed_by_the_bath_symmetry(lambdas):
    # T = U K with U = D x P: P swaps the mirrored mode factors, D = x_l diag(1, u^2)
    from decolab.oracle import _Propagated

    lattice = QubitLattice((0.0, 0.7), *lambdas, (1.0, 0.8))
    modes = BathModeSet((BathMode(0.9, 1.0, 0.04), BathMode(0.0, 1.3, 0.05), BathMode(-0.9, 1.0, 0.04)), 0.5)
    model = build_hamiltonian(lattice, modes, 2)
    prop = _Propagated(model)
    basis = prop.basis
    mirror = np.zeros((len(basis.mirror),) * 2)
    mirror[basis.mirror, np.arange(len(basis.mirror))] = 1.0
    assert basis.mirror[0] == 0 and basis.mirror[1] == 9 and basis.mirror[3] == 3  # |001> <-> |100>, |010> kept
    u = np.kron(np.diag(basis.phase ** 2), mirror)
    h = model.total().matrix
    assert np.abs(u @ h.conj() @ u.conj().T - h).max() < 1e-14
    assert np.abs(u @ u.conj() - np.eye(len(h))).max() < 1e-14
    idx = np.arange(len(h))
    w = _mirror_columns(prop, idx)
    assert np.abs(u @ w.conj() - w).max() < 1e-14  # W is T-invariant
    assert np.abs((w.conj().T @ h @ w).imag).max() < 1e-14
    if lambdas == (0.0, 0.0):
        assert np.all(basis.phase == 1.0)


def test_sector_curves_match_dense_evolution_on_mirror_modes():
    from decolab.model import pair_encode
    from decolab.rng import random_density_matrix
    from decolab.states import computational_ensemble

    model, env = _mirror_mode_model()
    times = np.linspace(0.0, 2.5, 5)
    single = ghz_ket(2)
    mixed = (plus_all_ket(2), pair_encode(ground_ket(1), model.lattice))
    for ket in (single, *mixed):
        io = fidelity_curve(model, "io", ket, env, times)
        assert np.abs(io.values - [_reference_io(model, env, ket, t) for t in times]).max() < 1e-12
    rng = Xoshiro256pp(11)
    rho_s = DenseOperator.density_op(model.system_space(), random_density_matrix(rng, 4, rank=4))
    for unitary in (None, random_unitary_matrix(rng, 4)):
        ent = fidelity_curve(model, "entanglement", rho_s, env, times, ancilla_unitary=unitary)
        ref = [_reference_entanglement(model, env, rho_s, t, unitary) for t in times]
        assert np.abs(ent.values - ref).max() < 1e-12
    ensemble = computational_ensemble(2)
    avg = fidelity_curve(model, "average", ensemble, env, times)
    ref = [sum(p * _reference_io(model, env, m, t) for p, m in ensemble.members) for t in times]
    assert np.abs(avg.values - ref).max() < 1e-12
    assert avg.values[-1] < 0.999  # the window sees real decay


# models whose modes have no exact one-to-one mirror pairing, which keep the complex path
FALLBACK_MODES = {
    "repeated": BathModeSet((BathMode(0.9, 1.0, 0.04), BathMode(0.9, 1.0, 0.04), BathMode(-0.9, 1.0, 0.04)), 0.5),
    "near-mirror": BathModeSet((BathMode(0.9, 1.0, 0.04), BathMode(-0.9, 1.0, 0.04 * (1 + 1e-13))), 0.5),
}
# the complex path's (c2_fitted, passed) on the io GHZ, maximally mixed entanglement and
# computational-basis average rows of these models
FALLBACK_FITS = {
    "repeated": [(0.02228110279735569, True), (0.015005965273428006, True), (0.01500596523164808, True)],
    "near-mirror": [(0.01485406842147542, True), (0.010003976860367468, True), (0.010003976865029737, True)],
}


def _fallback_states():
    from decolab.states import computational_ensemble

    return [("io", ghz_ket(2)), ("entanglement", maximally_mixed_density(2)),
            ("average", computational_ensemble(2))]


@pytest.mark.parametrize("name", sorted(FALLBACK_MODES))
def test_modes_without_a_one_to_one_mirror_keep_the_complex_path(name):
    from decolab.oracle import _Propagated
    from decolab.suites import _grid_lattice

    assert FALLBACK_MODES[name].mirror_pairing() is None
    model = build_hamiltonian(_grid_lattice(2), FALLBACK_MODES[name], 2)
    env = model.thermal_env_state()
    prop = _Propagated(model)
    assert prop.basis is None and prop.vec.dtype == np.complex128
    assert max(_eigenpair_errors(model, prop)) < 1e-12
    times = np.linspace(0.0, 2.5, 5)
    for ket in (ghz_ket(2), plus_all_ket(2)):
        io = fidelity_curve(model, "io", ket, env, times)
        assert np.abs(io.values - [_reference_io(model, env, ket, t) for t in times]).max() < 1e-12
    rho_s = maximally_mixed_density(2)
    ent = fidelity_curve(model, "entanglement", rho_s, env, times)
    assert np.abs(ent.values - [_reference_entanglement(model, env, rho_s, t) for t in times]).max() < 1e-12
    for (kind, state), (c2, passed) in zip(_fallback_states(), FALLBACK_FITS[name]):
        rep = verify_expansion(Scenario(f"{name}-{kind}", kind, model.lattice, model.modes, state, 2))
        assert rep.passed == passed
        assert rep.c2_fitted == pytest.approx(c2, rel=1e-6)


def test_a_block_that_is_not_real_in_the_mirror_basis_keeps_the_complex_path():
    from dataclasses import replace

    from decolab.oracle import _Propagated

    model, env = _mirror_mode_model()
    assert _Propagated(model).basis is not None
    h = model.h_i.matrix.copy()
    i, j = np.argwhere(np.abs(h) > 0)[0]
    h[i, j] *= np.exp(0.3j)  # Hermitian and parity-conserving, but no longer T-symmetric
    h[j, i] = h[i, j].conj()
    broken = replace(model, h_i=DenseOperator.hermitian_op(model.space, h))
    prop = _Propagated(broken)
    assert prop.basis is None and prop.vec.dtype == np.complex128
    assert max(_eigenpair_errors(broken, prop)) < 1e-12
    times = np.linspace(0.0, 2.5, 5)
    io = fidelity_curve(broken, "io", ghz_ket(2), env, times)
    assert np.abs(io.values - [_reference_io(broken, env, ghz_ket(2), t) for t in times]).max() < 1e-12


def test_real_and_complex_paths_agree(monkeypatch):
    from decolab import oracle
    from decolab.rng import random_density_matrix

    model, thermal = _mirror_mode_model()
    rng = Xoshiro256pp(3)
    rho_s = DenseOperator.density_op(model.system_space(), random_density_matrix(rng, 4, rank=3))
    # an environment state with no mirror symmetry: its ensemble columns must go into W_env as well
    de = model.env_space().dim
    rho_env = DenseOperator.density_op(model.env_space(), random_density_matrix(rng, de, rank=de))
    inputs = [("io", plus_all_ket(2)), ("entanglement", rho_s), *_fallback_states()[2:]]
    times = np.linspace(0.0, 2.5, 9)

    def run():
        prop = oracle._Propagated(model)
        curves = [oracle._Curve(prop, model, kind, state, env) for kind, state in inputs for env in (thermal, rho_env)]
        reports = [verify_expansion(Scenario(kind, kind, model.lattice, model.modes, state, model.n_max))
                   for kind, state in inputs]
        return prop, [c.curve(times).values for c in curves], [oracle.taylor_coefficients(prop, c) for c in curves], reports

    real = run()
    monkeypatch.setattr(oracle, "_mirror_basis", lambda model: None)
    complex_ = run()
    assert real[0].vec.dtype == np.float64 and complex_[0].vec.dtype == np.complex128
    for a, b in zip(real[1], complex_[1]):
        assert np.abs(a - b).max() < 1e-12
    assert real[1][1][-1] < 0.999  # the window sees real decay under the asymmetric environment
    ket = inputs[0][1]
    assert np.abs(real[1][1] - [_reference_io(model, rho_env, ket, t) for t in times]).max() < 1e-12
    for a, b in zip(real[2], complex_[2]):
        assert np.abs(a - b).max() < 1e-13  # on the scale of F(0) = 1
    for a, b in zip(real[3], complex_[3]):
        assert a.passed == b.passed and a.c2_analytic == b.c2_analytic
        assert a.c2_fitted == pytest.approx(b.c2_fitted, rel=1e-6)


def test_sector_parts_keep_half_of_a_single_parity_input():
    from decolab.oracle import _Curve, _Propagated
    from decolab.suites import _grid_lattice, _grid_modes

    model = build_hamiltonian(_grid_lattice(2), _grid_modes(4, 0.5), 3)
    env = model.thermal_env_state()
    prop = _Propagated(model)
    ghz = _Curve(prop, model, "entanglement", ghz_ket(2).projector(), env)
    (_, parts), = ghz.members
    assert len(parts) == 2
    for part in parts:
        rows, kept_cols = part.rows.shape[1], part.kets.shape[2]
        assert (rows, kept_cols) == (128, 128)  # of 256 environment rows and 256 ensemble columns
    (_, parts), = _Curve(prop, model, "io", plus_all_ket(2), env).members
    assert [part.rows.shape[1] for part in parts] == [256, 256]


# --- one certified fit per row -------------------------------------------------

def test_quick_suite_evaluates_each_sample_once(monkeypatch, tmp_path):
    from decolab import oracle
    from decolab.cli import main

    calls = []
    advance = oracle._Propagated.advance

    def recording(self, curve, t):
        calls.append(np.atleast_1d(t).size)
        return advance(self, curve, t)

    monkeypatch.setattr(oracle._Propagated, "advance", recording)
    out = tmp_path / "quick.csv"
    assert main(["verify", "--suite", "quick", "--out", str(out)]) == 0
    rows = len(out.read_text().splitlines()) - 1  # every quick row is fitted
    assert calls == [oracle.FIT_POINTS] * rows  # one advance call of one grid per row


@pytest.mark.parametrize("kd", [0.01, 0.02, 0.04])
def test_encoded_pair_fit_is_certified_at_small_kd(kd):
    # one +-k pair at k d = kd: on the encoded input 1 - F saturates near 2e-6
    # and the short-time regime ends near t ~ 1
    from decolab.model import pair_encode

    lattice = QubitLattice((0.0, 1.0), 1.0, 0.5)
    modes = BathModeSet.symmetric([(kd, 1.0, 0.05)], 0.0)
    rep = verify_expansion(Scenario(f"kd-{kd}", "io", lattice, modes, pair_encode(ground_ket(1), lattice), 2))
    assert rep.passed
    assert rep.rel_err <= 1e-5


@pytest.fixture(scope="module")
def fitted_rows():
    """Per fitted quick/full row: scenario, report, scale, Taylor coefficients, model closed form."""
    from decolab import oracle
    from decolab.fidelity import closed_form_c2
    from decolab.suites import suite_tasks

    rows = []
    verify_once, get, taylor = oracle._verify_once, oracle.ModelMemo.get, oracle.taylor_coefficients

    def recording_verify(scenario, memo):
        row = {"scenario": scenario}
        rows.append(row)
        row["report"] = verify_once(scenario, memo)
        model, rho_env, row["scale"], _ = row.pop("run")
        row["c2_model"] = float(closed_form_c2(scenario.fidelity_kind, scenario.state, model.h_i, rho_env))
        return row["report"]

    def recording_get(self, *key):
        rows[-1]["run"] = get(self, *key)
        return rows[-1]["run"]

    def recording_taylor(prop, curve):
        rows[-1]["c"] = taylor(prop, curve)
        return rows[-1]["c"]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_verify_once", recording_verify)
        mp.setattr(oracle.ModelMemo, "get", recording_get)
        mp.setattr(oracle, "taylor_coefficients", recording_taylor)
        for suite in ("quick", "full"):
            for _, run in suite_tasks(suite, 0):
                run()
    return rows


def test_taylor_coefficients_match_the_closed_form(fitted_rows):
    # a second oracle, independent of the fit: c2 from the exact Taylor terms
    checked = 0
    for row in fitted_rows:
        if row["scale"] == 0.0:
            continue  # no coupling: the fit runs without coefficients
        c, scale, c2 = row["c"], row["scale"], row["c2_model"]
        assert abs(c[2] - c2) <= 1e-10 * max(abs(c2), scale), row["scenario"].name
        assert abs(c[1]) <= 1e-12 * scale, row["scenario"].name
        checked += 1
    assert checked >= 95


def test_fit_error_stays_within_its_bound(fitted_rows):
    closed_form = [row for row in fitted_rows if row["scenario"].kind != "factorized-rate"]
    assert len(closed_form) >= 95
    for row in closed_form:
        rep = row["report"]
        assert rep.rel_err <= rep.bound, rep.scenario


def test_fit_window_is_the_error_bound_minimiser():
    from decolab import oracle

    # the 9-point quartic design's s^2 row
    beta5, beta6, gamma = oracle._c2_row_weights()
    assert (round(beta5, 4), round(beta6, 4), round(gamma, 2)) == (0.7412, 1.8199, 155.45)
    noise = gamma * oracle.SAMPLE_ROUNDING
    c6_only = np.array([0, 0, 1e-3, 0, 0, 0, 2e-4])
    t, err = oracle._fit_window(c6_only)
    b = beta6 * 2e-4
    assert t == pytest.approx((noise / (2 * b)) ** (1 / 6), rel=1e-12)
    assert err == pytest.approx(b * t ** 4 + noise / t ** 2, rel=1e-12)
    c5_only = np.array([0, 0, 1e-3, 0, 0, -3e-4, 0])
    t, _ = oracle._fit_window(c5_only)
    assert t == pytest.approx((2 * noise / (3 * beta5 * 3e-4)) ** (1 / 5), rel=1e-12)
    both = np.array([0, 0, 1e-3, 5e-4, 1e-4, 3e-4, -2e-4])
    t, err = oracle._fit_window(both)
    a, b = beta5 * 3e-4, beta6 * 2e-4
    assert 4 * b * t ** 6 + 3 * a * t ** 5 == pytest.approx(2 * noise, rel=1e-12)
    for off in (0.99, 1.01):
        assert a * (off * t) ** 3 + b * (off * t) ** 4 + noise / (off * t) ** 2 > err
    with pytest.raises(ConvergenceError, match="c5 = c6 = 0"):
        oracle._fit_window(np.array([0, 0, 1e-3, 0, 1e-4, 0, 0]))


def test_uncertified_window_fails_loudly(monkeypatch):
    from decolab import oracle

    advanced = []
    monkeypatch.setattr(oracle._Propagated, "advance", lambda self, curve, t: advanced.append(t))
    # t^5 and t^6 terms this large leave no window whose bias and rounding stay under 1e-2 of c2
    monkeypatch.setattr(oracle, "taylor_coefficients", lambda prop, curve: np.array([0, 0, G * G, 0, 0, 1e9, 1e9]))
    model, _ = single_qubit_model()
    with pytest.raises(ConvergenceError, match=r"B = .* is not below the pass tolerance 0\.01"):
        verify_expansion(Scenario("uncertified", "io", model.lattice, model.modes, ground_ket(1)))
    assert advanced == []  # refused before any sample is propagated
