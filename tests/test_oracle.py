import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from decolab.errors import ConvergenceError
from decolab.fidelity import Ensemble, closed_form_c2
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


def test_entanglement_curve_needs_a_density():
    model, env = single_qubit_model(temperature=0.5)
    times = np.linspace(0.0, 0.6, 5)
    half = DenseOperator.hermitian_op(model.system_space(), np.eye(2) / 2)  # the right matrix, not flagged
    with pytest.raises(ValueError, match="density-flagged"):
        fidelity_curve(model, "entanglement", half, env, times)
    with pytest.raises(ValueError, match="density-flagged"):  # the closed form's mixture keeps the flags
        closed_form_c2("entanglement", half, model.h_i, env)
    fidelity_curve(model, "entanglement", maximally_mixed_density(1), env, times)


@pytest.mark.parametrize("g", [0.3, 1e-4])
def test_window_selection_across_coupling_scales(g):
    lattice = QubitLattice((0.0,), 1.0, 0.0, (1.0,))
    modes = BathModeSet((BathMode(0.0, 1.0, g),), 0.0)
    rep = verify_expansion(Scenario(f"g{g}", "io", lattice, modes, ground_ket(1)))
    assert rep.passed
    assert rep.rel_err < 1e-6


def _weak_scenario(g):
    return Scenario("weak", "io", QubitLattice((0.0,), 1.0, 0.0, (1.0,)), BathModeSet((BathMode(0.0, 1.0, g),), 0.0),
                    ground_ket(1))


def test_weak_bath_is_judged_against_its_own_coupling_scale(monkeypatch):
    # g = 1e-6 gives c2 = 1e-12: an absolute floor of 1e-10 let a fit 50 times too large pass as flat
    from dataclasses import replace

    from decolab import oracle

    scenario = _weak_scenario(1e-6)
    rep = verify_expansion(scenario)
    assert rep.c2_analytic == pytest.approx(1e-12, rel=1e-12)
    assert rep.passed and rep.rel_err < 1e-5
    fit = oracle.estimate_c2
    monkeypatch.setattr(oracle, "estimate_c2", lambda curve: replace(fit(curve), c2_hat=50 * rep.c2_analytic))
    assert not verify_expansion(scenario).passed


def test_convergence_shift_is_judged_against_its_own_coupling_scale(monkeypatch):
    # c2 = g^2; doubling n_max from 2 to 4 moves the fit by 2.2e-7 and 2.3e-6 of c2 at g = 1e-4 and 1e-6,
    # and by 1.0e-10 of c2 at g = 1e-8, whose fit window is far wider
    from dataclasses import replace

    from decolab import oracle

    for g in (1e-4, 1e-6):
        with pytest.raises(ConvergenceError, match="doubling n_max"):
            verify_expansion(_weak_scenario(g), check_convergence=True)
    assert verify_expansion(_weak_scenario(1e-8), check_convergence=True).passed
    # a shift of 5e-7 of c2 = 1e-16 read as 5e-9 against an absolute floor of 1e-14, and passed
    once = oracle._verify_once

    def shifted(scenario, memo):  # the doubled run's fit, 5e-7 of c2 away
        rep = once(scenario, memo)
        return replace(rep, c2_fitted=rep.c2_fitted * (1.0 + 5e-7)) if scenario.n_max == 4 else rep

    monkeypatch.setattr(oracle, "_verify_once", shifted)
    with pytest.raises(ConvergenceError, match="doubling n_max"):
        verify_expansion(_weak_scenario(1e-8), check_convergence=True)


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


def _truncated_correlation(modes, n_max):
    """Omega^2_n(d) = 2 sum_k g_k^2 cos(k d) (<a^dag a>_n + <a a^dag>_n) in the truncated thermal state.

    a^dag annihilates the top level, so it drops out of <a a^dag>_n.
    """
    from decolab.operators import thermal_boson_state

    levels = np.arange(n_max + 1)
    terms = []
    for m in modes.modes:
        p = np.diagonal(thermal_boson_state(m.omega, modes.temperature, n_max).matrix).real
        terms.append((m.k, m.g * m.g * (levels @ p + levels[1:] @ p[:-1])))
    return lambda d: 2.0 * sum(w * math.cos(k * d) for k, w in terms)


def test_truncated_correlation_factorizes_the_truncated_variance_form():
    # the paper's identity holds exactly at any truncation once Omega^2 is the truncated bath's own
    from decolab import oracle
    from decolab.model import rate_from_correlation
    from decolab.suites import FACTORIZATION_COMBOS, _grid_lattice, _grid_modes, _grid_scenarios

    cases = []
    for L, K, t_ratio in FACTORIZATION_COMBOS:
        modes = _grid_modes(K, t_ratio)
        rho_s = maximally_mixed_density(1) if L == 1 else ghz_ket(L).projector()
        for n_max in sorted({2, 3, oracle.tail_n_max(modes)}):
            if 2 ** L * (n_max + 1) ** K <= oracle.dimension_cap():
                cases.append((_grid_lattice(L), modes, n_max, rho_s))
    combos = len(cases)
    for sc in _grid_scenarios():  # every full grid model, under its io and entanglement inputs
        if sc.kind != "average":
            rho_s = sc.state if sc.kind == "entanglement" else sc.state.projector()
            cases.append((sc.lattice, sc.modes, sc.n_max, rho_s))
    assert combos == 28 and len(cases) - combos == 72  # a repeated level counts once
    models = {}
    for lattice, modes, n_max, rho_s in cases:
        key = lattice, modes, n_max
        if key not in models:
            model = build_hamiltonian(*key)
            models[key] = model, model.thermal_env_state()
        model, env = models[key]
        omega2 = _truncated_correlation(modes, n_max)
        vf = closed_form_c2("entanglement", rho_s, model.h_i, env)
        rate = rate_from_correlation(lattice, omega2, rho_s)
        # an encoded row's rate cancels to rounding, so its gap is judged against the correlation scale
        assert abs(rate - vf) <= 1e-12 * max(vf, omega2(0.0)), (key, vf, rate)


def _qubit_energies(model):
    """The diagonal of sum_l (w0_l/2) sz_l on the qubit space, embedded factor by factor."""
    from decolab.operators import embed, pauli

    space = model.system_space()
    h0 = sum(0.5 * w0 * embed(pauli("z"), l, space).matrix for l, w0 in enumerate(model.lattice.h0_splittings))
    return np.diagonal(h0).real


def _two_qubit_thermal_model(temperature=0.6):
    lattice = QubitLattice((0.0, 0.7), 1.0, 0.5, (1.0, 0.8))
    modes = BathModeSet((BathMode(0.0, 1.0, 0.3),), temperature)
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
    curve = fidelity_curve(model, "entanglement", rho_s, env, times)
    for unitary in (None, u):  # any purification of rho_s gives the reference the same curve
        ref = [_reference_entanglement(model, env, rho_s, t, unitary) for t in times]
        assert np.abs(curve.values - ref).max() < 1e-12
    assert curve.values[-1] < 0.99  # the dynamics is far from trivial on this window


@pytest.mark.parametrize("temperature", [0.0, 0.6])
def test_io_and_average_curves_match_dense_evolution(temperature):
    # at T = 0 the vacuum is the only Fock column, so every part whose columns would be odd is skipped
    from decolab import oracle
    from decolab.model import pair_encode
    from decolab.rng import random_decomposition, random_density_matrix

    model, env = _two_qubit_thermal_model(temperature)
    rng = Xoshiro256pp(7)
    space = model.system_space()
    times = np.linspace(0.0, 2.5, 6)
    amp = rng.complex_normals(4)
    psi = Ket(space, amp / np.linalg.norm(amp))
    # full support, support on 2 of 4 basis entries, and two inputs with entries between the parities
    for ket in (psi, ghz_ket(2), plus_all_ket(2), pair_encode(ground_ket(1), model.lattice)):
        io = fidelity_curve(model, "io", ket, env, times)
        assert np.abs(io.values - [_reference_io(model, env, ket, t) for t in times]).max() < 1e-12
        ent = fidelity_curve(model, "entanglement", ket.projector(), env, times)
        assert np.abs(ent.values - io.values).max() < 1e-12
    curve = oracle._Curve(oracle._Propagated(model), model, "io", plus_all_ket(2), env)
    (_, parts), = curve.members
    assert len(parts) == (2 if temperature == 0.0 else 4)  # no part is kept for a column parity without columns
    members = tuple((p, Ket(space, amp))
                    for p, amp in random_decomposition(rng, random_density_matrix(rng, 4, rank=3), 5))
    avg = fidelity_curve(model, "average", Ensemble(members), env, times)
    ref = [sum(p * _reference_io(model, env, m, t) for p, m in members) for t in times]
    assert np.abs(avg.values - ref).max() < 1e-12


def test_quick_suite_diagonalises_each_run_of_a_model_once(monkeypatch, tmp_path):
    from decolab import oracle
    from decolab.cli import main

    keys = []
    init = oracle._Propagated.__init__

    def counting(self, model):
        keys.append((model.lattice, model.modes.modes, model.n_max))
        init(self, model)

    monkeypatch.setattr(oracle._Propagated, "__init__", counting)
    assert main(["verify", "--suite", "quick", "--out", str(tmp_path / "quick.csv")]) == 0
    assert all(a != b for a, b in zip(keys, keys[1:]))  # consecutive rows on one model share its diagonalisation


def test_full_suite_holds_one_diagonalised_model_at_a_time(monkeypatch, tmp_path):
    import weakref

    from decolab import oracle
    from decolab.cli import main

    held = []
    init = oracle._Propagated.__init__

    def diagonalising(self, model):
        assert all(ref() is None for ref in held)  # every earlier model is gone before the next is diagonalised
        init(self, model)
        held.append(weakref.ref(self))

    monkeypatch.setattr(oracle._Propagated, "__init__", diagonalising)
    assert main(["verify", "--suite", "full", "--out", str(tmp_path / "full.csv")]) == 0
    # the grid's 12 Hamiltonians (per L: K=1 at three levels, K=2 at two, K=4 at one; the temperatures that
    # share a level share one), the full-stack model, and the convergence gate's model at its n_max and twice that
    assert len(held) == 15


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


def test_model_memo_holds_one_model_at_a_time(monkeypatch):
    import weakref

    from decolab import oracle

    lattice = QubitLattice((0.0,), 1.0, 0.0, (1.0,))
    mode_sets = [BathModeSet((BathMode(0.0, 1.0, g),), 0.0) for g in (0.05, 0.07)]
    order = (0, 0, 0, 1, 1, 0)
    memo = oracle.ModelMemo()
    built, held = [], []
    build, init = oracle.build_hamiltonian, oracle._Propagated.__init__

    def building(lattice, modes, n_max):
        assert all(ref() is None for ref in held)  # the held model is dropped before the next one is built
        built.append(modes)
        return build(lattice, modes, n_max)

    def diagonalising(self, model):
        init(self, model)
        held.append(weakref.ref(self))

    monkeypatch.setattr(oracle, "build_hamiltonian", building)
    monkeypatch.setattr(oracle._Propagated, "__init__", diagonalising)
    props = [weakref.ref(memo.get(lattice, mode_sets[i], 2)[3]) for i in order]
    assert built == [mode_sets[i] for i in (0, 1, 0)]  # consecutive uses share one build; a key change rebuilds
    assert props[5]() is held[2]() is not None  # the memo holds the current model, and only that one

    def failing(lattice, modes, n_max):
        raise ValueError("no model")

    monkeypatch.setattr(oracle, "build_hamiltonian", failing)
    with pytest.raises(ValueError, match="no model"):
        memo.get(lattice, mode_sets[1], 2)
    assert held[2]() is None  # a build that raises leaves the memo empty
    monkeypatch.setattr(oracle, "build_hamiltonian", building)
    assert memo.get(lattice, mode_sets[1], 2)[0].modes == mode_sets[1]


def test_model_memo_shares_the_hamiltonian_across_temperatures(monkeypatch):
    from decolab import oracle

    lattice = QubitLattice((0.0,), 1.0, 0.0, (1.0,))
    warm, hot = (BathModeSet((BathMode(0.0, 1.0, 0.05),), t) for t in (0.5, 2.0))
    scenarios = [Scenario(f"s{i}", "io", lattice, modes, ground_ket(1), n_max=3)
                 for i, modes in enumerate((warm, warm, hot))]
    memo = oracle.ModelMemo()
    built = []
    init = oracle._Propagated.__init__

    def counting(self, model):
        built.append(model.modes)
        init(self, model)

    monkeypatch.setattr(oracle._Propagated, "__init__", counting)
    runs = [memo.get(lattice, s.modes, 3) for s in scenarios]
    assert built == [warm]  # one diagonalisation for both temperatures
    assert runs[0] is runs[1] and runs[2][3] is runs[0][3]
    assert runs[2][0].modes == hot and runs[2][0].h_i is runs[0][0].h_i
    for run, modes in zip(runs[1:], (warm, hot)):  # each temperature keeps its own state and scale
        direct = build_hamiltonian(lattice, modes, 3)
        rho_env = direct.thermal_env_state()
        assert np.array_equal(run[1].matrix, rho_env.matrix)
        assert run[2] == oracle._scale_moment(direct, rho_env)


def test_advance_returns_one_at_time_zero_without_propagating(monkeypatch):
    from decolab import oracle

    model, env = single_qubit_model(temperature=0.5)
    prop = oracle._Propagated(model)
    curve = oracle._Curve(prop, model, "io", plus_all_ket(1), env)
    times = np.array([0.0, 0.3, 0.0, 0.7])
    values = prop.advance(curve, times)
    assert values[0] == 1.0 and values[2] == 1.0
    assert np.array_equal(values[[1, 3]], prop.advance(curve, times[[1, 3]]))
    monkeypatch.setattr(oracle, "_amplitudes", None)  # any propagation would fail
    assert np.array_equal(prop.advance(curve, 0.0), [1.0])


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
    # vec, the complex sector block and one budget of mirror-pair mixing: measured 0.669 x 16 n^2, plus a 5%
    # margin. Mixing the pairs in one piece reached 0.855, a Hermiticity check over a whole sector block at once
    # 1.03, and H_total plus n x n complex eigenvectors 2.5
    assert peak - entry <= 0.703 * 16 * n * n


def test_propagated_mixes_the_mirror_pairs_in_chunks_bit_for_bit(monkeypatch):
    from decolab import oracle

    model, _ = _mirror_mode_model()
    whole = oracle._Propagated(model)
    monkeypatch.setattr(oracle, "BATCH_ELEMENTS", 1)  # one mirror pair per chunk
    paired = oracle._Propagated(model)
    assert np.array_equal(paired.lam, whole.lam) and np.array_equal(paired.vec, whole.vec)


def _traced_growth(run):
    """(result, peak and kept tracemalloc growth of ``run()`` above its entry)."""
    import tracemalloc

    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        out = run()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - entry, now - entry


def test_oracle_temporaries_stay_within_one_budget():
    # on the full-stack row's model, taylor_coefficients and advance hold at most two budgets of temporaries
    # beyond what they keep (unchunked, they reached 12.5 and 7.5), and a curve at most a quarter budget beyond
    # its parts (measured 0.04; with kets and dense environment columns it grew 1.26-2.01 budgets)
    from decolab import oracle
    from decolab.suites import _grid_lattice, _grid_modes

    model = build_hamiltonian(_grid_lattice(2), _grid_modes(4, 0.5), 3)
    env = model.thermal_env_state()
    prop = oracle._Propagated(model)
    budget = 16 * oracle.BATCH_ELEMENTS
    times = np.linspace(0.0, 0.5, oracle.FIT_POINTS)
    for kind, state in (("entanglement", ghz_ket(2).projector()), ("io", plus_all_ket(2)),
                        ("entanglement", maximally_mixed_density(2))):
        curve, peak, kept = _traced_growth(lambda: oracle._Curve(prop, model, kind, state, env))
        # the parts of one environment parity share their rows
        rows = {id(p.rows): p.rows.nbytes for _, ps in curve.members for p in ps}
        parts = sum(rows.values()) + sum(p.gram.nbytes for _, ps in curve.members for p in ps)
        assert parts <= kept <= parts + budget // 8, kind  # the parts are what a curve keeps
        if kind == "io":  # a mixed-parity input holds no zero rows (4 budgets when it did)
            assert sum(rows.values()) <= 2 * budget
        assert peak <= parts + budget // 4, kind  # no dense environment columns and no kets
        for stage in (lambda: oracle.taylor_coefficients(prop, curve), lambda: prop.advance(curve, times)):
            _, peak, kept = _traced_growth(stage)
            assert peak <= 2 * budget and kept <= budget // 64, kind


def _mirror_mode_model():
    from decolab.suites import _grid_lattice, _grid_modes

    model = build_hamiltonian(_grid_lattice(2), _grid_modes(2, 0.5), 2)
    return model, model.thermal_env_state()


def _mirror_columns(prop, idx):
    """W's block on the sector ``idx``, entry by entry from its definition diag(u^popcount(s)) x W_env.

    W_env sends a pair e < sigma(e) to (|e> + |sigma e>)/sqrt2 and
    i(|e> - |sigma e>)/sqrt2 and keeps a fixed point.
    """
    w = np.eye(len(idx), dtype=complex)
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
        assert prop.vec.dtype == np.float64
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
    from decolab import oracle
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
    ent = fidelity_curve(model, "entanglement", rho_s, env, times)
    for unitary in (None, random_unitary_matrix(rng, 4)):
        ref = [_reference_entanglement(model, env, rho_s, t, unitary) for t in times]
        assert np.abs(ent.values - ref).max() < 1e-12
    # an even block and an odd block with no entry between them: G keeps no pair of unequal parities, so each
    # environment parity has one part, whose columns share its parity
    ghz, odd = ghz_ket(2).projector().matrix, np.diag([0.0, 1.0, 0.0, 0.0])  # |01><01|
    split = DenseOperator.density_op(model.system_space(), 0.5 * ghz + 0.5 * odd)
    prop = oracle._Propagated(model)
    for rho in (maximally_mixed_density(2), split):
        (_, parts), = oracle._Curve(prop, model, "entanglement", rho, env).members
        assert len(parts) == 2
        ent = fidelity_curve(model, "entanglement", rho, env, times)
        assert np.abs(ent.values - [_reference_entanglement(model, env, rho, t) for t in times]).max() < 1e-12
    ensemble = computational_ensemble(2)
    avg = fidelity_curve(model, "average", ensemble, env, times)
    ref = [sum(p * _reference_io(model, env, m, t) for p, m in ensemble.members) for t in times]
    assert np.abs(avg.values - ref).max() < 1e-12
    assert avg.values[-1] < 0.999  # the window sees real decay


def test_a_block_that_is_not_real_in_the_mirror_basis_keeps_the_complex_path():
    # the name is kept from when such a block fell back to complex eigenvectors; now it is rejected
    from dataclasses import replace

    from decolab.oracle import _Propagated

    model, _ = _mirror_mode_model()
    h = model.h_i.matrix.copy()
    i, j = np.argwhere(np.abs(h) > 0)[0]
    h[i, j] *= np.exp(0.3j)  # Hermitian and parity-conserving, but no longer T-symmetric
    h[j, i] = h[i, j].conj()
    broken = replace(model, h_i=DenseOperator.hermitian_op(model.space, h))
    with pytest.raises(ValueError, match="not real in the mirror basis"):
        _Propagated(broken)


def test_real_and_complex_paths_agree():
    # the name is kept from when a complex path ran beside the real one; the real path's curves are
    # checked against the dense reference and its Taylor c2 against the closed form, and an environment
    # state with no mirror symmetry is rejected
    from decolab import oracle
    from decolab.rng import random_density_matrix
    from decolab.states import computational_ensemble

    model, env = _mirror_mode_model()
    rng = Xoshiro256pp(3)
    rho_s = DenseOperator.density_op(model.system_space(), random_density_matrix(rng, 4, rank=3))
    times = np.linspace(0.0, 2.5, 9)
    prop = oracle._Propagated(model)
    assert prop.vec.dtype == np.float64
    ket = plus_all_ket(2)
    ensemble = computational_ensemble(2)
    references = {
        "io": [_reference_io(model, env, ket, t) for t in times],
        "entanglement": [_reference_entanglement(model, env, rho_s, t) for t in times],
        "average": [sum(p * _reference_io(model, env, m, t) for p, m in ensemble.members) for t in times],
    }
    for kind, state in (("io", ket), ("entanglement", rho_s), ("average", ensemble)):
        curve = oracle._Curve(prop, model, kind, state, env)
        values = curve.curve(times).values
        assert np.abs(values - references[kind]).max() < 1e-12, kind
        assert values[-1] < 0.999, kind  # the window sees real decay
        c2 = closed_form_c2(kind, state, model.h_i, env)
        assert abs(oracle.taylor_coefficients(prop, curve)[2] - c2) <= 1e-10 * c2, kind
    de = model.env_space().dim
    rho_env = DenseOperator.density_op(model.env_space(), random_density_matrix(rng, de, rank=de))
    with pytest.raises(ValueError, match="diagonal in the Fock basis"):
        oracle._Curve(prop, model, "entanglement", rho_s, rho_env)


def _four_mirror_mode_model():
    """One qubit and the modes k = 0.9, 1.6, -0.9, -1.6: each mirror pair is two positions apart."""
    lattice = QubitLattice((0.0,), 1.0, 0.5, (1.0,))
    modes = BathModeSet(tuple(BathMode(k, 1.0 + 0.2 * abs(k), 0.05) for k in (0.9, 1.6, -0.9, -1.6)), 1.0)
    model = build_hamiltonian(lattice, modes, 2)
    return model, model.thermal_env_state()


def test_fidelity_curve_takes_only_a_mirror_symmetric_fock_diagonal_environment():
    from decolab import oracle
    from decolab.oracle import _mirror_basis

    model, env = _four_mirror_mode_model()
    times = np.linspace(0.0, 2.5, 5)
    psi = plus_all_ket(1)
    weights, mirror = np.diagonal(env.matrix).real, _mirror_basis(model).mirror
    gap = np.abs(weights - weights[mirror]).max()
    assert 0.0 < gap <= oracle.ENV_WEIGHT_CUTOFF  # unequal at rounding level, so an exact check would refuse it
    curve = fidelity_curve(model, "io", psi, env, times)
    assert np.abs(curve.values - [_reference_io(model, env, psi, t) for t in times]).max() < 1e-12
    assert curve.values[-1] < 0.999  # the window sees real decay

    de = len(weights)
    off = env.matrix.copy()
    off[0, 1] = off[1, 0] = 1e-3
    with pytest.raises(ValueError, match="diagonal in the Fock basis"):
        fidelity_curve(model, "io", psi, DenseOperator.density_op(model.env_space(), off), times)
    e = int(np.flatnonzero(mirror != np.arange(de))[0])  # one state of a mirror pair
    skewed = np.diag(weights).astype(complex)
    skewed[e, e] += 1e-3
    skewed[mirror[e], mirror[e]] -= 1e-3
    with pytest.raises(ValueError, match="mirror pair differ by 2.000e-03"):
        fidelity_curve(model, "io", psi, DenseOperator.density_op(model.env_space(), skewed), times)


def test_sector_parts_keep_half_of_a_single_parity_input():
    from decolab.oracle import _Curve, _Propagated
    from decolab.suites import _grid_lattice, _grid_modes

    model = build_hamiltonian(_grid_lattice(2), _grid_modes(4, 0.5), 3)
    env = model.thermal_env_state()
    prop = _Propagated(model)
    ghz = _Curve(prop, model, "entanglement", ghz_ket(2).projector(), env)
    (_, parts), = ghz.members
    assert len(parts) == 2
    for part in parts:  # rows are (env, support, sector)
        assert part.rows.shape == (128, 2, 512) and part.rows.flags.c_contiguous
        assert len(ghz.columns[part.col_parity][0]) == 128  # of 256 environment rows and 256 ensemble columns
    (_, parts), = _Curve(prop, model, "io", plus_all_ket(2), env).members
    assert len(parts) == 4 and len({id(part.rows) for part in parts}) == 2
    for part in parts:
        assert part.rows.shape == (128, 4, 512) and np.all(np.any(part.rows, axis=2))  # no all-zero row


def test_block_parts_are_disjoint_blocks_of_the_amplitudes():
    # each part is one (environment parity, column parity) block, and the parts of one environment parity
    # read one rows array
    from decolab.oracle import _Curve, _Propagated

    model, env = _two_qubit_thermal_model(0.6)
    prop = _Propagated(model)
    full, diagonal = {(0, 0), (0, 1), (1, 0), (1, 1)}, {(0, 0), (1, 1)}
    for kind, state, blocks in (("io", plus_all_ket(2), full), ("entanglement", maximally_mixed_density(2), diagonal),
                                ("entanglement", ghz_ket(2).projector(), diagonal)):
        (_, parts), = _Curve(prop, model, kind, state, env).members
        pairs, rows = [], {}
        for part in parts:
            eps, = [q for q, e in enumerate(prop.env) if part.rows.shape[0] == len(e)
                    and np.array_equal(part.rows, prop.rows[part.support, e[:, None]])]
            pairs.append((eps, part.col_parity))
            rows.setdefault(eps, set()).add(id(part.rows))
        assert len(pairs) == len(blocks) and set(pairs) == blocks, kind
        assert all(len(ids) == 1 for ids in rows.values()), kind


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


# the full suite's grid-L2-K4 rows, with each row's bound and the denominator its rel_err and bound share
_GRID_ROWS_CHILD = """
import json
from decolab.oracle import FLAT_C2_FRACTION, ModelMemo, verify_expansion
from decolab.suites import _grid_scenarios
memo, rows = ModelMemo(), []
for sc in _grid_scenarios():
    if sc.name.startswith("grid-L2-K4-"):
        r = verify_expansion(sc, False, memo)
        scale = memo.get(sc.lattice, sc.modes, r.n_max)[2]
        denom = (scale or 1.0) if r.c2_analytic <= FLAT_C2_FRACTION * scale else r.c2_analytic  # as _verify_once
        rows.append([r.scenario, r.c2_fitted, r.bound, denom, r.passed])
print(json.dumps(rows))
"""


def _grid_rows_on_blas_threads(n):
    threads = {var: str(n) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = {**os.environ, **threads, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", _GRID_ROWS_CHILD], env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_blas_thread_count_moves_fitted_c2_only_within_the_certified_bound():
    # BLAS may sum in another order on more threads; a row's fit may move, but not by its bound, and no pass cell
    one, two = _grid_rows_on_blas_threads(1), _grid_rows_on_blas_threads(2)
    assert len(one) == 18 and [r[0] for r in one] == [r[0] for r in two]
    for (name, c2_one, bound_one, denom, passed_one), (_, c2_two, bound_two, _, passed_two) in zip(one, two):
        assert passed_one == passed_two, name
        assert abs(c2_one - c2_two) / denom <= min(bound_one, bound_two), name
