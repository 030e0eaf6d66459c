import dataclasses
import math
import re

import numpy as np
import pytest

from decolab.fidelity import closed_form_c2
from decolab.model import (
    BathMode,
    BathModeSet,
    ModelHamiltonian,
    QubitLattice,
    _covariances,
    _coupling_stack,
    build_hamiltonian,
    correlation_fn_discrete,
    pair_encode,
    pair_rate,
    rate_from_correlation,
    thermal_occupation_factor,
)
from decolab.operators import DenseOperator, HilbertSpace, Ket, boson_ops, embed, partial_trace, pauli
from decolab.states import ghz_ket, ground_ket, plus_all_ket


def test_coupling_op_axis_cases():
    lat_x = QubitLattice((0.0,), 1.0, 0.0)
    assert np.abs(_coupling_stack(lat_x)[0] - pauli("x").matrix).max() == 0.0
    lat_y = QubitLattice((0.0,), 0.0, 1.0)
    assert np.abs(_coupling_stack(lat_y)[0] - pauli("y").matrix).max() == 0.0


def test_coupling_op_eigenvalues_three_four():
    lat = QubitLattice((0.0, 1.0), 3.0, 4.0)
    for a_l in _coupling_stack(lat):
        eig = np.linalg.eigvalsh(a_l)
        assert np.abs(eig - np.array([-5.0, -5.0, 5.0, 5.0])).max() < 1e-12


def test_lattice_validation():
    with pytest.raises(ValueError):
        QubitLattice((0.0, 0.0), 1.0, 0.0)
    with pytest.raises(ValueError):
        QubitLattice((1.0, 0.0), 1.0, 0.0)
    with pytest.raises(ValueError):
        QubitLattice((0.0,), 1.0, 0.0, (1.0, 2.0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field, build", [
    pytest.param("positions[1]", lambda v: QubitLattice((0.0, v), 1.0, 0.5), id="positions"),
    pytest.param("lambda1", lambda v: QubitLattice((0.0,), v, 0.5), id="lambda1"),
    pytest.param("lambda2", lambda v: QubitLattice((0.0,), 1.0, v), id="lambda2"),
    pytest.param("h0_splittings[0]", lambda v: QubitLattice((0.0,), 1.0, 0.5, (v,)), id="h0_splittings"),
    pytest.param("temperature", lambda v: BathModeSet.symmetric([(1.3, 1.1, 0.04)], v), id="temperature"),
    pytest.param("modes[0].k", lambda v: BathModeSet((BathMode(v, 1.1, 0.04),), 0.5), id="k"),
    pytest.param("modes[1].omega", lambda v: BathModeSet((BathMode(0.0, 1.1, 0.04), BathMode(0.0, v, 0.04)), 0.5),
                 id="omega"),
    pytest.param("modes[0].g", lambda v: BathModeSet((BathMode(0.0, 1.1, v),), 0.5), id="g"),
])
def test_model_inputs_must_be_finite(field, build, value):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be finite")):
        build(value)


def test_mode_set_symmetry_enforced():
    with pytest.raises(ValueError):
        BathModeSet((BathMode(1.0, 1.0, 0.1),), 0.0)
    ok = BathModeSet.symmetric([(1.0, 1.0, 0.1)], 0.0)
    assert ok.n_modes == 2
    with pytest.raises(ValueError):
        BathModeSet((BathMode(0.0, -1.0, 0.1),), 0.0)


def test_build_single_qubit_single_mode_structure():
    g, n_max = 0.07, 3
    lat = QubitLattice((0.0,), 1.0, 0.5)
    modes = BathModeSet((BathMode(0.0, 1.0, g),), 0.0)
    model = build_hamiltonian(lat, modes, n_max)
    a, adag, _ = boson_ops(n_max)
    expected = np.kron(lat.coupling_matrix(), g * (a.matrix + adag.matrix))
    assert np.abs(model.h_i.matrix - expected).max() < 1e-14


def test_build_hermiticity_with_symmetric_pair():
    lat = QubitLattice((0.4,), 1.0, 0.3)
    modes = BathModeSet.symmetric([(1.7, 1.2, 0.05)], 0.5)
    model = build_hamiltonian(lat, modes, 3)
    for part in (model.h_i.matrix, model.total().matrix, *_dense_free_parts(model)):
        assert np.abs(part - part.conj().T).max() < 1e-12


def test_mirror_pairing_is_exact_and_one_to_one():
    pair = BathModeSet.symmetric([(0.0, 1.0, 0.05), (0.9, 1.0, 0.04), (1.6, 1.2, 0.03)], 0.5)
    assert pair.mirror_pairing() == (0, 2, 1, 4, 3)  # k = 0 pairs with itself
    twice = BathModeSet((BathMode(0.9, 1.0, 0.04), BathMode(0.9, 1.0, 0.04),
                         BathMode(-0.9, 1.0, 0.04), BathMode(-0.9, 1.0, 0.04)), 0.0)
    partner = twice.mirror_pairing()
    assert sorted(partner) == [0, 1, 2, 3] and all(partner[partner[i]] == i != partner[i] for i in range(4))
    for modes in _unpaired_mode_sets().values():
        with pytest.raises(ValueError, match=r"not \+/-k symmetric: no mirror of its own for k=-?0\.9"):
            BathModeSet(modes, 0.0)


def _unpaired_mode_sets():
    """Mode sets with no exact one-to-one mirror pairing: a repeated mode, and a mirror off in one field."""
    sets = {"repeated": (BathMode(0.9, 1.0, 0.04), BathMode(0.9, 1.0, 0.04), BathMode(-0.9, 1.0, 0.04))}
    for i, field in enumerate(("k", "omega", "g")):
        near = [0.9, 1.0, 0.04]
        near[i] *= 1 - 1e-13 if field == "k" else 1 + 1e-13
        sets[f"near-{field}"] = (BathMode(-0.9, 1.0, 0.04), BathMode(*near))
    return sets


def _suite_models():
    """Every dense model that the quick and full suites build; the encoding suite builds none."""
    from decolab import oracle, suites

    recorded = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suites, "_verify_tasks", lambda scenarios, checked=(): recorded.append((scenarios, checked)) or [])
        mp.setattr(suites, "_factorization_task", lambda L, K, t: (suites._grid_lattice(L), suites._grid_modes(K, t)))
        factorization = [task for name in ("quick", "full") for task in suites.suite_tasks(name, 0)]
    keys = {}
    for lattice, modes in factorization:
        keys[lattice, modes, oracle.resolve_n_max(modes, lattice.n_qubits, None)] = None
    for scenarios, checked in recorded:
        for sc in scenarios:
            n_max = oracle.resolve_n_max(sc.modes, sc.lattice.n_qubits, sc.n_max)
            keys[sc.lattice, sc.modes, n_max] = None
            if sc.name in checked:  # verify_expansion's convergence re-run
                keys[sc.lattice, sc.modes, 2 * n_max] = None
    return [build_hamiltonian(*key) for key in keys]


def _dense_free_parts(model):
    """The full-size free Hamiltonians sum_l (w0_l/2) sz_l and sum_k w_k n_k, embedded factor by factor."""
    space, L = model.space, model.lattice.n_qubits
    _, _, number = boson_ops(model.n_max)
    h0 = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for l, w0 in enumerate(model.lattice.h0_splittings):
        h0 += 0.5 * w0 * embed(pauli("z"), l, space).matrix
    h_env = np.zeros_like(h0)
    for j, m in enumerate(model.modes.modes):
        h_env += m.omega * embed(number, L + j, space).matrix
    return h0, h_env


def _dense_total(model):
    h0, h_env = _dense_free_parts(model)
    return h0 + model.h_i.matrix + h_env


def test_model_holds_one_dense_matrix():
    from decolab.suites import _grid_lattice, _grid_modes

    model = build_hamiltonian(_grid_lattice(2), _grid_modes(4, 0.5), 3)
    n = model.space.dim
    assert n == 1024
    fields = {f.name: getattr(model, f.name) for f in dataclasses.fields(model)}
    assert [name for name, v in fields.items() if isinstance(v, DenseOperator)] == ["h_i"]
    arrays = {name: v for name, v in fields.items() if isinstance(v, np.ndarray)}
    assert sorted(arrays) == ["h0_diag", "h_env_diag"]
    for v in arrays.values():
        assert v.ndim == 1 and v.dtype == np.float64 and not v.flags.writeable
    assert len(model.h0_diag) == 4 and len(model.h_env_diag) == n // 4
    assert model.h_i.matrix.nbytes + sum(v.nbytes for v in arrays.values()) < 1.1 * 16 * n * n
    with pytest.raises(ValueError):
        model.h0_diag[0] = 1.0


@pytest.mark.parametrize("field, value", [
    ("h0_diag", np.zeros(3)),  # lengths 3 x 9 do not span 36
    ("h_env_diag", np.zeros((9, 1))),
    ("h0_diag", np.array([0.5, np.nan, -0.5, 0.0])),
    ("h_env_diag", np.full(9, np.inf)),
])
def test_model_rejects_malformed_free_energies(field, value):
    model = build_hamiltonian(QubitLattice((0.0, 0.7), 1.0, 0.5, (1.0, 0.8)),
                              BathModeSet.symmetric([(1.3, 1.1, 0.04)], 0.5), 2)
    with pytest.raises(ValueError, match="free energies|finite"):
        dataclasses.replace(model, **{field: value})


def test_total_is_the_dense_sum_of_the_three_parts():
    for model in _suite_models():
        assert model.total().matrix.tobytes() == _dense_total(model).tobytes()


def test_block_is_the_total_hamiltonian_entry_for_entry(monkeypatch):
    models = _suite_models()
    assert len(models) == 25  # the 25 distinct models of one quick and one full run
    for model in models:
        h = _dense_total(model)
        parity = model.parity()
        even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)
        for rows, cols in ((even, even), (odd, odd), (even, odd), (odd, even)):
            assert model.block(rows, cols).tobytes() == h[np.ix_(rows, cols)].tobytes()

    from decolab.suites import suite_tasks

    def no_model(*args, **kwargs):
        raise AssertionError("the encoding suite built a dense model")

    monkeypatch.setattr(ModelHamiltonian, "__init__", no_model)
    for _, run in suite_tasks("encoding", 0):
        run()


def _kron_coupling(model):
    """sum_l np.kron(A_l, field_l) at full size, with each A_l embedded by np.kron: what build_hamiltonian adds
    block by block."""
    a1, _, _ = boson_ops(model.n_max)
    a = [embed(a1, j, model.env_space()).matrix for j in range(model.modes.n_modes)]
    coupling = DenseOperator.hermitian_op(HilbertSpace((2,)), model.lattice.coupling_matrix())
    expected = np.zeros_like(model.h_i.matrix)
    for l, r in enumerate(model.lattice.positions):
        field = np.zeros_like(a[0])
        for j, m in enumerate(model.modes.modes):
            phase = np.exp(-1j * m.k * r)
            field += m.g * (phase * a[j] + np.conj(phase) * a[j].conj().T)
        expected += np.kron(embed(coupling, l, model.system_space()).matrix, field)
    return expected


def test_coupling_equals_the_kron_sum_over_qubits():
    for model in _suite_models():
        assert model.h_i.matrix.tobytes() == _kron_coupling(model).tobytes()


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
@pytest.mark.parametrize("lambdas", [(1.0, 0.5), (0.0, 1.3), (-0.7, 0.0), (0.4, -1.1)])
def test_coupling_from_the_stack_equals_the_kron_form(n_qubits, lambdas):
    lattice = QubitLattice(tuple(0.6 * l for l in range(n_qubits)), *lambdas, (1.0, 0.8, 1.2)[:n_qubits])
    model = build_hamiltonian(lattice, BathModeSet.symmetric([(1.3, 1.1, 0.04), (0.0, 0.9, 0.03)], 0.5), 2)
    assert model.h_i.matrix.tobytes() == _kron_coupling(model).tobytes()


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5])
def test_coupling_stack_is_each_embedded_coupling(n_qubits):
    for lambdas in ((1.0, 0.5), (0.0, 1.3), (-0.7, 0.0), (0.4, -1.1), (0.0, 0.0)):
        lattice = QubitLattice(tuple(float(l) for l in range(n_qubits)), *lambdas)
        coupling = DenseOperator.hermitian_op(HilbertSpace((2,)), lattice.coupling_matrix())
        stack = _coupling_stack(lattice)
        assert stack.shape == (n_qubits, 2 ** n_qubits, 2 ** n_qubits)
        for l in range(n_qubits):
            expected = embed(coupling, l, lattice.qubit_space()).matrix  # np.kron may sign its zeros: compare values
            assert np.array_equal(stack[l], expected)


def _dense_covariances(lattice, rho):
    """Re <dA_i dA_j> one pair at a time, each A_l embedded by np.kron."""
    coupling = DenseOperator.hermitian_op(HilbertSpace((2,)), lattice.coupling_matrix())
    ops = [embed(coupling, l, lattice.qubit_space()).matrix for l in range(lattice.n_qubits)]
    means = [np.trace(rho @ op).real for op in ops]
    return np.array([[np.trace(rho @ oi @ oj).real - mi * mj for oj, mj in zip(ops, means)]
                     for oi, mi in zip(ops, means)])


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5])
def test_stacked_covariances_match_the_dense_per_pair_reference(n_qubits):
    rng = np.random.default_rng(n_qubits)
    n = 2 ** n_qubits
    lambda_pairs = [(0.0, rng.normal()), (rng.normal(), 0.0)] + [tuple(rng.normal(size=2)) for _ in range(3)]
    for lambdas in lambda_pairs:
        lattice = QubitLattice(tuple(float(l) for l in range(n_qubits)), *lambdas)
        for rank in (1, 2, n):  # pure, mixed, full rank
            x = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
            rho = x @ x.conj().T
            rho = DenseOperator.density_op(lattice.qubit_space(), 0.5 * (rho + rho.conj().T) / np.trace(rho).real)
            got = _covariances(_coupling_stack(lattice), rho.matrix)
            assert np.abs(got - _dense_covariances(lattice, rho.matrix)).max() <= 1e-13


def test_covariances_reject_non_real_means_and_name_the_imaginary_pair():
    space = HilbertSpace((2, 2))
    xx = np.kron(pauli("x").matrix, pauli("x").matrix)
    lattice = QubitLattice((0.0, 1.0), 1.0, 0.0)
    skewed = DenseOperator(space, np.eye(4) / 4 + 0.25j * np.kron(pauli("x").matrix, np.eye(2)))  # <sx_0> = i
    with pytest.raises(ValueError, match=r"^coupling operators have non-real means against the state$"):
        rate_from_correlation(lattice, lambda d: 1.0, skewed)
    crossed = DenseOperator(space, np.eye(4) / 4 + 0.05j * xx)  # real means, tr[rho sx_0 sx_1] = 0.2i
    with pytest.raises(ValueError, match=r"^covariance \(0,1\) has imaginary residue 2\.000e-01$"):
        rate_from_correlation(lattice, lambda d: 1.0, crossed)


def test_free_energies_are_the_dense_free_diagonals():
    for model in _suite_models():
        de = model.env_space().dim
        h0, h_env = _dense_free_parts(model)
        assert model.h0_diag.tobytes() == np.diagonal(h0).real[::de].tobytes()
        assert model.h_env_diag.tobytes() == np.diagonal(h_env).real[:de].tobytes()


def test_decoupled_spectrum_is_sum_of_parts():
    # with g = 0 the total spectrum is every qubit energy plus every mode energy
    lat = QubitLattice((0.0, 1.0), 0.0, 0.0, (0.9, 1.7))
    modes = BathModeSet.symmetric([(1.1, 1.3, 0.0)], 0.0)
    n_max = 2
    model = build_hamiltonian(lat, modes, n_max)
    got = np.sort(np.linalg.eigvalsh(model.total().matrix))
    qubit_e = np.sort(model.h0_diag)
    # brute-force oracle: enumerate qubit levels x mode occupations
    levels = []
    for s0 in (0.45, -0.45):
        for s1 in (0.85, -0.85):
            for n0 in range(n_max + 1):
                for n1 in range(n_max + 1):
                    levels.append(s0 + s1 + 1.3 * (n0 + n1))
    assert np.abs(got - np.sort(levels)).max() < 1e-10
    assert qubit_e.tolist() == sorted(s0 + s1 for s0 in (0.45, -0.45) for s1 in (0.85, -0.85))


def test_parity_labels_basis_and_commutes_with_total():
    lat = QubitLattice((0.0, 0.7), 1.0, 0.5, (1.0, 0.8))
    modes = BathModeSet.symmetric([(1.3, 1.1, 0.04)], 0.5)
    model = build_hamiltonian(lat, modes, 2)
    parity = model.parity()
    # index (s, n1, n2) on dims (2, 2, 3, 3): popcount(s) + n1 + n2 mod 2
    expected = [(q0 + q1 + n1 + n2) % 2 for q0 in range(2) for q1 in range(2)
                for n1 in range(3) for n2 in range(3)]
    assert parity.tolist() == expected
    h = model.total().matrix
    assert not np.any(h[np.ix_(parity == 0, parity == 1)])  # exact zeros, not rounding
    assert np.any(h[np.ix_(parity == 0, parity == 0)]) and np.any(h[np.ix_(parity == 1, parity == 1)])


def test_correlation_at_zero_is_normalization():
    modes = BathModeSet.symmetric([(1.0, 1.0, 0.1), (2.0, 1.5, 0.07)], 0.8)
    x = correlation_fn_discrete(modes, 0.0)
    direct = 2 * sum(m.g ** 2 * thermal_occupation_factor(m.omega, 0.8) for m in modes.modes)
    assert abs(x - direct) < 1e-15
    assert x == correlation_fn_discrete(modes, -0.0)


def test_correlation_single_pair_cosine():
    k, g = 1.3, 0.1
    modes = BathModeSet.symmetric([(k, 1.0, g)], 0.0)
    for d in (0.0, 0.4, 1.1, -1.1):
        assert abs(correlation_fn_discrete(modes, d) - 4 * g * g * math.cos(k * d)) < 1e-15

    assert correlation_fn_discrete(modes, 0.7) == correlation_fn_discrete(modes, -0.7)


def test_correlation_high_temperature_limit():
    omega, g = 1.0, 0.1
    temperature = omega / (4e-4)  # omega / 2T = 2e-4
    modes = BathModeSet((BathMode(0.0, omega, g),), temperature)
    got = correlation_fn_discrete(modes, 0.0)
    series = 2 * g * g * (2 * temperature / omega)  # leading coth term
    assert abs(got - series) / series < 1e-6


def _discrete_rate(lattice, modes, rho):
    """The factorized rate under the discrete bath's thermal correlation."""
    return rate_from_correlation(lattice, lambda d: correlation_fn_discrete(modes, d), rho)


def test_decoherence_rate_single_qubit_vacuum():
    g = 0.05
    lat = QubitLattice((0.0,), 1.0, 0.0)
    modes = BathModeSet((BathMode(0.0, 1.0, g),), 0.0)
    rho = ground_ket(1).projector()
    rate = _discrete_rate(lat, modes, rho)
    # Omega^2(0) = 2 g^2 and <(dA)^2> = 1; the half makes this the variance form
    assert abs(rate - g * g) < 1e-15
    model = build_hamiltonian(lat, modes, 3)
    ent = closed_form_c2("entanglement", rho, model.h_i, model.thermal_env_state())
    assert abs(rate - ent) < 1e-14


def test_rate_vanishes_for_coupling_eigenstates():
    lat = QubitLattice((0.0, 1.0), 1.0, 0.5)
    modes = BathModeSet.symmetric([(0.8, 1.0, 0.1)], 0.3)
    minus, plus = lat.coupling_eigenstates()
    state = Ket(HilbertSpace((2, 2)), np.kron(plus, minus))
    assert _discrete_rate(lat, modes, state.projector()) < 1e-14


def test_far_separated_qubits_decohere_additively():
    # Gaussian-weighted comb, wide in k and densely sampled, so the
    # correlation is delta-like over the qubit spacing (no comb aliases)
    ks = np.linspace(3.1, 7.9, 96)
    weights = np.exp(-((ks - 5.5) ** 2) / (2 * 0.4 ** 2))
    pairs = [(k, 1.0 + 0.1 * k, 0.02 * math.sqrt(w)) for k, w in zip(ks, weights)]
    modes = BathModeSet.symmetric(pairs, 0.0)
    assert abs(correlation_fn_discrete(modes, 60.0) / correlation_fn_discrete(modes, 0.0)) < 1e-9
    lat = QubitLattice((0.0, 60.0), 1.0, 0.0, (1.0, 1.0))
    rho = ghz_ket(2).projector()
    rate = _discrete_rate(lat, modes, rho)
    singles = 0.0
    for l, pos in enumerate(lat.positions):
        single = QubitLattice((pos,), 1.0, 0.0)
        marginal = partial_trace(rho, keep={l})
        singles += _discrete_rate(single, modes, marginal)
    assert abs(rate - singles) / singles < 1e-8


def test_delta_correlated_rate_is_additive_exactly():
    x = 0.37
    delta = lambda d: x if d == 0.0 else 0.0
    lat = QubitLattice((0.0, 0.5, 1.7), 1.0, 0.4)
    rho = ghz_ket(3).projector()
    total = rate_from_correlation(lat, delta, rho)
    singles = 0.0
    for l, pos in enumerate(lat.positions):
        single = QubitLattice((pos,), 1.0, 0.4)
        singles += rate_from_correlation(single, delta, partial_trace(rho, keep={l}))
    assert abs(total - singles) < 1e-12


def test_rate_translation_invariance():
    modes = BathModeSet.symmetric([(0.9, 1.0, 0.08)], 0.5)
    rho = plus_all_ket(2).projector()
    base = _discrete_rate(QubitLattice((0.0, 0.8), 1.0, 0.2), modes, rho)
    moved = _discrete_rate(QubitLattice((13.4, 14.2), 1.0, 0.2), modes, rho)
    assert abs(base - moved) < 1e-12 * max(base, 1.0)


def test_factorization_identity_across_models():
    cases = [
        (QubitLattice((0.0,), 1.0, 0.5, (1.0,)), BathModeSet((BathMode(0.0, 1.0, 0.05),), 2.0)),
        (QubitLattice((0.0, 0.7), 1.0, 0.5, (1.0, 0.8)), BathModeSet.symmetric([(1.3, 1.1, 0.04)], 0.5)),
        (QubitLattice((0.0, 0.7), 0.3, 0.9), BathModeSet.symmetric([(0.9, 1.0, 0.04), (1.6, 1.2, 0.03)], 0.0)),
    ]
    from decolab.operators import n_max_for_tail

    for lattice, modes in cases:
        n_max = max(n_max_for_tail(m.omega, modes.temperature) for m in modes.modes)
        model = build_hamiltonian(lattice, modes, n_max)
        env = model.thermal_env_state()
        for rho in (ground_ket(lattice.n_qubits).projector(),
                    ghz_ket(lattice.n_qubits).projector() if lattice.n_qubits > 1 else plus_all_ket(1).projector()):
            rate = _discrete_rate(lattice, modes, rho)
            vf = closed_form_c2("entanglement", rho, model.h_i, env)
            assert abs(rate - vf) / max(vf, 1e-14) < 1e-6


def encoded_lattice():
    return QubitLattice((0.0, 0.2, 2.0, 2.2), 1.0, 0.5)


def test_pair_encode_annihilated_by_pair_sums():
    lat = encoded_lattice()
    logical = plus_all_ket(2)
    out = pair_encode(logical, lat)
    for a, b in ((0, 1), (2, 3)):
        s = _coupling_stack(lat)[a] + _coupling_stack(lat)[b]
        assert np.abs(s @ out.amplitudes).max() < 1e-12


def test_pair_encode_basis_rule():
    lat = QubitLattice((0.0, 0.3), 1.0, 0.5)
    minus, plus = lat.coupling_eigenstates()
    out = pair_encode(Ket(HilbertSpace((2,)), minus), lat)
    assert np.abs(out.amplitudes - np.kron(minus, plus)).max() < 1e-12
    sup = Ket(HilbertSpace((2,)), (minus + plus) / math.sqrt(2))
    out2 = pair_encode(sup, lat)
    expected = (np.kron(minus, plus) + np.kron(plus, minus)) / math.sqrt(2)
    assert np.abs(out2.amplitudes - expected).max() < 1e-12


def test_pair_encode_ghz_logical():
    lat = encoded_lattice()
    out = pair_encode(ghz_ket(2), lat)
    for a, b in ((0, 1), (2, 3)):
        s = _coupling_stack(lat)[a] + _coupling_stack(lat)[b]
        assert np.abs(s @ out.amplitudes).max() < 1e-12


def test_pair_encode_needs_even_lattice():
    with pytest.raises(ValueError):
        pair_encode(ground_ket(1), QubitLattice((0.0, 1.0, 2.0), 1.0, 0.0))


def test_pair_rate_zero_for_encoded_states():
    lat = encoded_lattice()
    modes = BathModeSet.symmetric([(0.01, 1.0, 0.1)], 0.7)
    out = pair_encode(ghz_ket(2), lat)
    assert pair_rate(lat, lambda d: correlation_fn_discrete(modes, d), out.projector()) < 1e-12
    assert pair_rate(lat, lambda d: 0.4, out.projector()) < 1e-12


def test_pair_rate_positive_for_naive_superposition():
    lat = QubitLattice((0.0, 0.2), 1.0, 0.5)
    minus, plus = lat.coupling_eigenstates()
    naive = Ket(HilbertSpace((2, 2)), (np.kron(plus, plus) + np.kron(minus, minus)) / math.sqrt(2))
    modes = BathModeSet.symmetric([(0.01, 1.0, 0.1)], 0.0)
    rate = pair_rate(lat, lambda d: correlation_fn_discrete(modes, d), naive.projector())
    x = correlation_fn_discrete(modes, 0.0)
    a2 = lat.coupling_norm ** 2
    assert abs(rate - 2 * x * a2) / (2 * x * a2) < 1e-12


def test_pair_rate_scaling_with_carrier():
    d = 1.0
    lat = QubitLattice((0.0, d), 1.0, 0.0)
    rates = {}
    for kd in (0.01, 0.02, 0.04):
        modes = BathModeSet.symmetric([(kd / d, 1.0, 0.05)], 0.0)
        state = pair_encode(ground_ket(1), lat)
        rates[kd] = _discrete_rate(lat, modes, state.projector())
    assert abs(rates[0.02] / rates[0.01] - 4.0) < 0.4
    assert abs(rates[0.04] / rates[0.01] - 16.0) < 1.6


def test_pair_rate_warns_outside_constant_regime():
    lat = QubitLattice((0.0, 1.5), 1.0, 0.0)
    modes = BathModeSet.symmetric([(1.0, 1.0, 0.1)], 0.0)  # k * d_intra = 1.5: far from constant
    minus, plus = lat.coupling_eigenstates()
    naive = Ket(HilbertSpace((2, 2)), (np.kron(plus, plus) + np.kron(minus, minus)) / math.sqrt(2))
    with pytest.warns(UserWarning, match="pair-constant"):
        pair_rate(lat, lambda d: correlation_fn_discrete(modes, d), naive.projector())
