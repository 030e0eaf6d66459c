import math
import re

import numpy as np
import pytest

from decolab.operators import (
    DenseOperator,
    HilbertSpace,
    Ket,
    boson_ops,
    embed,
    gibbs_tail_weight,
    herm_propagator,
    identity,
    kron,
    n_max_for_tail,
    partial_trace,
    pauli,
    purify,
    thermal_boson_state,
    variance_form,
)
from decolab.rng import Xoshiro256pp, random_density_matrix, random_hermitian_matrix, random_unitary_matrix

Q1 = HilbertSpace((2,))
Q2 = HilbertSpace((2, 2))


def random_density_op(rng, dims):
    space = HilbertSpace(dims)
    return DenseOperator.density_op(space, random_density_matrix(rng, space.dim))


def test_kron_identities():
    i2 = identity(Q1)
    i4 = kron(i2, i2)
    assert i4.space.factor_dims == (2, 2)
    assert np.array_equal(i4.matrix, np.eye(4))


def test_kron_sigma_z_eigenvalue_on_first_factor():
    op = kron(pauli("z"), identity(Q1))
    v01 = np.kron([1, 0], [0, 1])  # |0> x |1>
    assert np.allclose(op.matrix @ v01, v01)


def test_kron_sigma_x_involution():
    xx = kron(pauli("x"), pauli("x"))
    assert np.allclose(xx.matrix @ xx.matrix, np.eye(4))


@pytest.mark.parametrize("block, dim", [(None, 8), (None, 600), (100, 7), (100, 30), (100, 31)])
def test_hermitian_deviation_blocks_match_the_whole_matrix(monkeypatch, block, dim):
    from decolab import operators

    # at the default 2^15 entries 8 takes one block and 600 twelve; 7 fits in one block
    # of 100 entries, and 30 and 31 take 10 and 11 row blocks
    if block is not None:
        monkeypatch.setattr(operators, "HERMITIAN_CHECK_BLOCK_ELEMENTS", block)
    g = np.random.default_rng(dim).normal(size=(2, dim, dim))
    m = g[0] + 1j * g[1]
    whole = np.abs(m - m.conj().T).max()
    assert operators._hermitian_deviation(m) == whole
    message = f"matrix is not Hermitian (max deviation {whole:.3e})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DenseOperator.hermitian_op(HilbertSpace((dim,)), m)
    with pytest.raises(ValueError, match=f"^density {re.escape(message)}$"):
        DenseOperator.density_op(HilbertSpace((dim,)), m)


@pytest.mark.parametrize("build", [
    lambda m: DenseOperator.hermitian_op(Q1, m),
    lambda m: DenseOperator.density_op(Q1, m, check_spectrum=True),
], ids=["hermitian_op", "density_op"])
@pytest.mark.parametrize("matrix, entry", [
    ([[0.0, math.nan], [math.nan, 0.0]], r"\(nan\+0j\) at \(0, 1\)"),
    ([[0.5, math.nan], [math.nan, 0.5]], r"\(nan\+0j\) at \(0, 1\)"),
    ([[math.inf, 0.0], [0.0, 1.0]], r"\(inf\+0j\) at \(0, 0\)"),
], ids=["nan-off-diagonal", "nan-off-diagonal-unit-trace", "inf-diagonal"])
def test_non_finite_entries_are_rejected(build, matrix, entry):
    with pytest.raises(ValueError, match="non-finite entry " + entry):
        build(matrix)


def test_partial_trace_product_state():
    rng = Xoshiro256pp(7)
    rho_a = random_density_op(rng, (2,))
    rho_b = random_density_op(rng, (3,))
    out = partial_trace(kron(rho_a, rho_b), keep={0})
    assert np.abs(out.matrix - rho_a.matrix).max() < 1e-12
    out_b = partial_trace(kron(rho_a, rho_b), keep={1})
    assert np.abs(out_b.matrix - rho_b.matrix).max() < 1e-12


def test_partial_trace_bell_state():
    bell = Ket(Q2, np.array([1, 0, 0, 1]) / math.sqrt(2))
    red = partial_trace(bell.projector(), keep={0})
    assert np.abs(red.matrix - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_requires_density_flag():
    op = identity(Q2)
    with pytest.raises(ValueError):
        partial_trace(op, keep={0})


def test_partial_trace_index_out_of_range():
    rng = Xoshiro256pp(1)
    with pytest.raises(IndexError):
        partial_trace(random_density_op(rng, (2, 2)), keep={5})


def test_propagator_at_zero_is_identity():
    rng = Xoshiro256pp(3)
    h = DenseOperator.hermitian_op(HilbertSpace((4,)), random_hermitian_matrix(rng, 4))
    u = herm_propagator(h, 0.0)
    assert np.abs(u.matrix - np.eye(4)).max() < 1e-14


def test_propagator_sigma_z_at_pi():
    u = herm_propagator(pauli("z"), math.pi)
    assert np.abs(u.matrix + np.eye(2)).max() < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_propagator_group_law_and_unitarity(seed):
    rng = Xoshiro256pp(seed)
    h = DenseOperator.hermitian_op(HilbertSpace((5,)), random_hermitian_matrix(rng, 5))
    t1, t2 = 0.37, 1.21
    u1, u2, u12 = (herm_propagator(h, t) for t in (t1, t2, t1 + t2))
    assert np.abs(u1.matrix @ u2.matrix - u12.matrix).max() < 1e-10
    assert np.abs(u1.matrix.conj().T @ u1.matrix - np.eye(5)).max() < 1e-10


def test_propagator_conjugation_preserves_spectrum():
    rng = Xoshiro256pp(11)
    h = DenseOperator.hermitian_op(HilbertSpace((4,)), random_hermitian_matrix(rng, 4))
    rho = random_density_op(rng, (4,))
    u = herm_propagator(h, 0.83)
    evolved = u.matrix @ rho.matrix @ u.matrix.conj().T
    assert abs(np.trace(evolved) - 1.0) < 1e-10
    assert np.abs(np.linalg.eigvalsh(evolved) - np.linalg.eigvalsh(rho.matrix)).max() < 1e-10


def test_propagator_rejects_unflagged_input():
    with pytest.raises(ValueError):
        herm_propagator(DenseOperator(Q1, np.eye(2)), 1.0)


def test_thermal_state_zero_temperature_is_vacuum():
    rho = thermal_boson_state(1.3, 0.0, 6)
    expected = np.zeros((7, 7))
    expected[0, 0] = 1.0
    assert np.abs(rho.matrix - expected).max() == 0.0


def test_thermal_state_mean_occupation_ln2():
    # omega/T = ln 2 puts the ideal mean occupation at exactly 1
    rho = thermal_boson_state(math.log(2.0), 1.0, 60)
    _, _, num = boson_ops(60)
    mean = np.trace(rho.matrix @ num.matrix).real
    assert abs(mean - 1.0) < 1e-12


def test_thermal_state_geometric_populations_and_tail():
    omega, temperature, n_max = 1.0, 0.8, 20
    rho = thermal_boson_state(omega, temperature, n_max)
    pops = np.diagonal(rho.matrix).real
    assert abs(pops.sum() - 1.0) < 1e-14
    ratios = pops[1:] / pops[:-1]
    assert np.abs(ratios - math.exp(-omega / temperature)).max() < 1e-12
    assert np.all(np.diff(pops) < 0)
    # direct-summation oracle for the untruncated tail
    r = math.exp(-omega / temperature)
    tail_direct = sum((1 - r) * r ** n for n in range(n_max + 1, 400))
    assert abs(gibbs_tail_weight(omega, temperature, n_max) - tail_direct) < 1e-13
    n_policy = n_max_for_tail(omega, temperature)
    assert gibbs_tail_weight(omega, temperature, n_policy) < 1e-10
    assert gibbs_tail_weight(omega, temperature, n_policy - 1) >= 1e-10


def test_tail_policy_survives_cold_limit():
    # omega / T above ~745 underflows exp(-omega / T); the policy must not
    omega = 1.7
    for ratio in np.logspace(-4, 0, 41):
        temperature = ratio * omega
        n = n_max_for_tail(omega, temperature)
        assert n >= 2
        assert gibbs_tail_weight(omega, temperature, n) < 1e-10
        if n > 2:
            assert gibbs_tail_weight(omega, temperature, n - 1) >= 1e-10


def test_boson_commutator_on_untruncated_block():
    n_max = 8
    a, adag, num = boson_ops(n_max)
    comm = a.matrix @ adag.matrix - adag.matrix @ a.matrix
    block = comm[:n_max, :n_max]
    assert np.abs(block - np.eye(n_max)).max() < 1e-12
    assert np.abs(adag.matrix @ a.matrix - num.matrix).max() < 1e-12


def test_pauli_algebra():
    assert np.abs(pauli("x").matrix @ pauli("y").matrix - 1j * pauli("z").matrix).max() == 0.0
    with pytest.raises(ValueError):
        pauli("w")


def test_embed_disjoint_supports_commute():
    space = HilbertSpace((2, 2, 2))
    sx2 = embed(pauli("x"), 2, space)
    sy0 = embed(pauli("y"), 0, space)
    assert np.abs(sx2.matrix @ sy0.matrix - sy0.matrix @ sx2.matrix).max() == 0.0


def test_embed_dimension_mismatch():
    with pytest.raises(ValueError):
        embed(pauli("x"), 0, HilbertSpace((3, 2)))
    with pytest.raises(IndexError):
        embed(pauli("x"), 4, HilbertSpace((2, 2)))


def test_purify_pure_input_needs_no_entanglement():
    psi = Ket(Q1, np.array([0.6, 0.8j]))
    out = purify(psi.projector())
    amp = out.amplitudes.reshape(2, 2)
    # Schmidt rank 1: a single ancilla level carries everything
    weights = np.linalg.svd(amp, compute_uv=False)
    assert abs(weights[0] - 1.0) < 1e-12 and weights[1] < 1e-12
    overlap = abs(np.vdot(psi.amplitudes, amp[0]))
    assert abs(overlap - 1.0) < 1e-12


def test_purify_maximally_mixed_is_maximally_entangled():
    rho = DenseOperator.density_op(Q1, np.eye(2) / 2)
    out = purify(rho)
    weights = np.linalg.svd(out.amplitudes.reshape(2, 2), compute_uv=False)
    assert np.abs(weights - 1 / math.sqrt(2)).max() < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_purify_round_trip_random_density(dim):
    rng = Xoshiro256pp(dim)
    rho = random_density_op(rng, (dim,))
    out = purify(rho)
    back = partial_trace(out.projector(), keep={1})
    assert np.abs(back.matrix - rho.matrix).max() < 1e-10
    # a rotated ancilla is still a purification
    u = random_unitary_matrix(rng, dim)
    rotated = Ket(out.space, (np.kron(u, np.eye(dim)) @ out.amplitudes))
    back2 = partial_trace(rotated.projector(), keep={1})
    assert np.abs(back2.matrix - rho.matrix).max() < 1e-10


def _variance_reference(h, rho_s, rho_env):
    """Loop-based evaluation of the two coupling moments, kept independent
    of the einsum path in the library."""
    ds = rho_s.shape[0]
    de = rho_env.shape[0]
    joint = np.kron(rho_s, rho_env)
    m2 = np.trace(joint @ h @ h).real
    b = np.zeros((de, de), dtype=complex)
    for e in range(de):
        for f in range(de):
            acc = 0.0 + 0.0j
            for s in range(ds):
                for u in range(ds):
                    acc += rho_s[s, u] * h[u * de + e, s * de + f]
            b[e, f] = acc
    msq = np.trace(rho_env @ b @ b).real
    return m2 - msq


def _x_coupling(g, n_max):
    a, adag, _ = boson_ops(n_max)
    space = HilbertSpace((2, n_max + 1))
    return DenseOperator.hermitian_op(space, g * np.kron(pauli("x").matrix, a.matrix + adag.matrix)), space


def test_variance_form_zero_coupling():
    space = HilbertSpace((2, 3))
    h = DenseOperator.hermitian_op(space, np.zeros((6, 6)))
    rho_s = Ket(Q1, [1, 0]).projector()
    rho_env = thermal_boson_state(1.0, 0.0, 2)
    assert variance_form(h, rho_s, rho_env) == 0.0


def test_variance_form_transverse_coupling_on_vacuum():
    g, n_max = 0.3, 4
    h, _ = _x_coupling(g, n_max)
    rho_s = Ket(Q1, [1, 0]).projector()
    vac = thermal_boson_state(1.0, 0.0, n_max)
    v = variance_form(h, rho_s, vac)
    assert abs(v - g * g) < 1e-14
    assert abs(v - _variance_reference(h.matrix, rho_s.matrix, vac.matrix)) < 1e-14


def test_variance_form_diagonal_coupling_vanishes():
    g, n_max = 0.3, 4
    a, adag, _ = boson_ops(n_max)
    space = HilbertSpace((2, n_max + 1))
    h = DenseOperator.hermitian_op(space, g * np.kron(pauli("z").matrix, a.matrix + adag.matrix))
    rho_s = Ket(Q1, [1, 0]).projector()
    vac = thermal_boson_state(1.0, 0.0, n_max)
    assert variance_form(h, rho_s, vac) == 0.0
    assert abs(_variance_reference(h.matrix, rho_s.matrix, vac.matrix)) < 1e-14


def test_variance_form_nonnegative_on_random_triples():
    rng = Xoshiro256pp(42)
    for _ in range(500):
        ds = 2 + rng.randint(2)
        de = 2 + rng.randint(3)
        rho_s = random_density_op(rng, (ds,))
        rho_env = random_density_op(rng, (de,))
        space = HilbertSpace((ds, de))
        h = DenseOperator.hermitian_op(space, random_hermitian_matrix(rng, ds * de))
        assert variance_form(h, rho_s, rho_env) >= 0.0


def test_variance_form_matches_reference_on_random_triples():
    rng = Xoshiro256pp(5)
    for _ in range(20):
        rho_s = random_density_op(rng, (2,))
        rho_env = random_density_op(rng, (3,))
        h = DenseOperator.hermitian_op(HilbertSpace((2, 3)), random_hermitian_matrix(rng, 6))
        got = variance_form(h, rho_s, rho_env)
        want = _variance_reference(h.matrix, rho_s.matrix, rho_env.matrix)
        assert abs(got - max(want, 0.0)) < 1e-12


# --- property tests ----------------------------------------------------------

from hypothesis import given, settings, strategies as st


@given(omega=st.floats(0.05, 20.0), temperature=st.floats(0.0, 20.0),
       n_max=st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_thermal_state_properties(omega, temperature, n_max):
    rho = thermal_boson_state(omega, temperature, n_max)
    pops = np.diagonal(rho.matrix).real
    assert abs(pops.sum() - 1.0) < 1e-12
    assert np.all(np.diff(pops) <= 1e-15)
    assert np.abs(rho.matrix - np.diag(pops)).max() == 0.0


# --- coupling moments without the joint state ----------------------------------

def _full_stack_model():
    from decolab.model import build_hamiltonian
    from decolab.suites import _grid_lattice, _grid_modes

    model = build_hamiltonian(_grid_lattice(2), _grid_modes(4, 0.5), 3)
    assert model.space.dim == 1024
    return model, model.thermal_env_state()


def _one_shot_m2(h, rho_s, rho_env):
    """The one-line formula coupling_moments replaced, which forms the n x n joint state."""
    return float(np.sum((np.kron(rho_s, rho_env) @ h) * h.T).real)


def _one_shot_msq(h, rho_s, rho_env):
    """tr[rho_env B^2] with the full rho_env product, B = tr_sys[(rho_s x I) H]."""
    ds, de = rho_s.shape[0], rho_env.shape[0]
    b = np.einsum("su,uesf->ef", rho_s, h.reshape(ds, de, ds, de))
    return float(np.sum((rho_env @ b) * b.T).real)


def _assert_one_shot_moments(h_i, rho_s, rho_env):
    """coupling_moments agrees with the one-shot formulas to 1e-14 of m2; returns m2."""
    from decolab.operators import coupling_moments

    m2, msq = coupling_moments(h_i, rho_s, rho_env)
    want = _one_shot_m2(h_i.matrix, rho_s.matrix, rho_env.matrix)
    assert abs(m2 - want) <= 1e-14 * abs(want)
    assert abs(msq - _one_shot_msq(h_i.matrix, rho_s.matrix, rho_env.matrix)) <= 1e-14 * abs(want)
    return m2


def _rotated_env(model, seed):
    """U rho_thermal U^dag for a seeded random environment unitary: a density with off-diagonal entries."""
    env = model.thermal_env_state()
    u = random_unitary_matrix(Xoshiro256pp(seed), env.space.dim)
    return DenseOperator.density_op(env.space, u @ env.matrix @ u.conj().T, check_spectrum=False)


def test_coupling_moments_equal_the_one_shot_product_in_one_block():
    from decolab.model import build_hamiltonian
    from decolab.operators import MOMENT_BLOCK_ELEMENTS
    from decolab.states import ghz_ket, maximally_mixed_density, plus_all_ket
    from decolab.suites import _grid_lattice, _grid_modes

    model = build_hamiltonian(_grid_lattice(2), _grid_modes(4, 0.5), 2)  # the grid's largest model, n = 324
    env = model.thermal_env_state()
    ds, de = model.system_space().dim, model.env_space().dim
    assert MOMENT_BLOCK_ELEMENTS // (ds * model.space.dim) >= de  # every environment row in one block
    for rho_s in (ghz_ket(2).projector(), maximally_mixed_density(2), plus_all_ket(2).projector()):
        _assert_one_shot_moments(model.h_i, rho_s, env)


def test_coupling_moments_equal_the_one_shot_product_in_row_blocks():
    from decolab.operators import MOMENT_BLOCK_ELEMENTS
    from decolab.states import ghz_ket, ground_ket, maximally_mixed_density

    model, env = _full_stack_model()
    ds, de = model.system_space().dim, model.env_space().dim
    assert MOMENT_BLOCK_ELEMENTS // (ds * model.space.dim) < de  # more than one block
    for rho_s in (ghz_ket(2).projector(), maximally_mixed_density(2), ground_ket(2).projector()):
        _assert_one_shot_moments(model.h_i, rho_s, env)


def test_coupling_moments_match_the_one_shot_product_on_every_suite_model():
    from test_model import _suite_models

    from decolab.operators import _diagonal
    from decolab.states import ghz_ket, ground_ket, maximally_mixed_density, plus_all_ket

    for model in _suite_models():
        L = model.lattice.n_qubits
        env = model.thermal_env_state()
        assert _diagonal(env) is not None
        for rho_s in (ground_ket(L).projector(), (ghz_ket(L) if L >= 2 else plus_all_ket(1)).projector(),
                      maximally_mixed_density(L)):
            _assert_one_shot_moments(model.h_i, rho_s, env)


def test_coupling_moments_with_a_non_diagonal_environment_state():
    from decolab.model import build_hamiltonian
    from decolab.operators import _diagonal
    from decolab.states import ghz_ket, maximally_mixed_density
    from decolab.suites import _grid_lattice, _grid_modes

    model = build_hamiltonian(_grid_lattice(2), _grid_modes(4, 0.5), 2)  # the grid's largest model, n = 324
    env = _rotated_env(model, 11)
    assert _diagonal(env) is None
    for rho_s in (ghz_ket(2).projector(), maximally_mixed_density(2)):
        _assert_one_shot_moments(model.h_i, rho_s, env)
        want = _variance_reference(model.h_i.matrix, rho_s.matrix, env.matrix)
        assert abs(variance_form(model.h_i, rho_s, env) - want) <= 1e-12 * abs(want)


def test_coupling_moments_on_the_vacuum():
    from decolab.model import build_hamiltonian
    from decolab.operators import _diagonal
    from decolab.states import ghz_ket, ground_ket, plus_all_ket
    from decolab.suites import _grid_lattice, _grid_modes

    model = build_hamiltonian(_grid_lattice(2), _grid_modes(4, 0.0), 2)
    env = model.thermal_env_state()
    weights = _diagonal(env)
    assert weights is not None and np.count_nonzero(weights) == 1  # T = 0: only the vacuum has weight
    for rho_s in (ghz_ket(2).projector(), ground_ket(2).projector(), plus_all_ket(2).projector()):
        assert _assert_one_shot_moments(model.h_i, rho_s, env) > 0.0
        want = _variance_reference(model.h_i.matrix, rho_s.matrix, env.matrix)
        assert abs(variance_form(model.h_i, rho_s, env) - want) <= 1e-12 * abs(want)


def test_coupling_moments_hold_no_full_size_product():
    import tracemalloc

    from decolab.operators import coupling_moments
    from decolab.states import ghz_ket

    model, env = _full_stack_model()
    rho_s = ghz_ket(2).projector()
    for rho_env in (env, _rotated_env(model, 7)):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            coupling_moments(model.h_i, rho_s, rho_env)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - entry <= 8 * 2**20  # an n x n complex product is 16 MiB here
