"""Acceptance criteria, one test per criterion, each printing a status line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The verification grid (criteria 1-2) is evaluated once per session.
"""

import time

import numpy as np
import pytest

from decolab.cli import main
from decolab.model import (
    BathMode,
    BathModeSet,
    QubitLattice,
    build_hamiltonian,
    rate_from_correlation,
)
from decolab.operators import (
    gibbs_tail_weight,
    n_max_for_tail,
    partial_trace,
)
from decolab.oracle import verify_expansion
from decolab.rng import Xoshiro256pp, random_unitary_matrix
from decolab.spectral import (
    OhmicBath,
    classify_regime,
    ohmic_correlation_highT,
    ohmic_correlation_lowT,
    ohmic_correlation_quad,
    ohmic_spectrum_moments,
)
from decolab.states import ghz_ket, ground_ket, maximally_mixed_density
from decolab.suites import (
    FACTORIZATION_COMBOS,
    _factorization_task,
    _grid_scenarios,
    encoding_tasks,
    inequality_tasks,
    quick_tasks,
)
from decolab.oracle import fidelity_curve
from test_oracle import _reference_entanglement


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed {detail}"


@pytest.fixture(scope="module")
def grid_reports():
    return [verify_expansion(s) for s in _grid_scenarios()]


def test_criterion_01_first_order_vanishes(grid_reports):
    from decolab.fidelity import C2_ZERO_FLOOR

    worst = 0.0
    for rep in grid_reports:
        if rep.c2_analytic <= C2_ZERO_FLOOR:  # flat row: no meaningful c2 to normalize by
            continue
        bound = 1e-4 * rep.c2_fitted * rep.t_max ** 2
        worst = max(worst, abs(rep.c1_fitted) * rep.t_max / bound)
        assert abs(rep.c1_fitted) * rep.t_max < bound, rep.scenario
    # no coupling at all: the curve is identically flat
    lattice = QubitLattice((0.0,), 1.0, 0.0, (1.0,))
    modes = BathModeSet((BathMode(0.0, 1.0, 0.0),), 0.0)
    model = build_hamiltonian(lattice, modes, 2)
    times = np.linspace(0.0, 2.0, 9)
    curve = fidelity_curve(model, "io", ground_ket(1), model.thermal_env_state(), times)
    flat_dev = np.abs(curve.values - 1.0).max()
    _report(1, "first-order vanishing", flat_dev < 1e-12,
            f"(worst c1 fraction {worst:.2e}, flat deviation {flat_dev:.2e})")


def test_criterion_02_second_order_closed_form(grid_reports):
    worst = 0.0
    for rep in grid_reports:
        assert rep.passed, rep.scenario
        if rep.c2_analytic > 0.0:
            worst = max(worst, rep.rel_err)
            assert rep.rel_err < 1e-2, rep.scenario
    start = time.monotonic()
    quick_rows = [run() for _, run in quick_tasks()]
    elapsed = time.monotonic() - start
    assert all(r["pass"] for r in quick_rows)
    _report(2, "second-order closed form", elapsed < 60.0,
            f"({len(grid_reports)} grid scenarios, worst rel err {worst:.2e}, quick suite {elapsed:.2f}s)")


def test_criterion_03_factorization_identity():
    worst = 0.0
    for L, K, t_ratio in FACTORIZATION_COMBOS:
        _, run = _factorization_task(L, K, t_ratio)
        row = run()
        assert row["pass"], row["scenario"]
        worst = max(worst, row["rel_err"])
        # the policy truncation really is tail-converged
        from decolab.suites import _grid_modes

        modes = _grid_modes(K, t_ratio)
        n_max = max(n_max_for_tail(m.omega, modes.temperature) for m in modes.modes)
        assert max(gibbs_tail_weight(m.omega, modes.temperature, n_max) for m in modes.modes) < 1e-10
    _report(3, "factorization identity", worst < 1e-6,
            f"({len(FACTORIZATION_COMBOS)} thermal models, worst rel err {worst:.2e})")


def test_criterion_04_rate_inequality():
    rows = [run() for _, run in inequality_tasks(0)]
    holds = all(r["pass"] for r in rows)
    strict = any(r["c2_analytic"] > 0 and r["c2_analytic"] >= 10 * r["c2_fitted"] for r in rows)
    _report(4, "rate inequality", holds and strict,
            f"({len(rows)} instances, all hold: {holds}, 10x-strict case present: {strict})")


def test_criterion_05_subdecoherent_encoding():
    rows = {r["scenario"]: r for r in (run() for _, run in encoding_tasks())}
    encoded_ok = (rows["encoding-encoded-constant"]["c2_fitted"] < 1e-12
                  and rows["encoding-encoded-pair-rate"]["c2_fitted"] < 1e-12)
    floor_row = rows["encoding-unencoded-floor"]
    floor_ok = floor_row["c2_fitted"] >= floor_row["c2_analytic"] * (1 - 1e-12) > 0
    r2, r4 = rows["encoding-scaling-ratio-0.02"], rows["encoding-scaling-ratio-0.04"]
    scaling_ok = abs(r2["c2_fitted"] - 4.0) <= 0.4 and abs(r4["c2_fitted"] - 16.0) <= 1.6
    _report(5, "subdecoherent encoding", encoded_ok and floor_ok and scaling_ok,
            f"(encoded rate {rows['encoding-encoded-constant']['c2_fitted']:.1e}, "
            f"ratios {r2['c2_fitted']:.3f}/{r4['c2_fitted']:.3f})")


def test_criterion_06_independent_additivity():
    x = 0.41
    delta = lambda d: x if d == 0.0 else 0.0
    worst = 0.0
    for positions in ((0.0, 1.0), (0.0, 0.6, 1.9)):
        lattice = QubitLattice(positions, 1.0, 0.4)
        rho = ghz_ket(len(positions)).projector()
        total = rate_from_correlation(lattice, delta, rho)
        singles = 0.0
        for l, pos in enumerate(positions):
            single = QubitLattice((pos,), 1.0, 0.4)
            singles += rate_from_correlation(single, delta, partial_trace(rho, keep={l}))
        worst = max(worst, abs(total - singles))
    _report(6, "independent-decoherence additivity", worst < 1e-12, f"(worst |diff| {worst:.1e})")


def test_criterion_07_ohmic_closed_forms():
    bath0 = OhmicBath(2.0, 1.5, 0.0, amplitude=0.7)
    worst_low = 0.0
    for u in (0.0, 0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0, 3.0, 5.0, 7.0, 10.0):
        d = u * bath0.v / bath0.omega_c
        worst_low = max(worst_low, abs(ohmic_correlation_quad(bath0, d) - ohmic_correlation_lowT(bath0, d))
                        / abs(ohmic_correlation_lowT(bath0, d)))
    high_errs = {}
    for t_ratio in (1e2, 1e4):
        bath = OhmicBath(1.0, 1.0, t_ratio)
        high_errs[t_ratio] = max(
            abs(ohmic_correlation_quad(bath, u) - ohmic_correlation_highT(bath, u))
            / abs(ohmic_correlation_highT(bath, u))
            for u in (0.0, 1.0, 3.0)
        )
    lo, hi = 0.5, 1.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ohmic_correlation_quad(bath0, mid * bath0.v / bath0.omega_c) > 0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    ok = (worst_low < 1e-6 and high_errs[1e2] < 1e-2 and high_errs[1e4] < 1e-4
          and abs(crossing - 1.0) < 1e-6)
    _report(7, "ohmic closed forms", ok,
            f"(lowT {worst_low:.1e}, highT {high_errs[1e2]:.1e}/{high_errs[1e4]:.1e}, "
            f"crossing at u={crossing:.8f})")


def test_criterion_08_regime_temperature_insensitive():
    v = omega_c = 1.0
    all_constant = True
    for d_ratio in (0.01, 1.0, 100.0):
        labels = set()
        for t_ratio in np.logspace(-2, 2, 9):
            bath = OhmicBath(omega_c, v, t_ratio * omega_c)
            labels.add(classify_regime(d_ratio * v / omega_c, ohmic_spectrum_moments(bath)).regime)
        all_constant = all_constant and len(labels) == 1
    _report(8, "regime temperature insensitivity", all_constant)


def test_criterion_09_purification_independence():
    lattice = QubitLattice((0.0,), 1.0, 0.0, (1.0,))
    modes = BathModeSet((BathMode(0.0, 1.0, 0.05),), 0.5)
    model = build_hamiltonian(lattice, modes, n_max_for_tail(1.0, 0.5))
    env = model.thermal_env_state()
    rho_s = maximally_mixed_density(1)
    times = np.linspace(0.0, 0.6, 9)
    # the oracle evolves rho_s itself; the dense reference evolves a purification of it, rotated on its ancilla
    oracle = fidelity_curve(model, "entanglement", rho_s, env, times).values
    rng = Xoshiro256pp(0)
    worst = 0.0
    for _ in range(20):
        u = random_unitary_matrix(rng, 2)
        rotated = [_reference_entanglement(model, env, rho_s, t, u) for t in times]
        worst = max(worst, np.abs(oracle - rotated).max())
    _report(9, "purification independence", worst < 1e-10, f"(worst pointwise dev {worst:.1e})")


def test_criterion_10_determinism(tmp_path):
    import json

    sweep_cfg = {
        "name": "det",
        "qubits": [{"position": 0.0}, {"position": 1.0}],
        "lambda1": 1.0, "lambda2": 0.0,
        "bath": {"ohmic": {"omega_c": 1.0, "v": 1.0, "temperature": 50.0, "form": "highT"}},
        "state": "ground",
        "sweep": {"parameter": "d", "range": {"start": 0.1, "stop": 10.0, "count": 7, "scale": "log"},
                  "columns": ["normalized", "regime"]},
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(sweep_cfg))
    outs = []
    for run in (1, 2):
        out = tmp_path / f"verify{run}.csv"
        assert main(["verify", "--suite", "quick", "--seed", "0", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    verify_same = outs[0] == outs[1]
    sweeps = []
    for run in (1, 2):
        out = tmp_path / f"sweep{run}.csv"
        assert main(["sweep", "--config", str(cfg_path), "--jobs", "3", "--out", str(out)]) == 0
        sweeps.append(out.read_bytes())
    sweep_same = sweeps[0] == sweeps[1]
    _report(10, "deterministic output", verify_same and sweep_same,
            f"(verify bytes equal: {verify_same}, sweep bytes equal: {sweep_same})")
