"""Built-in verification suites behind ``decolab verify``.

Each suite is a list of named zero-argument tasks returning one report row
``{scenario, c2_analytic, c2_fitted, rel_err, pass}``.  Tasks are built
deterministically from the seed up front, so they can run in any order and
still produce identical rows in the listed order.  The tasks of one ``quick``
or ``full`` list share a ``ModelMemo``, so consecutive scenarios on one
truncated model reuse its Hamiltonian and eigendecomposition.  Every
truncation level comes from ``oracle.resolve_n_max``; the grid only lowers
the tail policy's level further through ``GRID_NMAX_CAP``.

Row semantics per suite:

* ``quick`` / ``full``: closed-form coefficient vs oracle-fitted coefficient;
  ``full``'s ``factorization-*`` rows: factorized rate vs variance form, by
  ``oracle.factorization_check``.
* ``inequality``: entanglement coefficient (analytic column) vs a random
  decomposition's average coefficient (fitted column); rel_err is the
  normalized violation, 0 when the ordering holds.
* ``encoding``: expected value or bound (analytic column) vs the computed
  rate (fitted column).
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .fidelity import C2_ZERO_FLOOR, Ensemble, check_rate_inequality
from .model import (
    BathMode,
    BathModeSet,
    QubitLattice,
    build_hamiltonian,
    correlation_fn_discrete,
    pair_encode,
    pair_rate,
    rate_from_correlation,
)
from .operators import (
    DenseOperator,
    HilbertSpace,
    Ket,
    n_max_for_tail,
    thermal_boson_state,
)
from .oracle import ModelMemo, Scenario, factorization_check, resolve_n_max, tail_n_max, verify_expansion
from .rng import Xoshiro256pp, random_decomposition, random_density_matrix, random_hermitian_matrix
from .states import (
    computational_ensemble,
    ghz_ket,
    ground_ket,
    maximally_mixed_density,
    plus_all_ket,
)

GRID_L = (1, 2)
# per mode count K: the (k, omega, g) entries of the grid's +/-k symmetric mode set
GRID_MODES = {1: [(0.0, 1.0, 0.05)], 2: [(1.3, 1.1, 0.04)], 4: [(0.9, 1.0, 0.04), (1.6, 1.2, 0.03)]}
GRID_K = tuple(GRID_MODES)
GRID_T = (0.0, 0.5, 2.0)
# per-mode-count truncation caps keeping the grid dense-feasible; K=1 runs the
# full tail policy, warmer multi-mode rows trade tail weight for dimension
# (legitimate for fit-vs-closed-form rows, which hold at any truncation)
GRID_NMAX_CAP = {1: 64, 2: 7, 4: 2}
INEQUALITY_INSTANCES = 1000  # random rows of the inequality suite, after the canonical one

Task = tuple[str, Callable[[], dict]]


def _grid_lattice(L: int) -> QubitLattice:
    if L == 1:
        return QubitLattice((0.0,), 1.0, 0.5, (1.0,))
    return QubitLattice(tuple(0.7 * i for i in range(L)), 1.0, 0.5, tuple(1.0 - 0.2 * i for i in range(L)))


def _grid_modes(K: int, temperature: float) -> BathModeSet:
    return BathModeSet.symmetric(GRID_MODES[K], temperature)


def _grid_n_max(modes: BathModeSet) -> int:
    return min(tail_n_max(modes), GRID_NMAX_CAP[modes.n_modes])


def _row(scenario: str, c2_analytic: float, c2_fitted: float, rel_err: float, passed) -> dict:
    return {"scenario": scenario, "c2_analytic": c2_analytic, "c2_fitted": c2_fitted, "rel_err": rel_err,
            "pass": bool(passed)}


def _verify_tasks(scenarios: list[Scenario], checked: tuple[str, ...] = ()) -> list[Task]:
    """One task per scenario, all sharing one ModelMemo: consecutive scenarios on one model share its build.

    Scenarios named in ``checked`` also re-run the fit at doubled n_max.
    """
    memo = ModelMemo()

    def run(sc: Scenario) -> dict:
        r = verify_expansion(sc, sc.name in checked, memo)
        return _row(r.scenario, r.c2_analytic, r.c2_fitted, r.rel_err, r.passed)

    return [(sc.name, functools.partial(run, sc)) for sc in scenarios]


def _grid_scenarios() -> list[Scenario]:
    scenarios = []
    for L in GRID_L:
        lattice = _grid_lattice(L)
        for K in GRID_K:
            for t_ratio in GRID_T:
                modes = _grid_modes(K, t_ratio)
                n_max = _grid_n_max(modes)
                tag = f"grid-L{L}-K{K}-T{t_ratio:g}"
                pure = [("ground", ground_ket(L)), ("plus_all", plus_all_ket(L))]
                if L >= 2:
                    pure.append(("ghz", ghz_ket(L)))
                    pure.append(("encoded", pair_encode(ground_ket(L // 2), lattice)))
                for label, ket in pure:
                    scenarios.append(Scenario(f"{tag}-{label}", "io", lattice, modes, ket, n_max))
                scenarios.append(Scenario(f"{tag}-maximally_mixed", "entanglement", lattice, modes,
                                          maximally_mixed_density(L), n_max))
                scenarios.append(Scenario(f"{tag}-average", "average", lattice, modes,
                                          computational_ensemble(L), n_max))
    return scenarios


# (L, K, T) combos where the tail-weight policy (< 1e-10) stays dense-feasible
FACTORIZATION_COMBOS = (
    (1, 1, 0.0), (1, 1, 0.5), (1, 1, 2.0),
    (2, 1, 0.0), (2, 1, 0.5), (2, 1, 2.0),
    (1, 2, 0.0), (1, 2, 0.5),
    (2, 2, 0.0), (2, 2, 0.5),
    (2, 4, 0.0),
)


def _factorization_task(L: int, K: int, t_ratio: float) -> Task:
    name = f"factorization-L{L}-K{K}-T{t_ratio:g}"

    def run() -> dict:
        modes = _grid_modes(K, t_ratio)
        model = build_hamiltonian(_grid_lattice(L), modes, resolve_n_max(modes, L, None))
        rho_s = maximally_mixed_density(L) if L == 1 else ghz_ket(L).projector()
        return _row(name, *factorization_check(model, model.thermal_env_state(), rho_s))

    return name, run


def quick_tasks() -> list[Task]:
    lat1 = QubitLattice((0.0,), 1.0, 0.0, (1.0,))
    lat2 = _grid_lattice(2)
    vacuum1 = BathModeSet((BathMode(0.0, 1.0, 0.05),), 0.0)
    decoupled = BathModeSet((BathMode(0.0, 1.0, 0.0),), 0.0)
    warm1 = BathModeSet((BathMode(0.0, 1.0, 0.05),), 0.5)
    hot1 = BathModeSet((BathMode(0.0, 1.0, 0.05),), 2.0)
    cold2 = _grid_modes(2, 0.0)
    plus = plus_all_ket(1)
    minus = Ket(HilbertSpace((2,)), np.array([1.0, -1.0]) / math.sqrt(2.0))
    scenarios = [
        Scenario("quick-io-vacuum", "io", lat1, vacuum1, ground_ket(1)),
        Scenario("quick-flat-decoupled", "io", lat1, decoupled, plus),
        Scenario("quick-ent-mixed-thermal", "entanglement", lat1, warm1, maximally_mixed_density(1)),
        Scenario("quick-avg-eigenstates", "average", lat1, vacuum1,
                 Ensemble(((0.5, plus), (0.5, minus)))),
        Scenario("quick-avg-basis-thermal", "average", lat1, warm1, computational_ensemble(1)),
        Scenario("quick-io-ghz", "io", lat2, cold2, ghz_ket(2), _grid_n_max(cold2)),
        Scenario("quick-factorized-hot", "factorized-rate", lat2, hot1, maximally_mixed_density(2)),
        Scenario("quick-io-encoded", "io", lat2, vacuum1, pair_encode(ground_ket(1), lat2)),
    ]
    return _verify_tasks(scenarios)


def full_tasks() -> list[Task]:
    grid = _grid_scenarios()
    # thermal K=4 corner: full-stack factorized-rate at fit tolerance
    stack = Scenario("full-stack-L2-K4-thermal", "factorized-rate", _grid_lattice(2), _grid_modes(4, 0.5),
                     ghz_ket(2).projector(), n_max=3)
    # truncation convergence gate on a tail-converged scenario
    gate = Scenario("convergence-gate-L1-K1-warm", "entanglement", QubitLattice((0.0,), 1.0, 0.5, (1.0,)),
                    BathModeSet((BathMode(0.0, 1.0, 0.05),), 0.5), maximally_mixed_density(1))
    verify = _verify_tasks(grid + [stack, gate], checked=(gate.name,))
    factorization = [_factorization_task(L, K, t) for L, K, t in FACTORIZATION_COMBOS]
    return verify[:len(grid)] + factorization + verify[len(grid):]


def _inequality_instance(rng: Xoshiro256pp, index: int) -> Task:
    L = 1 + rng.randint(2)
    ds = 2 ** L
    space = HilbertSpace((2,) * L)
    rho = DenseOperator.density_op(space, random_density_matrix(rng, ds, rank=1 + rng.randint(ds)))
    members = []
    rank = sum(1 for p in np.linalg.eigvalsh(rho.matrix) if p > 1e-12)
    for q, amp in random_decomposition(rng, rho.matrix, rank + rng.randint(3)):
        members.append((q, Ket(space, amp)))
    ensemble = Ensemble(tuple(members))
    omega = 0.5 + 1.5 * rng.uniform()
    temperature = 0.0 if rng.uniform() < 0.25 else 0.3 * omega * rng.uniform()
    n_max = n_max_for_tail(omega, temperature)
    env = thermal_boson_state(omega, temperature, n_max)
    scale = 0.05 + 0.1 * rng.uniform()
    h_space = HilbertSpace((2,) * L + (n_max + 1,))
    h_i = DenseOperator.hermitian_op(h_space, random_hermitian_matrix(rng, h_space.dim, scale))
    name = f"inequality-{index:04d}"

    def run() -> dict:
        rep = check_rate_inequality(rho, ensemble, h_i, env)
        denom = max(rep.c2_entanglement, rep.c2_average, C2_ZERO_FLOOR)
        violation = max(0.0, rep.c2_average - rep.c2_entanglement) / denom
        return _row(name, rep.c2_entanglement, rep.c2_average, violation, rep.holds)

    return name, run


def inequality_tasks(seed: int) -> list[Task]:
    g = 0.05
    space = HilbertSpace((2,))
    plus = Ket(space, np.array([1.0, 1.0]) / math.sqrt(2.0))
    minus = Ket(space, np.array([1.0, -1.0]) / math.sqrt(2.0))
    mixed = maximally_mixed_density(1)
    a1 = np.diag(np.sqrt(np.arange(1, 3)).astype(np.complex128), k=1)
    h = DenseOperator.hermitian_op(
        HilbertSpace((2, 3)),
        g * np.kron(np.array([[0, 1], [1, 0]], dtype=np.complex128), a1 + a1.conj().T),
    )
    vac = thermal_boson_state(1.0, 0.0, 2)

    def canonical() -> dict:
        rep = check_rate_inequality(mixed, Ensemble(((0.5, plus), (0.5, minus))), h, vac)
        return _row("inequality-canonical-strict", rep.c2_entanglement, rep.c2_average, 0.0, rep.holds)

    tasks: list[Task] = [("inequality-canonical-strict", canonical)]
    rng = Xoshiro256pp(seed)
    for i in range(INEQUALITY_INSTANCES):
        tasks.append(_inequality_instance(rng, i))
    return tasks


def encoding_tasks() -> list[Task]:
    lam = (1.0, 0.5)
    a2 = lam[0] ** 2 + lam[1] ** 2
    x = 1.0
    constant = lambda d: x
    enc_lattice = QubitLattice((0.0, 0.1, 1.0, 1.1), *lam)
    logical = ground_ket(2)
    encoded = pair_encode(logical, enc_lattice)
    bare_lattice = QubitLattice((0.0, 1.0), *lam)

    minus, plus = bare_lattice.coupling_eigenstates()
    naive = Ket(HilbertSpace((2, 2)),
                (np.kron(plus, plus) + np.kron(minus, minus)) / math.sqrt(2.0))
    pair_bath = BathModeSet.symmetric([(0.05, 1.0, 0.05)], 0.0)
    pair_omega2 = lambda dr: correlation_fn_discrete(pair_bath, dr)

    def encoded_constant() -> dict:
        rate = rate_from_correlation(enc_lattice, constant, encoded)
        return _row("encoding-encoded-constant", 0.0, rate, abs(rate), rate < 1e-12)

    def encoded_pair_rate() -> dict:
        rate = pair_rate(enc_lattice, pair_omega2, encoded)
        return _row("encoding-encoded-pair-rate", 0.0, rate, abs(rate), rate < 1e-12)

    def unencoded_floor() -> dict:
        rate = rate_from_correlation(bare_lattice, constant, logical)
        bound = x * a2
        miss = max(0.0, bound - rate) / bound
        return _row("encoding-unencoded-floor", bound, rate, miss, rate >= bound * (1 - 1e-12))

    def naive_pair_positive() -> dict:
        rate = pair_rate(bare_lattice, pair_omega2, naive)
        x_bath = correlation_fn_discrete(pair_bath, 0.0)
        expected = 2.0 * x_bath * a2  # variance of the pair sum is 4 a^2
        rel = abs(rate - expected) / expected
        return _row("encoding-naive-pair-positive", expected, rate, rel, rate > 0.1 * expected)

    @functools.cache
    def scaling_rate(kd: float) -> float:
        d = 1.0
        lattice = QubitLattice((0.0, d), *lam)
        bath = BathModeSet.symmetric([(kd / d, 1.0, 0.05)], 0.0)
        state = pair_encode(ground_ket(1), lattice)
        return rate_from_correlation(lattice, lambda dr: correlation_fn_discrete(bath, dr), state)

    def scaling_row(kd: float) -> dict:
        rate = scaling_rate(kd)
        return _row(f"encoding-scaling-kd-{kd:g}", 0.0, rate, 0.0, rate > 0.0)

    def scaling_ratio(kd: float, base: float, expected: float) -> dict:
        ratio = scaling_rate(kd) / scaling_rate(base)
        rel = abs(ratio - expected) / expected
        return _row(f"encoding-scaling-ratio-{kd:g}", expected, ratio, rel, rel <= 0.1)

    return [
        ("encoding-encoded-constant", encoded_constant),
        ("encoding-encoded-pair-rate", encoded_pair_rate),
        ("encoding-unencoded-floor", unencoded_floor),
        ("encoding-naive-pair-positive", naive_pair_positive),
        ("encoding-scaling-kd-0.01", lambda: scaling_row(0.01)),
        ("encoding-scaling-kd-0.02", lambda: scaling_row(0.02)),
        ("encoding-scaling-kd-0.04", lambda: scaling_row(0.04)),
        ("encoding-scaling-ratio-0.02", lambda: scaling_ratio(0.02, 0.01, 4.0)),
        ("encoding-scaling-ratio-0.04", lambda: scaling_ratio(0.04, 0.01, 16.0)),
    ]


# per suite name: its task list, built from the seed
_SUITES = {"quick": lambda seed: quick_tasks(), "full": lambda seed: full_tasks(),
           "inequality": lambda seed: inequality_tasks(seed), "encoding": lambda seed: encoding_tasks()}
SUITE_NAMES = tuple(_SUITES)


def suite_tasks(name: str, seed: int) -> list[Task]:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    return _SUITES[name](seed)
