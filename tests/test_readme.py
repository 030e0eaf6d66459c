"""The README's library quick start runs as written, so an API rename cannot leave it stale."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})


def test_readme_states_the_full_grids_truncation_gap():
    # a fitted row's c2_analytic is its truncated model's closed form; the README gives its gap to the bath
    from decolab import oracle
    from decolab.fidelity import closed_form_c2, factorized_c2
    from decolab.model import build_hamiltonian, correlation_fn_discrete
    from decolab.suites import _grid_scenarios

    models, gaps = {}, {}
    for sc in _grid_scenarios():
        key = sc.lattice, sc.modes, sc.n_max
        if key not in models:
            model = build_hamiltonian(*key)
            rho_env = model.thermal_env_state()
            models[key] = model, rho_env, oracle._scale_moment(model, rho_env)
        model, rho_env, scale = models[key]
        truncated = closed_form_c2(sc.fidelity_kind, sc.state, model.h_i, rho_env)
        if truncated > oracle.FLAT_C2_FRACTION * max(scale, 1.0):  # verify_expansion's test of a flat row
            bath = factorized_c2(sc.fidelity_kind, sc.state, sc.lattice,
                                 lambda d: correlation_fn_discrete(sc.modes, d))
            gaps[sc.name, sc.n_max] = (bath - truncated) / bath
    (name, n_max), worst = max(gaps.items(), key=lambda item: abs(item[1]))
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert f"{sum(abs(g) > 0.01 for g in gaps.values())} of the {len(gaps)} non-flat `full` grid rows" in text
    assert f"`{name}` at `n_max` {n_max}, {100 * worst:.1f}% below" in text
