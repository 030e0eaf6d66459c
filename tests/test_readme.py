"""The README's library quick start and scenario config run as written, so an API rename cannot leave them stale."""

import csv
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})


def test_scenario_config_rates(tmp_path, capsys):
    from decolab.cli import EXIT_OK, main

    section = README.read_text(encoding="utf-8").split("### Scenario config", 1)[1]
    config = tmp_path / "demo.json"
    config.write_text(re.search(r"```json\n(.*?)```", section, re.S).group(1), encoding="utf-8")
    assert main(["rates", "--config", str(config)]) == EXIT_OK
    out, err = capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO(out)))
    assert err == "" and [r["kind"] for r in rows] == ["io", "entanglement"]
    assert all(r["method"] == "factorized" for r in rows)
    # the README gives the gap between the reported (untruncated) c2 and the tail-policy model's closed form
    from decolab.config import load_config
    from decolab.fidelity import closed_form_c2
    from decolab.model import build_hamiltonian
    from decolab.oracle import tail_n_max

    cfg = load_config(str(config))
    n_max = tail_n_max(cfg.bath)
    model = build_hamiltonian(cfg.lattice, cfg.bath, n_max)
    truncated = closed_form_c2("io", cfg.state, model.h_i, model.thermal_env_state())
    gap = (float(rows[0]["c2"]) - truncated) / float(rows[0]["c2"])
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert f"the tail-policy model, `n_max` {n_max}, is {gap:.1e} below it".replace("e-0", "e-") in text


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
        if truncated > oracle.FLAT_C2_FRACTION * scale:  # verify_expansion's test of a flat row
            bath = factorized_c2(sc.fidelity_kind, sc.state, sc.lattice,
                                 lambda d: correlation_fn_discrete(sc.modes, d))
            gaps[sc.name, sc.n_max] = (bath - truncated) / bath
    (name, n_max), worst = max(gaps.items(), key=lambda item: abs(item[1]))
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert f"{sum(abs(g) > 0.01 for g in gaps.values())} of the {len(gaps)} non-flat `full` grid rows" in text
    assert f"`{name}` at `n_max` {n_max}, {100 * worst:.1f}% below" in text
