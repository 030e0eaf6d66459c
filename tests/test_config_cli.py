import csv
import io
import itertools
import json
import math
import warnings
from fractions import Fraction

import pytest

from decolab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERIFY,
    cmd_correlation,
    cmd_rates,
    cmd_regime,
    cmd_sweep,
    main,
    rows_to_csv,
    rows_to_json,
)
from decolab.config import parse_config
from decolab.errors import ConfigError
from decolab.fidelity import C2_ZERO_FLOOR
from decolab.spectral import OhmicBath, correlation, ohmic_correlation_highT


def base_config(**overrides):
    cfg = {
        "name": "t",
        "qubits": [{"position": 0.0}],
        "lambda1": 1.0,
        "lambda2": 0.0,
        "h0_splittings": [1.0],
        "bath": {"discrete": {"temperature": 0.0,
                              "modes": [{"k": 0.0, "omega": 1.0, "g": 0.05}]}},
        "state": "ground",
        "fidelity_kind": "io",
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


# --- validation -------------------------------------------------------------

@pytest.mark.parametrize("mutate,path", [
    (lambda c: c.update(qubits=[]), "qubits"),
    (lambda c: c["qubits"][0].update(position="x"), "qubits[0].position"),
    (lambda c: c.update(bath={}), "bath"),
    (lambda c: c.update(bath={"ohmic": {"v": 1.0}}), "bath.ohmic.omega_c"),
    (lambda c: c.update(bath={"ohmic": {"omega_c": -1.0, "v": 1.0}}), "bath.ohmic"),
    (lambda c: c.update(state="unknown"), "state"),
    (lambda c: c.update(fidelity_kind="bogus"), "fidelity_kind"),
    (lambda c: c.update(n_max=0), "n_max"),
    (lambda c: c.update(lambda1="x"), "lambda1"),
    (lambda c: c.update(lambda2="x"), "lambda2"),
    pytest.param(lambda c: c.update(n_max=1.5), "n_max", id="n_max-not-an-integer"),
    (lambda c: c.update(sweep={"parameter": "d"}), "sweep"),
    # the lattice refuses a coupling scale beyond the float range at the larger constant, and positions at qubits
    pytest.param(lambda c: c.update(lambda1=1e200), "lambda1", id="lambda1-beyond-the-float-range"),
    pytest.param(lambda c: c.update(lambda1=1e150, lambda2=-1e200), "lambda2", id="lambda2-beyond-the-float-range"),
    pytest.param(lambda c: c.update(qubits=[{"position": 1.0}, {"position": 0.0}], h0_splittings=[]), "qubits",
                 id="qubits-not-increasing"),
])
def test_config_errors_carry_field_paths(mutate, path):
    cfg = base_config()
    mutate(cfg)
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert err.value.field == path


def test_config_rejects_two_bath_variants():
    cfg = base_config(bath={"discrete": {"modes": [{"k": 0, "omega": 1, "g": 0.1}]},
                            "ohmic": {"omega_c": 1, "v": 1}})
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert err.value.field == "bath"


def test_config_amplitude_state_with_complex_entries():
    cfg = base_config(state=[[0.0, 1.0], 0.0])
    parsed = parse_config(cfg)
    ket = parsed.state
    assert abs(abs(ket.amplitudes[0]) - 1.0) < 1e-12


def test_encoded_preset_needs_even_qubits():
    cfg = base_config(state="encoded")
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert err.value.field == "state"


# --- rates ------------------------------------------------------------------

def test_rates_single_qubit_vacuum():
    rows = cmd_rates(parse_config(base_config(fidelity_kind=["io", "entanglement"])))
    assert [r["kind"] for r in rows] == ["io", "entanglement"]
    for r in rows:
        assert abs(r["c2"] - 0.05 ** 2) < 1e-15
        assert r["method"] == "factorized"
        assert abs(r["tau2"] - 20.0) < 1e-9


def test_rates_zero_coupling_row():
    cfg = base_config()
    cfg["bath"]["discrete"]["modes"][0]["g"] = 0.0
    row = cmd_rates(parse_config(cfg))[0]
    assert row["c2"] == 0.0
    assert math.isinf(row["tau2"])


def test_rates_encoded_constant_correlation_is_subdecoherent():
    cfg = base_config(
        name="enc",
        qubits=[{"position": p} for p in (0.0, 0.1, 1.0, 1.1)],
        h0_splittings=[],
        bath={"gaussian": {"k_bar": 0.0, "delta_k": 0.0, "x": 1.0}},
        state="encoded",
        fidelity_kind="io",
    )
    row = cmd_rates(parse_config(cfg))[0]
    assert row["method"] == "factorized"
    assert row["c2"] < 1e-12
    assert math.isinf(row["tau2"])


def test_rates_average_requires_ensemble_for_generic_mixed_state():
    cfg = base_config(state="maximally_mixed", fidelity_kind="average")
    rows = cmd_rates(parse_config(cfg))
    assert abs(rows[0]["c2"] - 0.05 ** 2) < 1e-15  # computational decomposition


def _forbid_dense_models(monkeypatch):
    """Make building or truncating a dense model raise."""
    import decolab.model
    import decolab.oracle

    def forbidden(*args):
        raise AssertionError("a dense model was built")

    monkeypatch.setattr(decolab.model, "build_hamiltonian", forbidden)
    monkeypatch.setattr(decolab.oracle, "build_hamiltonian", forbidden)
    monkeypatch.setattr(decolab.oracle, "resolve_n_max", forbidden)


def test_rates_builds_no_discrete_model(monkeypatch):
    _forbid_dense_models(monkeypatch)
    rows = cmd_rates(parse_config(base_config(fidelity_kind=["io", "entanglement", "average"])))
    assert [r["kind"] for r in rows] == ["io", "entanglement", "average"]
    assert all(r["method"] == "factorized" and abs(r["c2"] - 0.05 ** 2) < 1e-15 for r in rows)


def test_rates_answers_a_discrete_bath_beyond_the_dimension_cap(tmp_path, capsys):
    from decolab.errors import ConvergenceError
    from decolab.fidelity import factorized_c2
    from decolab.model import correlation_fn_discrete
    from decolab.oracle import resolve_n_max

    # the README demo config plus one mirrored mode pair
    modes = [{"k": k, "omega": omega, "g": g} for k, omega, g in
             ((1.3, 1.1, 0.04), (-1.3, 1.1, 0.04), (0.6, 0.9, 0.03), (-0.6, 0.9, 0.03))]
    cfg = base_config(name="demo", qubits=[{"position": 0.0}, {"position": 0.7}], lambda2=0.5,
                      h0_splittings=[1.0, 0.8], bath={"discrete": {"temperature": 0.5, "modes": modes}},
                      state="ghz", fidelity_kind=["io", "entanglement", "average"])
    parsed = parse_config(cfg)
    with pytest.raises(ConvergenceError, match="exceeds the cap 4096"):  # a dense model of this bath cannot be built
        resolve_n_max(parsed.bath, parsed.lattice.n_qubits, None)
    assert main(["rates", "--config", write_config(tmp_path, cfg)]) == EXIT_OK
    out, err = capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO(out)))
    assert err == "" and [r["kind"] for r in rows] == ["io", "entanglement", "average"]
    c2 = factorized_c2("io", parsed.state, parsed.lattice, lambda d: correlation_fn_discrete(parsed.bath, d))
    assert all(r["method"] == "factorized" and float(r["c2"]) == c2 for r in rows)


def test_discrete_d_sweep_builds_no_model(monkeypatch):
    from decolab.fidelity import factorized_c2
    from decolab.model import correlation_fn_discrete

    _forbid_dense_models(monkeypatch)
    ds = [0.05 * 1.5 ** i for i in range(12)]
    cfg = base_config(qubits=[{"position": 0.1 * i} for i in range(4)], h0_splittings=[],
                      bath={"discrete": {"temperature": 0.5, "modes": [{"k": 1.3, "omega": 1.1, "g": 0.04},
                                                                       {"k": -1.3, "omega": 1.1, "g": 0.04}]}},
                      state="encoded", fidelity_kind="entanglement",
                      sweep={"parameter": "d", "values": ds, "columns": ["c2", "tau2", "method"]})
    parsed = parse_config(cfg)
    rows, _ = cmd_sweep(parsed)
    assert [r["error"] for r in rows] == [""] * len(ds)
    assert all(r["method"] == "factorized" for r in rows)
    for d, row in zip(ds, rows):
        point, _ = parsed.sweep_point(d)
        assert row["c2"] == factorized_c2("entanglement", point.state, point.lattice,
                                          lambda r: correlation_fn_discrete(point.bath, r))


def test_d_sweep_builds_the_state_once(monkeypatch):
    import decolab.config

    built = []
    build = decolab.config.build_preset
    monkeypatch.setattr(decolab.config, "build_preset", lambda name, lattice: built.append(name) or build(name, lattice))
    cfg = base_config(qubits=[{"position": 0.1 * i} for i in range(4)], h0_splittings=[],
                      bath={"ohmic": {"omega_c": 1.0, "v": 1.0, "temperature": 0.3}}, state="encoded",
                      fidelity_kind=["io", "entanglement", "average"],
                      sweep={"parameter": "d", "values": [0.5, 1.0, 2.0], "columns": ["c2"]})
    rows, _ = cmd_sweep(parse_config(cfg))
    assert [r["error"] for r in rows] == ["", "", ""]
    assert built == ["encoded"]  # at parse time; the points share the parsed state


def test_broken_ensemble_fails_only_the_average_kind(tmp_path, capsys):
    cfg = base_config(ensemble=[{"p": 0.6, "state": "ground"}, {"p": 0.6, "state": "plus_all"}])
    assert main(["rates", "--config", write_config(tmp_path, cfg)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("scenario_id,kind,c2,tau2,method\nt,io,")
    cfg["fidelity_kind"] = "average"
    assert main(["rates", "--config", write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ensemble: ensemble probabilities sum to 1.2")


def test_parsed_configs_compare_equal():
    cfg = base_config(state=[[0.0, 1.0], 0.5])
    assert parse_config(cfg) == parse_config(cfg)


def test_rates_io_rejects_mixed_state():
    cfg = base_config(state="maximally_mixed", fidelity_kind="io")
    with pytest.raises(ConfigError):
        cmd_rates(parse_config(cfg))


def test_cli_weak_bath_keeps_a_finite_damping_time(tmp_path, capsys):
    # omega_c = 1e-10: c2 = 4e-20 is far below an absolute floor of 1e-14 but not below the bath's own scale
    cfg = base_config(qubits=[{"position": 0.0}, {"position": 1.0}], h0_splittings=[1.0, 1.0],
                      bath={"ohmic": {"omega_c": 1e-10, "v": 1.0, "temperature": 0.0}}, state="ghz")
    assert main(["rates", "--config", write_config(tmp_path, cfg)]) == EXIT_OK
    assert capsys.readouterr() == ("scenario_id,kind,c2,tau2,method\nt,io,4e-20,5000000000.0,factorized\n", "")


def test_rates_ohmic_factorized():
    cfg = base_config(
        qubits=[{"position": 0.0}, {"position": 0.5}],
        h0_splittings=[],
        bath={"ohmic": {"omega_c": 1.0, "v": 1.0, "temperature": 0.0}},
        state="ghz",
        fidelity_kind="entanglement",
    )
    row = cmd_rates(parse_config(cfg))[0]
    assert row["method"] == "factorized"
    assert row["c2"] > 0.0


def test_rates_quad_evaluates_each_separation_once(monkeypatch):
    import decolab.spectral

    calls = []
    quad = decolab.spectral.ohmic_correlation_quad

    def counting(bath, delta_r):
        calls.append(delta_r)
        return quad(bath, delta_r)

    monkeypatch.setattr(decolab.spectral, "ohmic_correlation_quad", counting)
    positions = [0.0, 1.0, 2.0, 3.0]
    cfg = base_config(
        qubits=[{"position": r} for r in positions],
        h0_splittings=[],
        bath={"ohmic": {"omega_c": 1.0, "v": 1.0, "temperature": 0.3, "form": "quad"}},
        state="plus_all",
        fidelity_kind=["io", "entanglement", "average"],
    )
    separations = {abs(ri - rj) for ri in positions for rj in positions}
    rows = cmd_rates(parse_config(cfg))
    assert [r["kind"] for r in rows] == ["io", "entanglement", "average"]
    assert sorted(calls) == sorted(separations)  # 4 calls; 48 without the memo
    # a freshly parsed config starts with an empty memo
    assert cmd_rates(parse_config(cfg)) == rows
    assert len(calls) == 2 * len(separations)


def test_sweep_point_evaluates_each_separation_once(monkeypatch):
    import decolab.spectral

    calls = []
    quad = decolab.spectral.ohmic_correlation_quad

    def counting(bath, delta_r):
        calls.append(delta_r)
        return quad(bath, delta_r)

    monkeypatch.setattr(decolab.spectral, "ohmic_correlation_quad", counting)
    cfg = base_config(
        qubits=[{"position": r} for r in (0.0, 1.0, 2.0)],
        h0_splittings=[],
        bath={"ohmic": {"omega_c": 1.0, "v": 1.0, "temperature": 0.3, "form": "quad"}},
        state="ghz",
        fidelity_kind="entanglement",
        sweep={"parameter": "d", "values": [0.5], "columns": ["c2", "omega2"]},
    )
    rows, _ = cmd_sweep(parse_config(cfg))
    assert rows[0]["error"] == "" and rows[0]["omega2"] > 0.0
    # rates and correlation share the point's memo: 0, d and 2d once each
    assert sorted(calls) == [0.0, 0.5, 1.0]


def _d_sweep_config(values):
    return base_config(
        qubits=[{"position": r} for r in (0.0, 1.0, 2.0)],
        h0_splittings=[],
        bath={"ohmic": {"omega_c": 1.0, "v": 1.0, "temperature": 0.3, "form": "quad"}},
        state="ghz",
        fidelity_kind="entanglement",
        sweep={"parameter": "d", "values": values, "columns": ["c2", "omega2", "regime"]},
    )


def test_d_sweep_reuses_the_parsed_config(monkeypatch):
    import decolab.config

    parses = []
    parse = decolab.config.parse_config
    monkeypatch.setattr(decolab.config, "parse_config", lambda raw: parses.append(raw) or parse(raw))
    cfg = parse_config(_d_sweep_config([0.5, 1.0, 2.0]))
    rows, _ = cmd_sweep(cfg)
    assert [r["error"] for r in rows] == ["", "", ""]
    assert parses == []  # each point replaces the lattice of the parsed config
    # the same rows as configs parsed point by point
    for row, d in zip(rows, (0.5, 1.0, 2.0)):
        point = parse_config(_d_sweep_config([d]) | {"qubits": [{"position": i * d} for i in range(3)]})
        assert row["c2"] == cmd_rates(point)[0]["c2"]
        assert row["omega2"] == cmd_correlation(point, [d])[0]["omega2"]


def test_d_sweep_evaluates_the_bath_memos_once(monkeypatch):
    import decolab.spectral as spectral

    moments, zero = [], []
    spectrum_moments, quad = spectral.ohmic_spectrum_moments, spectral.ohmic_correlation_quad
    monkeypatch.setattr(spectral, "ohmic_spectrum_moments", lambda bath: moments.append(bath) or spectrum_moments(bath))

    def counting(bath, delta_r):
        if delta_r == 0.0:
            zero.append(bath)
        return quad(bath, delta_r)

    monkeypatch.setattr(spectral, "ohmic_correlation_quad", counting)
    cfg = parse_config(_d_sweep_config([0.5, 1.0, 2.0]))
    rows, _ = cmd_sweep(cfg)
    assert [r["error"] for r in rows] == ["", "", ""]
    # the points share the parsed bath, and with it Omega^2(0) and the spectrum: once per sweep
    assert len(moments) == 1 and moments[0] is cfg.bath
    assert len(zero) == 1 and zero[0] is cfg.bath
    assert [r["regime"] for r in rows] == [cmd_regime(parse_config(_d_sweep_config([d])), [d])[0]["regime"]
                                           for d in (0.5, 1.0, 2.0)]


def test_sweep_computes_only_the_kind_it_reports(monkeypatch):
    import decolab.cli

    calls = []
    factorized = decolab.cli.factorized_c2
    monkeypatch.setattr(decolab.cli, "factorized_c2", lambda *args: calls.append(args[0]) or factorized(*args))
    cfg = _d_sweep_config([0.5, 1.0, 2.0]) | {"fidelity_kind": ["entanglement", "io", "average"]}
    rows, _ = cmd_sweep(parse_config(cfg))
    assert calls == ["entanglement"] * 3
    assert [r["c2"] for r in rows] == [cmd_rates(parse_config(_d_sweep_config([d]) | {
        "qubits": [{"position": i * d} for i in range(3)]}))[0]["c2"] for d in (0.5, 1.0, 2.0)]
    # a later kind that cannot be computed no longer fills the error cell
    broken = cfg | {"ensemble": [{"p": 0.6, "state": "ground"}, {"p": 0.6, "state": "plus_all"}]}
    assert [r["error"] for r in cmd_sweep(parse_config(broken))[0]] == ["", "", ""]


def test_d_sweep_invalid_spacing_is_a_row_error():
    rows, _ = cmd_sweep(parse_config(_d_sweep_config([0.0, -1.0, 1e308, 1.0])))
    assert [r["error"] for r in rows] == [
        "qubits: positions must be strictly increasing; got (0.0; 0.0; 0.0)",
        "qubits: positions must be strictly increasing; got (-0.0; -1.0; -2.0)",  # 0 * -1.0
        "qubits[2].position: must be finite",  # 2 * 1e308 overflows
        "",
    ]
    assert rows[0]["c2"] is None and rows[3]["c2"] > 0.0


@pytest.mark.parametrize("bath, path", [
    ({"discrete": {"temperature": 0.0, "modes": [{"k": 0.0, "omega": 1.0, "g": 0.05}]}}, "bath.discrete.modes"),
    ({"ohmic": {"omega_c": 1.0, "v": 1.0, "temperature": 0.3}}, "bath.ohmic"),
], ids=["discrete", "ohmic"])
def test_temperature_sweep_reuses_the_parsed_config(monkeypatch, bath, path):
    import decolab.config

    parses, built = [], []
    parse, build = decolab.config.parse_config, decolab.config.build_preset
    monkeypatch.setattr(decolab.config, "build_preset", lambda name, lattice: built.append(name) or build(name, lattice))
    cfg = parse_config(base_config(qubits=[{"position": 0.0}, {"position": 0.7}], h0_splittings=[], bath=bath,
                                   state="ghz", fidelity_kind=["io", "entanglement", "average"],
                                   sweep={"parameter": "temperature", "values": [0.5, -1.0, 2.0],
                                          "columns": ["c2", "omega2"]}))
    monkeypatch.setattr(decolab.config, "parse_config", lambda raw: parses.append(raw) or parse(raw))
    rows, _ = cmd_sweep(cfg)
    assert parses == [] and built == ["ghz"]  # each point replaces the bath of the parsed config
    assert [r["error"] for r in rows] == ["", f"{path}: temperature must be >= 0; got -1.0", ""]
    # the same rows as configs parsed point by point
    (kind, body), = bath.items()
    for row, t in zip(rows[::2], (0.5, 2.0)):
        point = parse({**cfg.raw, "bath": {kind: {**body, "temperature": t}}})
        assert row["c2"] == cmd_rates(point)[0]["c2"]
        assert row["omega2"] == cmd_correlation(point, [0.7])[0]["omega2"]


# --- non-finite inputs ---------------------------------------------------------

@pytest.mark.parametrize("mutate,path", [
    (lambda c: c.update(delta_r=[0.0, math.inf]), "delta_r[1]"),
    (lambda c: c.update(delta_r=[math.nan]), "delta_r[0]"),
    (lambda c: c.update(d=[1.0, -math.inf]), "d[1]"),
    (lambda c: c.update(sweep={"parameter": "d", "values": [math.nan], "columns": ["c2"]}),
     "sweep.values[0]"),
])
def test_config_rejects_non_finite_list_values(mutate, path):
    cfg = base_config()
    mutate(cfg)
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert err.value.field == path


@pytest.mark.parametrize("mutate,path", [
    (lambda c: c.update(delta_r=[10 ** 400]), "delta_r[0]"),  # _parse_number_list
    (lambda c: c["qubits"][0].update(position=-10 ** 400), "qubits[0].position"),  # _get_number
    (lambda c: c.update(h0_splittings=[math.nan]), "h0_splittings[0]"),
    (lambda c: c.update(state=[1.0, 10 ** 400]), "state[1]"),  # explicit amplitudes
    (lambda c: c.update(state=[[1.0, math.inf], 0.0]), "state[0][1]"),
])
def test_config_rejects_numbers_beyond_the_float_range(mutate, path):
    cfg = base_config()
    mutate(cfg)
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert err.value.field == path


@pytest.mark.parametrize("command", ["rates", "verify"])
def test_cli_rejects_a_nan_splitting(tmp_path, capsys, command):
    path = write_config(tmp_path, base_config(h0_splittings=[math.nan]))  # the JSON token NaN
    assert main([command, "--config", path]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: h0_splittings[0]: must be finite\n"


def test_cli_correlation_rejects_an_integer_separation_beyond_the_float_range(tmp_path, capsys):
    cfg = base_config(bath={"ohmic": {"omega_c": 1.0, "v": 1.0, "temperature": 0.3}}, delta_r=[10 ** 400])
    assert main(["correlation", "--config", write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: delta_r[0]: must be finite\n"


@pytest.mark.parametrize("command,flag,raw", [
    ("correlation", "--delta-r", "0,inf"),
    ("correlation", "--delta-r", "nan"),
    ("regime", "--d", "nan"),
    ("regime", "--d", "1,-inf"),
])
def test_cli_rejects_non_finite_flag_values(tmp_path, capsys, command, flag, raw):
    path = write_config(tmp_path, base_config(bath={"gaussian": {"k_bar": 1.0, "delta_k": 1.0, "x": 1.0}}))
    assert main([command, "--config", path, f"{flag}={raw}"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {flag}: expected finite numbers, got {raw!r}\n"


def test_cli_correlation_rejects_infinite_config_separation(tmp_path, capsys):
    cfg = base_config(bath={"ohmic": {"omega_c": 1.0, "v": 1.0, "temperature": 0.3}},
                      delta_r=[math.inf])  # written as the JSON token Infinity
    assert main(["correlation", "--config", write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: delta_r[0]: must be finite\n"


def test_cli_correlation_at_a_large_separation_is_the_highT_limit(tmp_path, capsys):
    cfg = base_config(bath={"ohmic": {"omega_c": 1.0, "v": 1.0, "temperature": 0.3}})
    path = write_config(tmp_path, cfg)
    assert main(["correlation", "--config", path, "--delta-r", "1e8"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    row = list(csv.DictReader(io.StringIO(captured.out)))[0]
    high = ohmic_correlation_highT(OhmicBath(1.0, 1.0, 0.3), 1e8)  # 1.2e-16
    assert abs(float(row["omega2"]) - high) <= 1e-9 * high


@pytest.mark.parametrize("temperature", [1e300, 1e-300])
def test_cli_ohmic_extreme_temperatures_stay_finite(tmp_path, capsys, temperature):
    cfg = base_config(
        qubits=[{"position": 0.0}, {"position": 1.0}],
        h0_splittings=[],
        bath={"ohmic": {"omega_c": 1.0, "v": 1.0, "temperature": temperature}},
        state="ghz",
        fidelity_kind=["io", "entanglement", "average"],
        delta_r=[0.0, 1.0],
    )
    path = write_config(tmp_path, cfg)
    outputs = {}
    for command in ("rates", "correlation"):
        assert main([command, "--config", path]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs[command] = list(csv.DictReader(io.StringIO(captured.out)))
    values = [float(r[c]) for r in outputs["rates"] for c in ("c2", "tau2")]
    values += [float(r[c]) for r in outputs["correlation"] for c in ("omega2", "normalized")]
    assert all(math.isfinite(x) for x in values)
    if temperature == 1e300:
        # the high-temperature limit 4 T omega_c / (1 + u^2) at u = 1
        at_one = outputs["correlation"][1]
        assert abs(float(at_one["omega2"]) - 2e300) <= 1e-12 * 2e300
        assert abs(float(at_one["normalized"]) - 0.5) <= 1e-12 * 0.5


# the scan grid of an Ohmic bath across the float range: decades of omega_c and v, temperatures from 0 through
# the smallest subnormal to 1e300, separations from 0 to 1e300
_FLOAT_RANGE_OMEGA_C = (1e-300, 1e-100, 1.0, 1e10, 1e80, 1e300)
_FLOAT_RANGE_V = (1e-300, 1.0, 1e300)
_FLOAT_RANGE_T = (0.0, 5e-324, 0.3, 1e300)
_FLOAT_RANGE_D = (0.0, 1e-300, 1.0, 1e300)


def _ohmic_config(omega_c, v, temperature, d=1.0, **overrides):
    return base_config(qubits=[{"position": 0.0}, {"position": d or 1.0}], h0_splittings=[],
                       bath={"ohmic": {"omega_c": omega_c, "v": v, "temperature": temperature}}, state="ghz",
                       fidelity_kind=["io", "entanglement", "average"], **overrides)


def test_cli_ohmic_bath_across_the_float_range_prints_finite_cells_or_names_the_bath(tmp_path, capsys):
    codes = set()
    for omega_c, v, temperature, d in itertools.product(_FLOAT_RANGE_OMEGA_C, _FLOAT_RANGE_V, _FLOAT_RANGE_T,
                                                        _FLOAT_RANGE_D):
        path = write_config(tmp_path, _ohmic_config(omega_c, v, temperature, d))
        commands = [["correlation", "--delta-r", repr(d)], ["rates"]] + ([["regime", "--d", repr(d)]] if d else [])
        for command in commands:
            code = main([command[0], "--config", path, *command[1:]])
            out, err = capsys.readouterr()
            where = (command, omega_c, v, temperature, d)
            codes.add((command[0], code))
            if code == EXIT_CONFIG:
                prefixes = ["config error: bath.ohmic: "]
                if command[0] == "regime":  # the classifier rejects its ratios for every bath kind, naming none
                    prefixes.append("error: (kbar_d, dk_d) = ")
                assert out == "" and err.startswith(tuple(prefixes)), where
                assert err.endswith(" is beyond the float range\n"), where
                continue
            assert code == EXIT_OK and err == "", where
            for row in csv.DictReader(io.StringIO(out)):
                cells = {c: float(x) for c, x in row.items() if c not in ("scenario_id", "kind", "method", "regime")}
                if "tau2" in cells and cells["c2"] <= C2_ZERO_FLOOR * abs(correlation(parse_config(
                        _ohmic_config(omega_c, v, temperature, d)).bath, 0.0)):  # lambda1 = 1, lambda2 = 0
                    assert cells.pop("tau2") == math.inf, where  # a vanishing rate's damping time, by definition
                assert all(math.isfinite(x) for x in cells.values()), where
    assert codes == {(c, code) for c in ("correlation", "rates", "regime") for code in (EXIT_OK, EXIT_CONFIG)}


def test_cli_ohmic_bath_beyond_the_float_range_exits_2_where_its_output_needs_it(tmp_path, capsys):
    huge = write_config(tmp_path, _ohmic_config(1e300, 1.0, 0.3), "huge.json")
    for command in (["correlation", "--delta-r", "1"], ["rates"], ["regime", "--d", "1"]):
        assert main([command[0], "--config", huge, *command[1:]]) == EXIT_CONFIG
        assert "bath.ohmic" in capsys.readouterr().err
    # Omega^2(0) = 2 omega_c^2 = 2e160 fits, so the correlation prints; the moment I_4 ~ omega_c^4 does not
    large = write_config(tmp_path, _ohmic_config(1e80, 1.0, 0.3), "large.json")
    assert main(["correlation", "--config", large, "--delta-r", "0"]) == EXIT_OK
    row = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))[0]
    assert abs(float(row["omega2"]) - 2e160) <= 1e-12 * 2e160 and row["normalized"] == "1.0"
    assert main(["regime", "--config", large, "--d", "1"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: bath.ohmic: (k_bar, delta_k, x) = ")
    # omega_c T beyond the float range: Omega^2(0) overflows at any separation
    hot = write_config(tmp_path, _ohmic_config(1e10, 1.0, 1e300), "hot.json")
    for command in (["correlation", "--delta-r", "1"], ["rates"]):
        assert main([command[0], "--config", hot, *command[1:]]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: bath.ohmic: Omega^2(0.0) = inf")


def test_sweep_point_beyond_the_float_range_reports_its_error():
    columns = ["c2", "tau2", "omega2", "normalized", "regime"]
    cfg = _ohmic_config(1.0, 1.0, 0.3, sweep={"parameter": "bath.ohmic.omega_c", "values": [1.0, 1e300],
                                              "columns": columns})
    fits, beyond = cmd_sweep(parse_config(cfg))[0]
    assert fits["error"] == "" and all(math.isfinite(fits[c]) for c in columns if c != "regime")
    assert beyond["error"].startswith("bath.ohmic: ") and all(beyond[c] is None for c in columns)



def _two_qubit_config(**overrides):
    return base_config(**{"qubits": [{"position": 0.0}, {"position": 0.7}], "lambda1": 1.0, "lambda2": 0.5,
                          "h0_splittings": [], "state": "ghz", "fidelity_kind": ["io", "entanglement"], **overrides})


def _discrete_bath(temperature, *modes):
    return {"discrete": {"temperature": temperature, "modes": [dict(zip("k omega g".split(), m)) for m in modes]}}


@pytest.mark.parametrize("command", [["rates"], ["correlation", "--delta-r", "0,1"], ["regime", "--d", "1"],
                                     ["verify"]], ids=lambda command: command[0])
def test_cli_discrete_mode_whose_coth_underflows_names_the_modes(tmp_path, capsys, command):
    # omega / 2T = 5e-324 / 4 underflows to 0, so coth(omega / 2T) is infinite (it divided by zero)
    path = write_config(tmp_path, _two_qubit_config(bath=_discrete_bath(2.0, (0.0, 5e-324, 0.05))))
    assert main([command[0], "--config", path, *command[1:]]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: bath.discrete.modes: Omega^2(0) = ")


def test_temperature_sweep_fills_the_error_cell_of_a_point_whose_coth_underflows():
    cfg = _two_qubit_config(bath=_discrete_bath(0.0, (0.0, 5e-324, 0.05)),
                            sweep={"parameter": "temperature", "values": [0.0, 2.0], "columns": ["c2", "omega2"]})
    cold, hot = cmd_sweep(parse_config(cfg))[0]
    assert cold["error"] == "" and math.isfinite(cold["c2"]) and cold["omega2"] == 2 * 0.05 ** 2
    assert hot["error"].startswith("bath.discrete.modes: ") and hot["c2"] is None


@pytest.mark.parametrize("command", ["verify", "rates"])
def test_cli_discrete_mode_whose_coth_overflows_names_the_modes(tmp_path, capsys, command):
    # coth(1e-310 / 2e10) = 2e320: verify's tail level overflowed, and rates printed c2 = inf at exit 0
    cfg = base_config(state="plus_all", bath=_discrete_bath(1e10, (0.0, 1e-310, 0.05)))
    assert main([command, "--config", write_config(tmp_path, cfg)]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: bath.discrete.modes: Omega^2(0) = ") and "= inf is" in err


def test_cli_tail_level_beyond_the_float_range_exceeds_the_cap(tmp_path, capsys):
    # coth(1e-300 / 2e7) = 2e307 fits, but the tail-weight level 23 T / omega does not
    cfg = base_config(state="plus_all", bath=_discrete_bath(1e7, (0.0, 1e-300, 0.05)))
    assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 4
    assert "needs n_max=inf, total dimension inf exceeds the cap" in capsys.readouterr().err


@pytest.mark.parametrize("lambda1,bath", [
    (1e200, {"gaussian": {"k_bar": 1.0, "delta_k": 0.5, "x": 1.0}}),  # lambda1^2 alone overflows
    (1e150, {"gaussian": {"k_bar": 1.0, "delta_k": 0.5, "x": 1e10}}),  # lambda1^2 fits, lambda1^2 x does not
    (1e150, _discrete_bath(0.0, (0.0, 1.0, 1e5))),
])
def test_cli_rates_beyond_the_float_range_names_lambda1(tmp_path, capsys, lambda1, bath):
    path = write_config(tmp_path, _two_qubit_config(lambda1=lambda1, bath=bath))
    assert main(["rates", "--config", path]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and "lambda1" in err and "beyond the float range" in err


@pytest.mark.parametrize("larger", ["lambda1", "lambda2"])
def test_cli_rates_beyond_the_float_range_names_the_larger_constant_and_no_nan(tmp_path, capsys, larger):
    # with lambda2 the larger, rates named lambda1 and printed the overflowed rate, inf - inf, as c2 = nan
    path = write_config(tmp_path, _two_qubit_config(**{larger: 1e150, "bath": _discrete_bath(0.0, (0.0, 1.0, 1e5))}))
    assert main(["rates", "--config", path]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err == (f"config error: {larger}: c2 or its coupling scale "
                                 "(lambda1^2 + lambda2^2) Omega^2(0) = inf is beyond the float range\n")


@pytest.mark.parametrize("overrides,path", [
    ({"lambda1": 1e150, "bath": _discrete_bath(0.0, (0.0, 1.0, 1e5))}, "lambda1"),  # 2 <H_I^2> overflows
    ({"lambda1": 1e60, "bath": _discrete_bath(0.0, (0.0, 1.0, 0.05))}, "lambda1"),  # 2 <H_I^2> fits, c6 does not
    ({"bath": _discrete_bath(0.0, (0.0, 1e30, 0.05))}, "bath.discrete.modes"),
    ({"h0_splittings": [1e30, 1.0], "bath": _discrete_bath(0.0, (0.0, 1.0, 0.05))}, "h0_splittings"),
], ids=["lambda1-coupling-scale", "lambda1-taylor-terms", "omega", "h0_splittings"])
def test_cli_verify_with_taylor_terms_beyond_the_float_range_names_the_field(tmp_path, capsys, overrides, path):
    # numpy warned in taylor_coefficients and the run ended in "error: Array must not contain infs or NaNs"
    config = write_config(tmp_path, _two_qubit_config(**overrides))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--config", config]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"config error: {path}: the energy scale E = ")
    assert err.endswith(" beyond the float range\n")


# --- highT at zero temperature -------------------------------------------------

def test_highT_at_zero_temperature_is_rejected(tmp_path, capsys):
    cfg = base_config(
        qubits=[{"position": 0.0}, {"position": 1.0}],
        h0_splittings=[],
        bath={"ohmic": {"omega_c": 1.0, "v": 1.0, "form": "highT"}},  # temperature defaults to 0
        state="ghz",
        fidelity_kind="entanglement",
        delta_r=[0.0, 1.0],
        sweep={"parameter": "d", "values": [1.0], "columns": ["c2", "normalized"]},
    )
    path = write_config(tmp_path, cfg)
    message = "error: the highT form needs temperature > 0 (it holds for T >> omega_c)\n"
    for command in ("rates", "correlation"):
        assert main([command, "--config", path]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", message)
    rows, _ = cmd_sweep(parse_config(cfg))
    assert rows[0]["c2"] is None and rows[0]["normalized"] is None
    assert rows[0]["error"] == "the highT form needs temperature > 0 (it holds for T >> omega_c)"


def test_lowT_above_its_temperature_limit_is_rejected(tmp_path, capsys):
    # the limit is 0.05 omega_c = 0.1 here
    cfg = base_config(
        qubits=[{"position": 0.0}, {"position": 1.0}],
        h0_splittings=[],
        bath={"ohmic": {"omega_c": 2.0, "v": 1.5, "temperature": 0.1, "form": "lowT"}},
        state="ghz",
        fidelity_kind="entanglement",
        delta_r=[1.0],
        sweep={"parameter": "temperature", "values": [0.1, 0.11], "columns": ["c2"]},
    )
    message = "the lowT form needs temperature <= 0.05 omega_c (it holds for T << omega_c), got T = 0.11"
    rows, _ = cmd_sweep(parse_config(cfg))
    assert rows[0]["error"] == "" and rows[0]["c2"] > 0
    assert rows[1]["c2"] is None and rows[1]["error"] == message.replace(",", ";")
    cfg["bath"]["ohmic"]["temperature"] = 0.11
    path = write_config(tmp_path, cfg)
    for command in ("rates", "correlation"):
        assert main([command, "--config", path]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: {message}\n")


# --- correlation / regime ----------------------------------------------------

def test_correlation_ohmic_highT_grid():
    cfg = base_config(bath={"ohmic": {"omega_c": 1.0, "v": 1.0, "temperature": 100.0,
                                      "form": "highT"}})
    rows = cmd_correlation(parse_config(cfg), [0.0, 1.0, 3.0])
    assert [round(r["normalized"], 12) for r in rows] == [1.0, 0.5, 0.1]


def test_correlation_ohmic_lowT_zero_crossing():
    cfg = base_config(bath={"ohmic": {"omega_c": 1.0, "v": 1.0, "temperature": 0.0,
                                      "form": "lowT"}})
    rows = cmd_correlation(parse_config(cfg), [1.0])
    assert abs(rows[0]["omega2"]) < 1e-15


@pytest.mark.parametrize("ohmic, delta_r, exact", [
    # lowT at T = 0: u^2 = 1e200 fits, (1 + u^2)^2 does not; the value is about -2e-200
    pytest.param({"omega_c": 1.0, "v": 1.0, "temperature": 0.0, "form": "lowT"}, "1e100",
                 lambda u: 2 * (1 - u * u) / (1 + u * u) ** 2, id="lowT"),
    # highT at d = 0: omega_c^2 = 1e400 does not fit, 4 T omega_c = 4e300 does
    pytest.param({"omega_c": 1e200, "v": 1.0, "temperature": 1e100, "form": "highT"}, "0",
                 lambda u: 4 * Fraction(1e100) * Fraction(1e200) / (1 + u * u), id="highT"),
    # u = 1e160: u^2 overflows, and w = omega_c / (1 + u^2) underflowed; the values are about -2e-20 and 4e-70
    pytest.param({"omega_c": 1e150, "v": 1.0, "temperature": 0.0, "form": "lowT"}, "1e10",
                 lambda u: 2 * Fraction(1e150) ** 2 * (1 - u * u) / (1 + u * u) ** 2, id="lowT-u2-overflows"),
    pytest.param({"omega_c": 1e150, "v": 1.0, "temperature": 1e100, "form": "highT"}, "1e10",
                 lambda u: 4 * Fraction(1e100) * Fraction(1e150) / (1 + u * u), id="highT-u2-overflows"),
])
def test_cli_closed_forms_divide_before_they_square(tmp_path, capsys, ohmic, delta_r, exact):
    path = write_config(tmp_path, base_config(bath={"ohmic": ohmic}))
    assert main(["correlation", "--config", path, "--delta-r", delta_r]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    omega2 = float(list(csv.DictReader(io.StringIO(captured.out)))[0]["omega2"])
    expected = float(exact(Fraction(ohmic["omega_c"]) * Fraction(float(delta_r)) / Fraction(ohmic["v"])))
    assert math.isfinite(omega2) and abs(omega2 - expected) <= 1e-12 * abs(expected)


def test_correlation_discrete_cosine_profile():
    k, g = 1.1, 0.1
    cfg = base_config(bath={"discrete": {"temperature": 0.0, "modes": [
        {"k": k, "omega": 1.0, "g": g}, {"k": -k, "omega": 1.0, "g": g}]}})
    ds = [0.0, 0.3, 0.9]
    rows = cmd_correlation(parse_config(cfg), ds)
    for d, row in zip(ds, rows):
        assert abs(row["omega2"] - 4 * g * g * math.cos(k * d)) < 1e-15


def test_regime_rows():
    cfg = base_config(bath={"gaussian": {"k_bar": 1.0, "delta_k": 1.0, "x": 1.0}})
    rows = cmd_regime(parse_config(cfg), [50.0, 0.01, 1.0])
    assert [r["regime"] for r in rows] == ["independent", "collective", "intermediate"]


def test_regime_ohmic_temperature_sweep_constant():
    labels = set()
    for t in (0.01, 0.1, 1.0, 10.0, 100.0):
        cfg = base_config(bath={"ohmic": {"omega_c": 1.0, "v": 1.0, "temperature": t}})
        labels.add(cmd_regime(parse_config(cfg), [1.0])[0]["regime"])
    assert len(labels) == 1


# --- formatting --------------------------------------------------------------

def test_csv_contract():
    rows = [{"a": 0.5, "b": math.inf, "c": True, "d": "s"},
            {"a": 1e-7, "b": 2, "c": False, "d": None}]
    text = rows_to_csv(rows, ("a", "b", "c", "d"))
    assert text == "a,b,c,d\n0.5,inf,true,s\n1e-07,2,false,\n"
    assert text.endswith("\n") and "\r" not in text


def test_json_mirror():
    rows = [{"a": 0.5, "b": math.inf}]
    data = json.loads(rows_to_json(rows, ("a", "b")))
    assert data == [{"a": 0.5, "b": "inf"}]


# --- CLI end to end ----------------------------------------------------------

def test_cli_rates_roundtrip(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "rates.csv"
    assert main(["rates", "--config", path, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "scenario_id,kind,c2,tau2,method"
    assert lines[1].startswith("t,io,0.0025")


def test_cli_config_error_exit_code(tmp_path):
    path = write_config(tmp_path, base_config(state="nope"))
    assert main(["rates", "--config", path]) == EXIT_CONFIG
    missing = str(tmp_path / "missing.json")
    assert main(["rates", "--config", missing]) == EXIT_CONFIG


@pytest.mark.parametrize("name", ["repeated", "near-k", "near-omega", "near-g"])
def test_cli_rejects_a_mode_set_without_one_to_one_mirrors(tmp_path, capsys, name):
    from dataclasses import asdict

    from test_model import _unpaired_mode_sets

    modes = [asdict(m) for m in _unpaired_mode_sets()[name]]
    path = write_config(tmp_path, base_config(bath={"discrete": {"temperature": 0.5, "modes": modes}}))
    assert main(["rates", "--config", path]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: bath.discrete.modes: mode set is not +/-k symmetric: "
                                   "no mirror of its own for k=")
    exact = [{"k": 0.9, "omega": 1.0, "g": 0.04}, {"k": -0.9, "omega": 1.0, "g": 0.04}]
    path = write_config(tmp_path, base_config(bath={"discrete": {"temperature": 0.5, "modes": exact}}))
    assert main(["rates", "--config", path]) == EXIT_OK  # JSON's -0.9 is the exact negation of 0.9


@pytest.mark.parametrize("command", ["rates", "correlation", "regime", "sweep"])
def test_only_verify_takes_a_seed(tmp_path, command):
    # only the inequality suite draws random numbers; a config has no seed field
    path = write_config(tmp_path, base_config(bath={"ohmic": {"omega_c": 1.0, "v": 1.0, "temperature": 0.3}},
                                              delta_r=[0.5], d=[0.5], sweep={"parameter": "d", "values": [0.5]}))
    assert main([command, "--config", path]) == EXIT_OK
    with pytest.raises(SystemExit) as exit_:
        main([command, "--config", path, "--seed", "0"])
    assert exit_.value.code == EXIT_CONFIG


def test_cli_rates_at_a_large_coupling_scales_as_its_square(tmp_path, capsys):
    # the covariance's imaginary rounding grows as |lambda|^2 (about 1e-7 here) and is judged against it
    cfg = base_config(qubits=[{"position": p} for p in (0.0, 0.7, 1.4)], h0_splittings=[],
                      bath={"ohmic": {"omega_c": 1.0, "v": 1.0, "temperature": 0.3, "form": "quad"}},
                      state=[0.3, [0.1, 0.7], 0.2, 0.5, [0.4, -0.2], 0.1, 0.3, [0.2, 0.6]],
                      fidelity_kind="entanglement")
    c2 = {}
    for lam in (1.0, 1e5):
        cfg.update(lambda1=lam, lambda2=0.37 * lam)
        assert main(["rates", "--config", write_config(tmp_path, cfg)]) == EXIT_OK
        c2[lam] = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
    assert c2[1e5] == pytest.approx(1e10 * c2[1.0], rel=1e-9)


def test_cli_verify_at_a_large_coupling_passes(tmp_path, capsys):
    # g = 1e4 leaves a sector block 1.9e-12 off real in the mirror basis: rounding of its 1e4-sized entries
    modes = [{"k": 1.3, "omega": 1.1, "g": 1e4}, {"k": -1.3, "omega": 1.1, "g": 1e4}]
    cfg = base_config(qubits=[{"position": 0.0}, {"position": 0.7}], lambda1=1.0, lambda2=0.5,
                      h0_splittings=[1.0, 0.8], bath={"discrete": {"temperature": 0.0, "modes": modes}},
                      n_max=3, state="plus_all", fidelity_kind="entanglement")
    assert main(["verify", "--config", write_config(tmp_path, cfg)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].endswith(",true")


def test_cli_verify_requires_exactly_one_source(tmp_path):
    path = write_config(tmp_path, base_config())
    assert main(["verify"]) == EXIT_CONFIG
    assert main(["verify", "--suite", "quick", "--config", path]) == EXIT_CONFIG


def test_cli_verify_single_config(tmp_path):
    path = write_config(tmp_path, base_config(fidelity_kind=["io", "entanglement"]))
    out = tmp_path / "verify.csv"
    assert main(["verify", "--config", path, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "scenario,c2_analytic,c2_fitted,rel_err,pass"
    assert len(lines) == 3
    assert all(line.endswith(",true") for line in lines[1:])


def test_cli_verify_failure_exit_code(monkeypatch, tmp_path):
    import decolab.suites as suites

    def fake_tasks(name, seed):
        return [("boom", lambda: {"scenario": "boom", "c2_analytic": 1.0,
                                  "c2_fitted": 2.0, "rel_err": 1.0, "pass": False})]

    monkeypatch.setattr(suites, "suite_tasks", fake_tasks)
    monkeypatch.setattr("decolab.cli.suite_tasks", fake_tasks)
    assert main(["verify", "--suite", "quick", "--out", str(tmp_path / "v.csv")]) == EXIT_VERIFY


def test_cli_verify_keeps_the_rows_around_a_non_converging_one(monkeypatch, tmp_path, capsys):
    from decolab import oracle

    normal = tmp_path / "normal.csv"
    assert main(["verify", "--suite", "quick", "--out", str(normal)]) == EXIT_OK
    calls = []
    taylor = oracle.taylor_coefficients

    def uncertified_third_row(prop, curve):
        calls.append(curve)
        c = taylor(prop, curve)
        # the flat second row fits without coefficients: the second call is the third row's
        return [0, 0, c[2], 0, 0, 1e9, 1e9] if len(calls) == 2 else c

    monkeypatch.setattr(oracle, "taylor_coefficients", uncertified_third_row)
    capsys.readouterr()
    failed = tmp_path / "failed.csv"
    assert main(["verify", "--suite", "quick", "--out", str(failed)]) == 4
    expected, got = normal.read_text().splitlines(), failed.read_text().splitlines()
    assert len(got) == 9 and got[0] == expected[0]  # the header and 8 rows
    assert got[3] == "quick-ent-mixed-thermal,,,,false"
    assert got[:3] + got[4:] == expected[:3] + expected[4:]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("numerical non-convergence: quick-ent-mixed-thermal: c2 error bound B = ")
    calls.clear()
    assert main(["verify", "--suite", "quick", "--format", "json"]) == 4
    row = json.loads(capsys.readouterr().out)[2]
    assert row == {"scenario": "quick-ent-mixed-thermal", "c2_analytic": None, "c2_fitted": None,
                   "rel_err": None, "pass": False}


def test_cli_nmax_cap_env(monkeypatch, tmp_path):
    monkeypatch.setenv("DECOLAB_NMAX_CAP", "8")
    cfg = base_config(n_max=12)
    path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", path]) == 4  # 13 levels > cap 8


def test_cli_malformed_nmax_cap_is_config_error(monkeypatch, capsys):
    monkeypatch.setenv("DECOLAB_NMAX_CAP", "abc")
    assert main(["verify", "--suite", "quick"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: DECOLAB_NMAX_CAP: not an integer: 'abc'\n"


def test_row_over_the_dimension_cap_fails_only_itself(monkeypatch, capsys):
    # quick-factorized-hot's tail level needs dimension 188; the other rows fit below 100
    monkeypatch.setenv("DECOLAB_NMAX_CAP", "100")
    assert main(["verify", "--suite", "quick"]) == 4
    out, err = capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 8
    hot = [r for r in rows if r["scenario"] == "quick-factorized-hot"]
    assert hot == [{"scenario": "quick-factorized-hot", "c2_analytic": "", "c2_fitted": "", "rel_err": "",
                    "pass": "false"}]
    assert all(r["pass"] == "true" for r in rows if r["scenario"] != "quick-factorized-hot")
    assert err.splitlines() == ["numerical non-convergence: quick-factorized-hot: tail-weight policy (< 1e-10) "
                                "needs n_max=46, total dimension 188 exceeds the cap 100; set a smaller n_max "
                                "explicitly or raise DECOLAB_NMAX_CAP"]


def test_sweep_lorentzian_profile():
    cfg = base_config(
        qubits=[{"position": 0.0}, {"position": 1.0}],
        h0_splittings=[],
        bath={"ohmic": {"omega_c": 1.0, "v": 1.0, "temperature": 100.0, "form": "highT"}},
        sweep={"parameter": "d", "values": [0.5, 1.0, 3.0], "columns": ["normalized"]},
    )
    rows, columns = cmd_sweep(parse_config(cfg))
    assert columns == ("d", "normalized", "error")
    expected = [1 / (1 + u * u) for u in (0.5, 1.0, 3.0)]
    for row, want in zip(rows, expected):
        assert abs(row["normalized"] - want) < 1e-12
        assert row["error"] == ""


def test_sweep_temperature_regime_constant_rate_linear():
    cfg = base_config(
        qubits=[{"position": 0.0}, {"position": 1.0}],
        h0_splittings=[],
        bath={"ohmic": {"omega_c": 1.0, "v": 1.0, "temperature": 100.0, "form": "highT"}},
        state="ground",
        fidelity_kind="entanglement",
        sweep={"parameter": "temperature", "values": [100.0, 200.0, 400.0],
               "columns": ["c2", "regime"]},
    )
    rows, _ = cmd_sweep(parse_config(cfg))
    assert len({r["regime"] for r in rows}) == 1
    c2s = [r["c2"] for r in rows]
    assert abs(c2s[1] / c2s[0] - 2.0) < 1e-9
    assert abs(c2s[2] / c2s[0] - 4.0) < 1e-9


@pytest.mark.parametrize("bath", [
    {"discrete": {"modes": [{"k": 0.0, "omega": 1.0, "g": 0.05}]}},
    {"ohmic": {"omega_c": 1.0, "v": 1.0, "form": "highT"}},
])
def test_sweep_temperature_shorthand_without_temperature_key(bath):
    cfg = base_config(bath=bath, state="plus_all", fidelity_kind="entanglement",
                      sweep={"parameter": "temperature", "values": [0.5, 1.0], "columns": ["c2"]})
    rows, _ = cmd_sweep(parse_config(cfg))
    assert [r["error"] for r in rows] == ["", ""]
    kind = next(iter(bath))
    for row, t in zip(rows, (0.5, 1.0)):
        body = {**bath[kind], "temperature": t}
        assert row["c2"] == cmd_rates(parse_config(base_config(bath={kind: body}, state="plus_all",
                                                                fidelity_kind="entanglement")))[0]["c2"]


def test_sweep_temperature_shorthand_rejected_for_gaussian(tmp_path, capsys):
    cfg = base_config(bath={"gaussian": {"k_bar": 1.0, "delta_k": 1.0, "x": 1.0}},
                      sweep={"parameter": "temperature", "values": [0.5], "columns": ["c2"]})
    with pytest.raises(ConfigError) as err:
        cmd_sweep(parse_config(cfg))
    assert err.value.field == "sweep.parameter"
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().out == ""


def test_sweep_empty_values_header_only(tmp_path):
    cfg = base_config(sweep={"parameter": "bath.discrete.temperature", "values": [],
                             "columns": ["c2"]})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_OK
    assert out.read_text() == "bath.discrete.temperature,c2,error\n"


def _sweep_csv(tmp_path, capsys, n_qubits, sweep, state="ghz"):
    cfg = base_config(qubits=[{"position": 0.5 * i} for i in range(n_qubits)], h0_splittings=[],
                      bath={"ohmic": {"omega_c": 1.0, "v": 1.0, "temperature": 0.3}}, state=state,
                      fidelity_kind="entanglement", sweep=sweep)
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    return out


@pytest.mark.parametrize("sweep_range, rows", [
    ({"start": 0.5, "stop": 2.0, "count": 1}, "0.5,3.7671306905262716,\n"),
    ({"start": 0.5, "stop": 2.0, "count": 4},
     "0.5,3.7671306905262716,\n1.0,2.780686511389466,\n1.5,2.5060757610694497,\n2.0,2.459783726229477,\n"),
    ({"start": 0.01, "stop": 100.0, "count": 1, "scale": "log"}, "0.01,4.816058683556163,\n"),
    ({"start": 0.01, "stop": 100.0, "count": 5, "scale": "log"},
     "0.01,4.816058683556163,\n0.1,4.757259998301707,\n1.0,2.780686511389466,\n10.0,2.4195413857143224,\n"
     "100.0,2.4084511579308314,\n"),
], ids=["linear-1", "linear-4", "log-1", "log-5"])
def test_sweep_range_rows(tmp_path, capsys, sweep_range, rows):
    sweep = {"parameter": "d", "range": sweep_range, "columns": ["c2"]}
    assert _sweep_csv(tmp_path, capsys, 2, sweep) == "d,c2,error\n" + rows


def test_one_qubit_sweep_rows(tmp_path, capsys):
    # a dotted-path point has no spacing for the distance columns: the row fails before any command fills it
    sweep = {"parameter": "bath.ohmic.temperature", "values": [0.1, 0.2], "columns": ["c2", "omega2"]}
    error = "sweep.columns: distance columns need >= 2 qubits or parameter 'd'"
    assert _sweep_csv(tmp_path, capsys, 1, sweep, "ground") == \
        f"bath.ohmic.temperature,c2,omega2,error\n0.1,,,{error}\n0.2,,,{error}\n"
    sweep["columns"] = ["c2", "tau2"]
    assert _sweep_csv(tmp_path, capsys, 1, sweep, "ground") == ("bath.ohmic.temperature,c2,tau2,error\n"
                                                                "0.1,1.028665983015855,0.9859679792260276,\n"
                                                                "0.2,1.1013901764339022,0.9528606682502703,\n")


def test_sweep_row_with_every_column(tmp_path, capsys):
    from decolab.config import SWEEP_COLUMNS

    sweep = {"parameter": "d", "values": [0.3], "columns": list(SWEEP_COLUMNS)}
    assert _sweep_csv(tmp_path, capsys, 2, sweep) == (
        "d,c2,tau2,method,omega2,normalized,regime,kbar_d,dk_d,error\n"
        "0.3,4.345044586878006,0.47973663144204587,factorized,1.9367133502792242,0.8041723334595738,intermediate,"
        "0.5143936044380206,0.43214542578461324,\n")


def test_sweep_point_errors_recorded_not_fatal():
    cfg = base_config(
        sweep={"parameter": "bath.discrete.nope", "values": [1.0], "columns": ["c2"]})
    with pytest.raises(ConfigError):
        cmd_sweep(parse_config(cfg))  # unknown path: rejected up front
    cfg2 = base_config(
        qubits=[{"position": 0.0}, {"position": 1.0}],
        h0_splittings=[],
        state="ghz",
        fidelity_kind="io",
        sweep={"parameter": "bath.discrete.temperature", "values": [0.0, -1.0],
               "columns": ["c2"]},
    )
    rows, _ = cmd_sweep(parse_config(cfg2))
    assert rows[0]["error"] == ""
    assert rows[1]["error"] != "" and rows[1]["c2"] is None


def test_sweep_parallel_jobs_match_serial(tmp_path):
    # --jobs is accepted and ignored; quad also runs the memoized correlation in each point's rates
    for i, (bath, sweep) in enumerate((
        ({"omega_c": 1.0, "v": 1.0, "temperature": 50.0, "form": "highT"},
         {"parameter": "d", "values": [0.2, 0.4, 0.8, 1.6], "columns": ["normalized"]}),
        ({"omega_c": 1.0, "v": 1.0, "temperature": 0.3, "form": "quad"},
         {"parameter": "d", "values": [0.05, 0.1, 0.2], "columns": ["c2", "normalized"]}),
    )):
        cfg = base_config(
            qubits=[{"position": 0.0}, {"position": 1.0}],
            h0_splittings=[],
            bath={"ohmic": bath},
            state="ghz",
            fidelity_kind="entanglement",
            sweep=sweep,
        )
        path = write_config(tmp_path, cfg, name=f"sweep{i}.json")
        outs = []
        for extra in ([], ["--jobs", "4"]):
            out = tmp_path / f"sweep{i}-{len(extra)}.csv"
            assert main(["sweep", "--config", path, *extra, "--out", str(out)]) == EXIT_OK
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        rows = list(csv.DictReader(io.StringIO(outs[0])))
        assert len(rows) == len(sweep["values"]) and all(row["error"] == "" for row in rows)


def test_cli_json_format(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "rates.json"
    assert main(["rates", "--config", path, "--format", "json", "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data[0]["kind"] == "io"
    assert abs(data[0]["c2"] - 0.0025) < 1e-12


def test_cli_verify_jobs_deterministic(tmp_path):
    # quick runs the oracle, whose tasks share one model memo
    for suite in ("encoding", "quick"):
        outs = []
        for jobs in ("1", "4"):
            out = tmp_path / f"{suite}{jobs}.csv"
            assert main(["verify", "--suite", suite, "--jobs", jobs, "--out", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_inequality_suite_builds_at_every_seed():
    # draws reach T / omega ~ 1e-4, where the tail policy once underflowed
    from decolab.suites import inequality_tasks

    for seed in range(20):
        assert len(inequality_tasks(seed)) == 1001


def test_encoding_rows_do_not_depend_on_run_order():
    # the kd-scaling ratio rows share the scaling rows' rates, whichever runs first
    from decolab.suites import encoding_tasks

    forward = [run() for _, run in encoding_tasks()]
    backward = [run() for _, run in reversed(encoding_tasks())]
    assert forward == backward[::-1]


def test_only_verify_rejects_unconverged_auto_truncation(tmp_path, capsys):
    # 4 warm modes: the tail policy needs a space beyond the cap, and silently under-truncating the oracle's
    # model would be wrong; rates reports the untruncated bath, which n_max does not touch
    from decolab.fidelity import factorized_c2
    from decolab.model import correlation_fn_discrete

    cfg = base_config(bath={"discrete": {"temperature": 2.0, "modes": [
        {"k": k, "omega": 1.0, "g": 0.02} for k in (0.9, -0.9, 1.6, -1.6)]}})
    path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", path]) == 4
    capsys.readouterr()
    assert main(["rates", "--config", path]) == EXIT_OK
    out = capsys.readouterr().out
    parsed = parse_config(cfg)
    c2 = factorized_c2("io", parsed.state, parsed.lattice, lambda d: correlation_fn_discrete(parsed.bath, d))
    assert float(list(csv.DictReader(io.StringIO(out)))[0]["c2"]) == c2
    cfg["n_max"] = 2
    assert main(["rates", "--config", write_config(tmp_path, cfg, "cfg2.json")]) == EXIT_OK
    assert capsys.readouterr().out == out


def test_cli_regime_degenerate_spectrum_is_config_error(tmp_path):
    cfg = base_config(bath={"gaussian": {"k_bar": 0.0, "delta_k": 0.0, "x": 1.0}})
    path = write_config(tmp_path, cfg)
    assert main(["regime", "--config", path, "--d", "1.0"]) == EXIT_CONFIG
