"""Batch command-line front end: rates, correlation, regime, verify, sweep.

Output is CSV (or a JSON mirror of the same rows) with a fixed column order,
shortest round-trip float formatting, "inf" for infinite damping times, LF
line endings and a header row even when there are no data rows.  Reruns with
the same config and seed are byte-identical.

``rates`` and ``sweep`` report every bath's factorized ``c2``, with no dense model.  Beyond "does it have
explicit modes", which ``verify --config`` needs, the bath's kind is left to ``spectral``: its correlation comes
from ``correlation``, its spectrum from ``spectrum``.

Exit codes: 0 success, 2 config error, 3 verification failure,
4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from .config import (
    ScenarioConfig,
    SweepSpec,
    load_config,
    parse_config,
    set_config_path,
)
from .errors import ConfigError, ConvergenceError
from .fidelity import damping_time, factorized_c2, kind_state
from .model import BathModeSet
from .oracle import Scenario
from .oracle import dimension_cap  # noqa: F401  (perfbench calls cli.dimension_cap)
from .spectral import classify_regime, correlation, spectrum
from .suites import SUITE_NAMES, _verify_tasks, suite_tasks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_NUMERIC = 4

RATES_COLUMNS = ("scenario_id", "kind", "c2", "tau2", "method")
CORRELATION_COLUMNS = ("delta_r", "omega2", "normalized")
REGIME_COLUMNS = ("d", "kbar_d", "dk_d", "regime")
VERIFY_COLUMNS = ("scenario", "c2_analytic", "c2_fitted", "rel_err", "pass")


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        v = float(v)  # numpy scalars repr differently
        if math.isinf(v):
            return "inf"
        if math.isnan(v):
            return "nan"
        return repr(v)
    if isinstance(v, int):
        return str(v)
    if v is None:
        return ""
    s = str(v)
    if "," in s or "\n" in s:
        raise ValueError(f"cell value {s!r} would break the CSV contract")
    return s


def rows_to_csv(rows: list[dict], columns) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[dict], columns) -> str:
    def jsonable(v):
        if isinstance(v, float):
            if not math.isfinite(v):
                return "inf" if v > 0 else ("-inf" if v < 0 else "nan")
            return float(v)
        return v

    payload = [{c: jsonable(row.get(c)) for c in columns} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def _kind_state(cfg: ScenarioConfig, kind: str):
    """The config's state for one fidelity kind, as ``kind_state`` takes it."""
    state = cfg.ensemble if kind == "average" else cfg.state
    try:
        return kind_state(kind, state)
    except ValueError as exc:
        raise ConfigError("fidelity_kind", str(exc)) from exc


def cmd_rates(cfg: ScenarioConfig) -> list[dict]:
    """One row per fidelity kind: the factorized ``c2`` under the bath's untruncated correlation ``Omega^2``."""
    omega2 = lambda d: correlation(cfg.bath, d)
    c2s = [factorized_c2(kind, _kind_state(cfg, kind), cfg.lattice, omega2) for kind in cfg.fidelity_kinds]
    # the coupling scale is taken after the rates, so that their errors come first
    scale = abs(omega2(0.0)) * (cfg.lattice.lambda1 ** 2 + cfg.lattice.lambda2 ** 2)
    return [{"scenario_id": cfg.name, "kind": kind, "c2": c2, "tau2": damping_time(c2, scale), "method": "factorized"}
            for kind, c2 in zip(cfg.fidelity_kinds, c2s)]


def cmd_correlation(cfg: ScenarioConfig, delta_r: list[float]) -> list[dict]:
    """One row per separation."""
    omega0 = correlation(cfg.bath, 0.0)
    rows = []
    for d in delta_r:
        val = correlation(cfg.bath, float(d))
        rows.append({"delta_r": float(d), "omega2": val,
                     "normalized": val / omega0 if omega0 != 0.0 else math.nan})
    return rows


def cmd_regime(cfg: ScenarioConfig, d_values: list[float]) -> list[dict]:
    spec = spectrum(cfg.bath)
    rows = []
    for d in d_values:
        rep = classify_regime(float(d), spec)
        rows.append({"d": float(d), "kbar_d": rep.kbar_d, "dk_d": rep.dk_d, "regime": rep.regime})
    return rows


def cmd_verify(cfg: ScenarioConfig | None, suite: str | None, seed: int) -> tuple[list[dict], list[str]]:
    """Every task's row, and one message per row that did not converge; such a row has empty cells and fails."""
    if suite is not None:
        tasks = suite_tasks(suite, seed)
    else:
        if not isinstance(cfg.bath, BathModeSet):
            raise ConfigError("bath", "verify needs a discrete bath (the oracle evolves explicit modes)")
        tasks = _verify_tasks([Scenario(f"{cfg.name}-{kind}", kind, cfg.lattice, cfg.bath, _kind_state(cfg, kind),
                                        cfg.n_max) for kind in cfg.fidelity_kinds])
    rows, failures = [], []
    for name, run in tasks:
        try:
            rows.append(run())
        except ConvergenceError as exc:
            rows.append({"scenario": name, "pass": False})
            failures.append(f"{name}: {exc}")
    return rows, failures


def _sweep_point_config(cfg: ScenarioConfig, spec: SweepSpec, value: float) -> tuple[ScenarioConfig, float | None]:
    """Apply one sweep value; returns the point config and the active spacing."""
    if spec.parameter == "d":
        return cfg.with_spacing(value), value
    if spec.parameter == "temperature":
        point = cfg.with_temperature(value)
    else:
        point = parse_config(set_config_path(cfg.raw, spec.parameter, value))
    spacing = None
    if point.lattice.n_qubits >= 2:
        spacing = point.lattice.positions[1] - point.lattice.positions[0]
    return point, spacing


def _sweep_row(cfg: ScenarioConfig, spec: SweepSpec, value: float) -> dict:
    row = {spec.parameter: value, "error": ""}
    for c in spec.columns:
        row[c] = None
    try:
        point, spacing = _sweep_point_config(cfg, spec, value)
        wants_distance = any(c in spec.columns for c in ("omega2", "normalized", "regime", "kbar_d", "dk_d"))
        if wants_distance and spacing is None:
            raise ConfigError("sweep.columns", "distance columns need >= 2 qubits or parameter 'd'")
        if "c2" in spec.columns or "tau2" in spec.columns or "method" in spec.columns:
            rates = cmd_rates(replace(point, fidelity_kinds=point.fidelity_kinds[:1]))[0]  # the kind it reports
            row["c2"], row["tau2"], row["method"] = rates["c2"], rates["tau2"], rates["method"]
        if "omega2" in spec.columns or "normalized" in spec.columns:
            corr = cmd_correlation(point, [spacing])[0]
            row["omega2"], row["normalized"] = corr["omega2"], corr["normalized"]
        if any(c in spec.columns for c in ("regime", "kbar_d", "dk_d")):
            reg = cmd_regime(point, [spacing])[0]
            row["regime"], row["kbar_d"], row["dk_d"] = reg["regime"], reg["kbar_d"], reg["dk_d"]
    except (ConfigError, ConvergenceError, ValueError) as exc:
        row["error"] = str(exc).replace(",", ";").replace("\n", " ")
    return {k: row[k] for k in (spec.parameter, *spec.columns, "error")}


def cmd_sweep(cfg: ScenarioConfig) -> tuple[list[dict], tuple[str, ...]]:
    if cfg.sweep is None:
        raise ConfigError("sweep", "missing sweep specification")
    spec = cfg.sweep
    if spec.parameter == "temperature" and not hasattr(cfg.bath, "temperature"):
        raise ConfigError("sweep.parameter", "a gaussian bath has no temperature to sweep")
    if spec.parameter not in ("d", "temperature"):
        set_config_path(cfg.raw, spec.parameter, 0.0)  # validate the path exists up front
    columns = (spec.parameter, *spec.columns, "error")
    return [_sweep_row(cfg, spec, v) for v in spec.values], columns


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="decolab",
                                     description="Short-time decoherence rates of spatially correlated qubits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="JSON scenario config")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; tasks run serially")

    common(sub.add_parser("rates", help="factorized damping coefficients, one route for every bath"))
    p_corr = sub.add_parser("correlation", help="spatial correlation profile")
    common(p_corr)
    p_corr.add_argument("--delta-r", help="comma-separated separations (overrides config delta_r)")
    p_reg = sub.add_parser("regime", help="independent/collective classification")
    common(p_reg)
    p_reg.add_argument("--d", help="comma-separated qubit spacings (overrides config d)")
    p_ver = sub.add_parser("verify", help="closed forms vs the exact-evolution oracle")
    common(p_ver, config_required=False)
    p_ver.add_argument("--suite", choices=SUITE_NAMES, help="built-in suite to run")
    common(sub.add_parser("sweep", help="parameter sweep with selected output columns"))
    return parser


def _parse_float_list(raw: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(flag, f"expected comma-separated numbers, got {raw!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(flag, f"expected finite numbers, got {raw!r}")
    return values


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = None
        if args.config:
            cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else (cfg.seed if cfg else 0)

        verify_failed, failures = False, []
        if args.command == "rates":
            rows, columns = cmd_rates(cfg), RATES_COLUMNS
        elif args.command == "correlation":
            deltas = _parse_float_list(args.delta_r, "--delta-r") if args.delta_r else list(cfg.delta_r)
            if not deltas:
                raise ConfigError("delta_r", "no separations given (config delta_r or --delta-r)")
            rows, columns = cmd_correlation(cfg, deltas), CORRELATION_COLUMNS
        elif args.command == "regime":
            ds = _parse_float_list(args.d, "--d") if args.d else list(cfg.d_values)
            if not ds:
                raise ConfigError("d", "no spacings given (config d or --d)")
            rows, columns = cmd_regime(cfg, ds), REGIME_COLUMNS
        elif args.command == "verify":
            if (args.suite is None) == (cfg is None):
                raise ConfigError("verify", "exactly one of --suite or --config is required")
            (rows, failures), columns = cmd_verify(cfg, args.suite, seed), VERIFY_COLUMNS
            verify_failed = any(not r["pass"] for r in rows)
        else:
            rows, columns = cmd_sweep(cfg)

        text = rows_to_csv(rows, columns) if args.format == "csv" else rows_to_json(rows, columns)
        _emit(text, args.out)
        for message in failures:
            print(f"numerical non-convergence: {message}", file=sys.stderr)
        if failures:
            return EXIT_NUMERIC
        return EXIT_VERIFY if verify_failed else EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        # domain validation raised outside the config layer (e.g. a degenerate
        # spectrum handed to the classifier): still the caller's input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
