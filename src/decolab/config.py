"""JSON scenario configuration: parsing, validation and object building.

Validation errors always carry the dotted path of the offending field.  The
schema is documented in the README; the short version:

    {
      "name": "demo",
      "qubits": [{"position": 0.0}, {"position": 0.7}],
      "lambda1": 1.0, "lambda2": 0.0,
      "h0_splittings": [1.0, 1.0],
      "bath": {"discrete": {"temperature": 0.0,
                            "modes": [{"k": 0.0, "omega": 1.0, "g": 0.05}]}},
      "state": "ground",
      "fidelity_kind": "entanglement"
    }

``bath`` takes exactly one of ``discrete``, ``ohmic`` or ``gaussian``; the parsed
config holds it as one object, ``ScenarioConfig.bath``, whose kinds ``spectral`` knows.
"""

from __future__ import annotations

import copy
import functools
import json
import math
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .fidelity import FIDELITY_KINDS, Ensemble, kind_members
from .model import BathMode, BathModeSet, QubitLattice
from .operators import DenseOperator, Ket
from .spectral import OHMIC_FORMS, GaussianSpectrum, OhmicBath
from .states import PRESET_NAMES, build_preset, computational_ensemble, ket_from_amplitudes

BATH_KINDS = ("discrete", "ohmic", "gaussian")


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(path, message)


def _at(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with the domain ValueError it raises reported as a ConfigError at ``path``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite(v, path: str) -> float:
    """A JSON number as a finite float; NaN, infinities and integers beyond the float range are errors."""
    _expect(_is_number(v), path, f"expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    _expect(math.isfinite(x), path, "must be finite")
    return x


def _get_number(obj: dict, key: str, path: str, default=None, required: bool = False) -> float | None:
    path = f"{path}.{key}" if path else key  # a top-level field's path is its key
    if key not in obj:
        _expect(not required, path, "missing required field")
        return default
    return _finite(obj[key], path)


def _get_int(obj: dict, key: str, path: str, default=None) -> int | None:
    path = f"{path}.{key}" if path else key
    if key not in obj:
        return default
    v = obj[key]
    _expect(isinstance(v, int) and not isinstance(v, bool), path, f"expected an integer, got {v!r}")
    return v


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated scenario: lattice, bath, state and options."""

    name: str
    lattice: QubitLattice
    bath: BathModeSet | OhmicBath | GaussianSpectrum
    state: Ket | DenseOperator = field(compare=False)  # reads no qubit position, so a d sweep shares it
    fidelity_kinds: tuple[str, ...]
    ensemble_spec: tuple | None
    n_max: int | None
    delta_r: tuple[float, ...]
    d_values: tuple[float, ...]
    sweep: "SweepSpec | None"
    raw: dict = field(repr=False, default_factory=dict)

    def sweep_point(self, value: float) -> tuple["ScenarioConfig", float | None]:
        """This config at one value of its sweep, and the point's qubit spacing (None for one qubit).

        A ``d`` point puts qubit i at i * d and a ``temperature`` point moves the bath; both share the rest of
        this config (the bath's memos, the state and ``raw``).  Any other parameter is a dotted path into
        ``raw``, whose copy is parsed afresh.
        """
        parameter = self.sweep.parameter
        if parameter == "d":
            positions = tuple(_finite(i * value, f"qubits[{i}].position") for i in range(self.lattice.n_qubits))
            return replace(self, lattice=_at("qubits", replace, self.lattice, positions=positions)), value
        if parameter == "temperature":
            path = "bath.discrete.modes" if isinstance(self.bath, BathModeSet) else "bath.ohmic"  # as _parse_bath
            point = replace(self, bath=_at(path, replace, self.bath, temperature=value))
        else:
            point = parse_config(set_config_path(self.raw, parameter, value))
        positions = point.lattice.positions
        return point, (positions[1] - positions[0] if len(positions) >= 2 else None)

    def kind_input(self, kind: str):
        """What fidelity ``kind`` evaluates: the ensemble for ``average``, else the state; checked by
        ``kind_members``, whose refusal names ``fidelity_kind``."""
        state = self.ensemble if kind == "average" else self.state
        _at("fidelity_kind", kind_members, kind, state)
        return state

    @functools.cached_property
    def ensemble(self) -> Ensemble:
        """The configured ensemble, or one derived from the state; built on first use."""
        if self.ensemble_spec is None:
            if isinstance(self.state, Ket):
                return Ensemble(((1.0, self.state),))
            return computational_ensemble(self.lattice.n_qubits)  # maximally_mixed, the one mixed preset
        members = []
        for i, (p, spec) in enumerate(self.ensemble_spec):
            st = _build_state(spec, self.lattice, f"ensemble[{i}].state")
            _expect(isinstance(st, Ket), f"ensemble[{i}].state", "ensemble members must be pure states")
            members.append((p, st))
        return _at("ensemble", Ensemble, tuple(members))


# the sweep columns by the command that fills them, in fill order: (command, reads the qubit spacing, columns)
SWEEP_COMMANDS = (
    ("rates", False, ("c2", "tau2", "method")),
    ("correlation", True, ("omega2", "normalized")),
    ("regime", True, ("regime", "kbar_d", "dk_d")),
)
SWEEP_COLUMNS = tuple(c for _, _, columns in SWEEP_COMMANDS for c in columns)


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple[float, ...]
    columns: tuple[str, ...]

    @property
    def commands(self) -> tuple:
        """The rows of ``SWEEP_COMMANDS`` that fill at least one of the columns."""
        return tuple(entry for entry in SWEEP_COMMANDS if set(entry[2]) & set(self.columns))


def _build_state(spec, lattice: QubitLattice, path: str):
    if isinstance(spec, str):
        return _at(path, build_preset, spec, lattice)
    # explicit amplitudes: numbers or [re, im] pairs
    values = []
    for i, entry in enumerate(spec):
        if _is_number(entry):
            values.append(complex(_finite(entry, f"{path}[{i}]")))
        elif isinstance(entry, (list, tuple)) and len(entry) == 2:
            values.append(complex(_finite(entry[0], f"{path}[{i}][0]"), _finite(entry[1], f"{path}[{i}][1]")))
        else:
            raise ConfigError(f"{path}[{i}]", f"expected a number or [re, im] pair, got {entry!r}")
    return _at(path, ket_from_amplitudes, values, lattice.n_qubits)


def _parse_lattice(cfg: dict) -> QubitLattice:
    qubits = cfg.get("qubits")
    _expect(isinstance(qubits, list) and qubits, "qubits", "expected a non-empty list")
    positions = []
    for i, q in enumerate(qubits):
        _expect(isinstance(q, dict), f"qubits[{i}]", "expected an object with a 'position'")
        positions.append(_get_number(q, "position", f"qubits[{i}]", required=True))
    lambda1 = _get_number(cfg, "lambda1", "", default=1.0)
    lambda2 = _get_number(cfg, "lambda2", "", default=0.0)
    splits = cfg.get("h0_splittings", [])
    _expect(isinstance(splits, list), "h0_splittings", "expected a list of numbers")
    splittings = tuple(_finite(w, f"h0_splittings[{i}]") for i, w in enumerate(splits))
    _at(QubitLattice.scale_field(lambda1, lambda2), QubitLattice.coupling_scale, lambda1, lambda2)
    return _at("qubits", QubitLattice, tuple(positions), lambda1, lambda2, splittings)


def _parse_bath(cfg: dict):
    bath = cfg.get("bath")
    _expect(isinstance(bath, dict), "bath", "expected an object")
    variants = [k for k in BATH_KINDS if k in bath]
    _expect(len(variants) == 1, "bath", f"exactly one of discrete/ohmic/gaussian required, got {sorted(bath)}")
    kind = variants[0]
    body = bath[kind]
    _expect(isinstance(body, dict), f"bath.{kind}", "expected an object")

    if kind == "discrete":
        temperature = _get_number(body, "temperature", "bath.discrete", default=0.0)
        modes_raw = body.get("modes")
        _expect(isinstance(modes_raw, list) and modes_raw, "bath.discrete.modes", "expected a non-empty list")
        modes = []
        for i, m in enumerate(modes_raw):
            _expect(isinstance(m, dict), f"bath.discrete.modes[{i}]", "expected an object")
            k = _get_number(m, "k", f"bath.discrete.modes[{i}]", required=True)
            omega = _get_number(m, "omega", f"bath.discrete.modes[{i}]", required=True)
            g = _get_number(m, "g", f"bath.discrete.modes[{i}]", required=True)
            modes.append(BathMode(k, omega, g))
        return _at("bath.discrete.modes", BathModeSet, tuple(modes), temperature)

    if kind == "ohmic":
        form = body.get("form", "quad")
        _expect(form in OHMIC_FORMS, "bath.ohmic.form", f"expected one of {OHMIC_FORMS}, got {form!r}")
        omega_c = _get_number(body, "omega_c", "bath.ohmic", required=True)
        v = _get_number(body, "v", "bath.ohmic", required=True)
        temperature = _get_number(body, "temperature", "bath.ohmic", default=0.0)
        amplitude = _get_number(body, "amplitude", "bath.ohmic", default=1.0)
        return _at("bath.ohmic", OhmicBath, omega_c, v, temperature, amplitude, form)

    k_bar = _get_number(body, "k_bar", "bath.gaussian", required=True)
    delta_k = _get_number(body, "delta_k", "bath.gaussian", required=True)
    x = _get_number(body, "x", "bath.gaussian", required=True)
    return _at("bath.gaussian", GaussianSpectrum, k_bar, delta_k, x)


def _parse_number_list(cfg: dict, key: str, path: str | None = None) -> tuple[float, ...]:
    path = path or key
    raw = cfg.get(key, [])
    _expect(isinstance(raw, list), path, "expected a list of numbers")
    return tuple(_finite(v, f"{path}[{i}]") for i, v in enumerate(raw))


def _parse_sweep(cfg: dict) -> SweepSpec | None:
    raw = cfg.get("sweep")
    if raw is None:
        return None
    _expect(isinstance(raw, dict), "sweep", "expected an object")
    parameter = raw.get("parameter")
    _expect(isinstance(parameter, str) and parameter, "sweep.parameter", "expected a parameter path")

    has_values = "values" in raw
    has_range = "range" in raw
    _expect(has_values != has_range, "sweep", "exactly one of 'values' or 'range' required")
    if has_values:
        values = _parse_number_list(raw, "values", "sweep.values")
    else:
        rng = raw["range"]
        _expect(isinstance(rng, dict), "sweep.range", "expected an object")
        start = _get_number(rng, "start", "sweep.range", required=True)
        stop = _get_number(rng, "stop", "sweep.range", required=True)
        count = _get_int(rng, "count", "sweep.range")
        _expect(isinstance(count, int) and count >= 1, "sweep.range.count", "expected a positive integer")
        scale = rng.get("scale", "linear")
        _expect(scale in ("linear", "log"), "sweep.range.scale", f"expected linear or log, got {scale!r}")
        if scale == "log":
            _expect(start > 0 and stop > 0, "sweep.range", "log scale requires positive bounds")
            if count == 1:
                values = (start,)
            else:
                ratio = (stop / start) ** (1.0 / (count - 1))
                values = tuple(start * ratio ** i for i in range(count))
        else:
            if count == 1:
                values = (start,)
            else:
                step = (stop - start) / (count - 1)
                values = tuple(start + step * i for i in range(count))
    cols = raw.get("columns", ["c2", "tau2"])
    _expect(isinstance(cols, list) and cols, "sweep.columns", "expected a non-empty list")
    for i, c in enumerate(cols):
        _expect(c in SWEEP_COLUMNS, f"sweep.columns[{i}]", f"expected one of {SWEEP_COLUMNS}, got {c!r}")
    return SweepSpec(parameter, values, tuple(cols))


def parse_config(cfg: dict) -> ScenarioConfig:
    """Validate a raw JSON document into a :class:`ScenarioConfig`."""
    _expect(isinstance(cfg, dict), "", "top-level config must be an object")
    name = cfg.get("name", "scenario")
    _expect(isinstance(name, str) and name, "name", "expected a non-empty string")
    _expect("," not in name and "\n" not in name, "name", "must not contain commas or newlines")

    lattice = _parse_lattice(cfg)
    bath = _parse_bath(cfg)

    state_spec = cfg.get("state", "ground")
    if not isinstance(state_spec, str):
        _expect(isinstance(state_spec, list) and state_spec, "state",
                f"expected a preset name {PRESET_NAMES} or an amplitude list")
    elif state_spec not in PRESET_NAMES:
        raise ConfigError("state", f"unknown preset {state_spec!r}; expected one of {PRESET_NAMES}")
    if state_spec == "encoded":
        _expect(lattice.n_qubits % 2 == 0, "state", "the encoded preset needs an even qubit count")

    kinds_raw = cfg.get("fidelity_kind", "entanglement")
    if isinstance(kinds_raw, str):
        kinds_raw = [kinds_raw]
    _expect(isinstance(kinds_raw, list) and kinds_raw, "fidelity_kind", "expected a kind or list of kinds")
    for k in kinds_raw:
        _expect(k in FIDELITY_KINDS, "fidelity_kind", f"expected one of {FIDELITY_KINDS}, got {k!r}")

    ensemble_spec = None
    if "ensemble" in cfg:
        raw_ens = cfg["ensemble"]
        _expect(isinstance(raw_ens, list) and raw_ens, "ensemble", "expected a non-empty list")
        pairs = []
        for i, entry in enumerate(raw_ens):
            _expect(isinstance(entry, dict), f"ensemble[{i}]", "expected an object with 'p' and 'state'")
            p = _get_number(entry, "p", f"ensemble[{i}]", required=True)
            _expect("state" in entry, f"ensemble[{i}].state", "missing required field")
            pairs.append((p, entry["state"]))
        ensemble_spec = tuple(pairs)

    n_max = _get_int(cfg, "n_max", "")
    if n_max is not None:
        _expect(n_max >= 1, "n_max", f"must be >= 1, got {n_max}")

    return ScenarioConfig(
        name=name,
        lattice=lattice,
        bath=bath,
        fidelity_kinds=tuple(kinds_raw),
        ensemble_spec=ensemble_spec,
        n_max=n_max,
        delta_r=_parse_number_list(cfg, "delta_r"),
        d_values=_parse_number_list(cfg, "d"),
        sweep=_parse_sweep(cfg),
        state=_build_state(state_spec, lattice, "state"),  # after the other fields, whose errors come first
        raw=copy.deepcopy(cfg),
    )


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc
    return parse_config(raw)


def set_config_path(raw: dict, dotted: str, value: float) -> dict:
    """Return a copy of ``raw`` with the dotted path set to ``value``."""
    out = copy.deepcopy(raw)
    parts = dotted.split(".")
    node = out
    for p in parts[:-1]:
        if not isinstance(node, dict) or p not in node:
            raise ConfigError(f"sweep.parameter", f"path {dotted!r} not found in the config")
        node = node[p]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigError("sweep.parameter", f"path {dotted!r} not found in the config")
    node[parts[-1]] = value
    return out
