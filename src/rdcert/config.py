"""Config-file parsing and validation for the command-line pipelines.

The format is deliberately plain: [section] headers, key = value pairs,
'#' comments, UTF-8.  Unknown sections or keys are rejected; missing required
keys are reported with their [section].key name.  Cross-field invariants
(positive diffusion, p > 1, matching component counts) are validated before
any computation starts.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import Field, Grid1D, mode_field, noise_field, zero_field
from .profiles import KineticsSpec, TimeProfile
from .solver import SystemSpec


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending [section].key."""


_PROFILE_KINDS = ("constant", "power_decay", "power_growth", "exponential")


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}")
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}")


def _checked(parse, ok, message: str):
    """``parse``, then a range check: ``ok(value)`` or ``message``, formatted
    with the text read."""
    def parse_checked(text: str):
        value = parse(text)
        if not ok(value):
            raise ConfigError(message.format(text=text))
        return value
    return parse_checked


_parse_positive_float = _checked(_parse_float, lambda v: v > 0.0,
                                 "expected a positive number, got {text!r}")


def _parse_choice(options):
    def parse(text: str):
        if text not in options:
            raise ConfigError(f"expected one of {options}, got {text!r}")
        return text
    return parse


def _parse_float_list(text: str):
    return tuple(_parse_float(part.strip()) for part in text.split(","))


def _parse_str(text: str) -> str:
    return text


# key -> (parser, default); default None marks "absent unless given"
_PROFILE_KEYS = {
    "kind": (_parse_choice(_PROFILE_KINDS), "constant"),
    "v0": (_parse_float, None),
    "exponent": (_parse_float, None),
    "rate": (_parse_float, None),
    "offset": (_parse_float, 0.0),
}

SCHEMA = {
    "domain": {
        "L": (_parse_positive_float, None),
        "N": (_parse_int, None),
        "bc": (_parse_choice(("dirichlet", "neumann")), None),
    },
    "kinetics": {
        "matrix": (_parse_str, None),
        "nonlinearity": (_parse_choice(("none", "saturated_power")), "none"),
        "p": (_parse_float, 2.0),
        "c0_kind": (_parse_choice(_PROFILE_KINDS), "constant"),
        "c0_v0": (_parse_float, 0.0),
        "c0_exponent": (_parse_float, None),
        "c0_rate": (_parse_float, None),
        "c0_offset": (_parse_float, 0.0),
    },
    "modulation": dict(_PROFILE_KEYS),
    "diffusion": {
        "kind": (_parse_choice(_PROFILE_KINDS), "constant"),
        "v0": (_parse_float_list, None),
        "exponent": (_parse_float, None),
        "rate": (_parse_float, None),
        "offset": (_parse_float, 0.0),
    },
    "run": {
        "T": (_parse_positive_float, None),
        "dt": (_parse_float, None),
        "record_every": (_checked(_parse_int, lambda v: v >= 1,
                                  "expected a positive integer, got {text!r}"), None),
        "seed": (_parse_int, 0),
        "ic": (_parse_str, "zero"),
        "scheme": (_parse_choice(("one_stage", "two_stage")), "two_stage"),
    },
    "certificate": {
        "family": (_parse_choice(("exponential", "power", "bounded")), None),
        "mu0": (_parse_float, None),
        "mu1": (_parse_float, None),
        "nu": (_parse_float, None),
        "m": (_parse_float, None),
        "mu_split": (_parse_float, 0.5),
        "alpha_factor": (_checked(_parse_float, lambda v: v >= 0.0,
                                  "expected a nonnegative number, got {text!r}"), None),
    },
    "theorem": {
        "envelope_slack": (_parse_float, 0.02),
        "grid_points": (_checked(_parse_int, lambda v: v >= 2,
                                 "need at least 2 grid points"), 10_000),
        "tol": (_parse_float, 1e-12),
    },
    "dispersion": {
        "k_max": (_parse_float, None),
        "samples": (_parse_int, 400),
    },
    "convergence": {
        "space_ns": (_parse_str, "32,64,128"),
        "space_dt": (_parse_float, 5e-4),
        "time_n": (_parse_int, 801),
        "time_dts": (_parse_str, "0.2,0.1,0.05"),
    },
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def get(self, section: str, key: str):
        return self.values[section][key]

    def require(self, section: str, key: str):
        value = self.values[section][key]
        if value is None:
            raise ConfigError(f"[{section}].{key} is required")
        return value


def parse_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#",),
                                       delimiters=("=",))
    parser.optionxform = str
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:  # repeated key or section, unparsable line
        raise ConfigError(" ".join(str(exc).split())) from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    values = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        values[section] = {}
        for key, raw in parser[section].items():
            values[section][key] = parse_value(section, key, raw)
    for section, keys in SCHEMA.items():
        values.setdefault(section, {})
        for key, (_parse, default) in keys.items():
            values[section].setdefault(key, default)
    return RunConfig(values=values)


def parse_value(section: str, key: str, raw: str):
    """``raw`` read by the schema entry of [section].key; errors name the key."""
    if key not in SCHEMA[section]:
        raise ConfigError(f"unknown key [{section}].{key}")
    parse, _default = SCHEMA[section][key]
    try:
        return parse(raw.strip())
    except ConfigError as exc:
        raise ConfigError(f"[{section}].{key}: {exc}") from None


def parse_matrix(text: str) -> np.ndarray:
    rows = [row.strip() for row in text.split(";") if row.strip()]
    try:
        mat = np.array([[float(entry) for entry in row.split(",")] for row in rows])
    except ValueError:
        raise ConfigError(f"[kinetics].matrix: cannot parse {text!r}")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] not in (1, 2):
        raise ConfigError("[kinetics].matrix must be 1x1 ('a') or 2x2 ('a,b;c,d')")
    if not np.all(np.isfinite(mat)):
        raise ConfigError("[kinetics].matrix entries must be finite")
    return mat


# the kinds that use each optional profile key
_KEY_KINDS = {"exponent": ("power_decay", "power_growth"), "rate": ("exponential",)}


def _profile_from_keys(section: str, prefix: str, values: dict, v0: float,
                       positive: bool = False) -> TimeProfile:
    """The profile of the keys ``prefix + name`` of [section], with value v0;
    an exponent or a rate given to a kind that does not use it is an error."""
    kind = values[prefix + "kind"]
    params = {}
    for name, kinds in _KEY_KINDS.items():
        given = values[prefix + name]
        if given is not None and kind not in kinds:
            raise ConfigError(f"[{section}].{prefix}{name} is not used by "
                              f"{prefix}kind = {kind}")
        params[name] = 0.0 if given is None else given
    try:
        return TimeProfile(kind=kind, v0=v0, offset=values[prefix + "offset"],
                           positive=positive, **params)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from None


def build_grid(cfg: RunConfig) -> Grid1D:
    try:
        return Grid1D(cfg.require("domain", "L"), cfg.require("domain", "N"),
                      cfg.require("domain", "bc"))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[domain]: {exc}") from None


def build_modulation(cfg: RunConfig) -> TimeProfile:
    sec = cfg.values["modulation"]
    v0 = 1.0 if sec["v0"] is None else sec["v0"]
    return _profile_from_keys("modulation", "", sec, v0, positive=True)


def build_kinetics(cfg: RunConfig) -> KineticsSpec:
    sec = cfg.values["kinetics"]
    matrix = parse_matrix(cfg.require("kinetics", "matrix"))
    c0 = _profile_from_keys("kinetics", "c0_", sec, sec["c0_v0"])
    # c0 = v0 b(t) + offset is a strength (alpha < 0 otherwise): b is positive
    # and monotone, b(0) = 1 and b tends to 0 (trend < 0), 1 or inf (trend > 0)
    trend = {"power_decay": -c0.exponent, "power_growth": c0.exponent,
             "exponential": c0.rate}.get(c0.kind, 0.0)
    if min(c0.v0 + c0.offset, c0.offset if trend < 0 else 0, c0.v0 if trend > 0 else 0) < 0:
        raise ConfigError("[kinetics]: the c0 profile must be nonnegative for every t >= 0")
    modulation = build_modulation(cfg)
    try:
        return KineticsSpec(n_components=matrix.shape[0], linear=matrix,
                            nonlinearity=sec["nonlinearity"], c0=c0, p=sec["p"],
                            modulation=modulation)
    except ValueError as exc:
        raise ConfigError(f"[kinetics]: {exc}") from None


def build_diffusion(cfg: RunConfig, n_components: int) -> tuple:
    sec = cfg.values["diffusion"]
    v0s = cfg.require("diffusion", "v0")
    if len(v0s) == 1 and n_components > 1:
        v0s = v0s * n_components
    if len(v0s) != n_components:
        raise ConfigError(f"[diffusion].v0 needs {n_components} entries")
    return tuple(_profile_from_keys("diffusion", "", sec, v0, positive=True) for v0 in v0s)


_IC_PATTERN = re.compile(r"^(zero|noise|mode|file)\s*(?:\((.*)\))?$")


def build_initial(cfg: RunConfig, grid: Grid1D, n_components: int,
                  seed: Optional[int] = None) -> Field:
    text = cfg.get("run", "ic").strip()
    match = _IC_PATTERN.match(text)
    if not match:
        raise ConfigError(f"[run].ic: cannot parse {text!r}")
    kind, args_text = match.group(1), match.group(2)
    args = [a.strip() for a in args_text.split(",")] if args_text else []
    if seed is None:
        seed = cfg.get("run", "seed")
    if kind == "zero":
        return zero_field(grid, n_components)
    if kind == "noise":
        if len(args) != 1:
            raise ConfigError("[run].ic: noise takes one argument, noise(eps)")
        return noise_field(grid, n_components, _parse_float(args[0]), seed=seed)
    if kind == "mode":
        if len(args) < 2:
            raise ConfigError("[run].ic: mode takes mode(n, amp[, amp2])")
        mode = _parse_int(args[0])
        amps = [_parse_float(a) for a in args[1:]]
        if len(amps) == 1 and n_components > 1:
            amps = amps * n_components
        if len(amps) != n_components:
            raise ConfigError(f"[run].ic: mode needs {n_components} amplitudes")
        return mode_field(grid, mode, amps)
    # file(path): snapshot CSV with columns x, u1, ..., un
    if len(args) != 1:
        raise ConfigError("[run].ic: file takes one argument, file(path)")
    try:
        data = np.genfromtxt(args[0], delimiter=",", names=True)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"[run].ic: cannot read {args[0]!r}: {exc.strerror or exc}") from exc
    if data.dtype.names is None or data.dtype.names[0] != "x":
        raise ConfigError("[run].ic: snapshot file needs columns x, u1, ...")
    xs = np.asarray(data["x"], dtype=float)
    if xs.shape != grid.x.shape or not np.allclose(xs, grid.x, atol=1e-9 * grid.L):
        raise ConfigError("[run].ic: snapshot grid does not match [domain]")
    cols = [np.asarray(data[name], dtype=float) for name in data.dtype.names[1:]]
    if len(cols) != n_components:
        raise ConfigError(f"[run].ic: snapshot file needs {n_components} components")
    return Field(grid, np.stack(cols))


def build_system(cfg: RunConfig, seed: Optional[int] = None) -> SystemSpec:
    grid = build_grid(cfg)
    kinetics = build_kinetics(cfg)
    diffusion = build_diffusion(cfg, kinetics.n_components)
    initial = build_initial(cfg, grid, kinetics.n_components, seed=seed)
    try:
        return SystemSpec(grid=grid, kinetics=kinetics, diffusion=diffusion,
                          initial=initial)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
