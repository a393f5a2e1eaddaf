"""JSON run-configuration schema and loader.

A configuration file is a single JSON object with the sections below; every
section and key is optional unless marked required, and an unknown key is
rejected as `section.key`, so typos cannot silently fall back to defaults.

  domain:   {"dim": 1}
  grid:     {"resolution": 256}
  physics:  {"d1": 1.0, "d2": 1.0}
  catalyst: {"kind": "bump", "k0": 1.0, "k_max": null, "x0": 0.25,
             "r": 0.1, "smoothness": null, "annulus_inner": null,
             "annulus_outer": null, "period": 1.0}      (kind required)
  initial:  {"kind": "cosine", "amplitude": 0.3, "value_a": 1.0,
             "value_b": 1.0, "center": 0.2, "width": 0.1, "floor": 0.5}
  stepper:  {"dt": null, "t_end": 10.0, "record_stride": 0.05,
             "field_stride": 0.25}
  output:   {"label": "run"}
  weights:  {"x0_abs": 0.25, "r": 0.1, "s": 0.5, "h": 0.1, "T": 10.0}

The `weights` section parameterizes the verification machinery; when it is
absent the observation geometry defaults to the catalyst's ball with
(s, h) = (0.5, 0.1) and T = min(t_end, 10).  T may not exceed t_end.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from .grid import grid_spacing
from .solver import CatalystSpec, ConfigError, InitialSpec, SimConfig
from .weights import WeightParams

FORMAT_VERSION = "1.0"

_SECTIONS = {
    "domain": {"dim"},
    "grid": {"resolution"},
    "physics": {"d1", "d2"},
    "catalyst": {"kind", "k0", "k_max", "x0", "r", "smoothness",
                 "annulus_inner", "annulus_outer", "period"},
    "initial": {"kind", "amplitude", "value_a", "value_b", "center",
                "width", "floor"},
    "stepper": {"dt", "t_end", "record_stride", "field_stride"},
    "output": {"label"},
    "weights": {"x0_abs", "r", "s", "h", "T"},
}
_NULLABLE = {"k_max", "smoothness", "annulus_inner", "annulus_outer"}


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration: simulation plus verification parameters."""

    sim: SimConfig
    weights: WeightParams
    label: str
    raw: dict


def _check_keys(section: str, data: dict) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be an object")
    unknown = set(data) - _SECTIONS[section]
    if unknown:
        raise ConfigError("unknown key(s): " + ", ".join(
            f"{section}.{key}" for key in sorted(unknown)))


def _check_numbers(section: str, data: dict) -> None:
    """Reject a value other than a finite JSON number, by name; `kind` is
    a string, and the keys in _NULLABLE may be null."""
    for key, value in data.items():
        if key == "kind" or (value is None and key in _NULLABLE):
            continue
        # a JSON integer beyond double range is not finite either
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not abs(value) <= sys.float_info.max:
            raise ConfigError(
                f"{section}.{key} must be a finite number; got {value!r}")


def parse_config(raw: dict) -> RunConfig:
    """Build a RunConfig from a decoded JSON object."""
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    version = raw.get("format_version", FORMAT_VERSION)
    if str(version) != FORMAT_VERSION:
        raise ConfigError(
            f"unsupported format_version {version!r}; "
            f"this build reads {FORMAT_VERSION!r}")
    unknown = set(raw) - set(_SECTIONS) - {"format_version"}
    if unknown:
        raise ConfigError(
            f"unknown top-level section(s): {', '.join(sorted(unknown))}")
    for name in raw:
        if name != "format_version":
            _check_keys(name, raw[name])
            if name in ("physics", "catalyst", "initial", "weights"):
                _check_numbers(name, raw[name])

    cat_raw = dict(raw.get("catalyst", {}))
    if "kind" not in cat_raw:
        raise ConfigError("catalyst section requires a 'kind' key")
    if "k0" not in cat_raw:
        raise ConfigError("catalyst section requires a 'k0' key")
    dim = raw.get("domain", {}).get("dim", 1)
    if dim not in (1, 2) or isinstance(dim, bool):
        raise ConfigError(f"domain.dim must be 1 or 2; got {dim!r}")
    resolution = raw.get("grid", {}).get("resolution", 256)
    if isinstance(resolution, bool) or not isinstance(resolution, int) \
            or resolution < 8:
        raise ConfigError(
            f"grid.resolution must be an integer >= 8; got {resolution!r}")
    try:
        catalyst = CatalystSpec(**cat_raw)
        catalyst.check_annulus(grid_spacing(dim, resolution))
        initial = InitialSpec(**raw.get("initial", {}))
        stepper = dict(raw.get("stepper", {}))
        sim = SimConfig(
            dim=int(dim),
            resolution=resolution,
            d1=float(raw.get("physics", {}).get("d1", 1.0)),
            d2=float(raw.get("physics", {}).get("d2", 1.0)),
            catalyst=catalyst,
            initial=initial,
            **stepper,
        )
        w_raw = dict(raw.get("weights", {}))
        weights = WeightParams(
            x0_abs=float(w_raw.get("x0_abs", catalyst.x0)),
            r=float(w_raw.get("r", catalyst.r)),
            s=float(w_raw.get("s", 0.5)),
            h=float(w_raw.get("h", 0.1)),
            T=float(w_raw.get("T", min(sim.t_end, 10.0))),
            dim=sim.dim,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if weights.T > sim.t_end:
        raise ConfigError(
            f"weights.T = {weights.T:g} exceeds stepper.t_end = "
            f"{sim.t_end:g}; the weight window must end within the run")
    label = str(raw.get("output", {}).get("label", "run"))
    return RunConfig(sim=sim, weights=weights, label=label, raw=raw)


def load_config(path) -> RunConfig:
    """Read and parse a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON "
            f"(line {exc.lineno}, column {exc.colno}): {exc.msg}") from exc
    return parse_config(raw)
