"""Run configuration: strict key = value sections, reproducibility first.

Unknown keys are rejected; missing required keys are reported all at once.
"""

import configparser
from dataclasses import dataclass
from pathlib import Path

from .norms import GevreyParams


class ConfigError(ValueError):
    """Invalid, unknown or missing configuration content."""


_SCHEMA = {
    "grid": {"n": True},
    "initial": {"kind": True, "amplitude": False, "beta": False,
                "seed": False, "kmax": False},
    "time": {"t_end": True, "dt": False, "cfl": False, "cadence": False},
    "gevrey": {"r": True, "s": False, "tau0": True},
    "radius": {"c": False},
    "output": {"directory": False, "series": False, "spectra": False,
               "checkpoint": False},
}
_KINDS = ("taylor-green", "orszag-tang", "random-band")


@dataclass
class RunConfig:
    """Validated contents of a run configuration file."""

    n: int
    kind: str
    t_end: float
    params: GevreyParams
    dt: float | None = None
    cfl: float | None = None
    cadence: int = 1
    amplitude: float = 1.0
    beta: float = 0.8
    seed: int = 0
    kmax: int = 2
    c: float | str = 1.0
    directory: str = "."
    series: str = "series.csv"
    spectra: str = ""
    checkpoint: str = ""

    def __post_init__(self):
        errors = []
        if self.n < 8 or self.n > 512 or (self.n & (self.n - 1)) != 0:
            errors.append(
                f"grid.n must be a power of two in [8, 512], got {self.n}"
            )
        if self.kind not in _KINDS:
            errors.append(
                f"initial.kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if self.t_end <= 0:
            errors.append(f"time.t_end must be > 0, got {self.t_end}")
        if (self.dt is None) == (self.cfl is None):
            errors.append("exactly one of time.dt and time.cfl is required")
        if self.cadence < 1:
            errors.append(f"time.cadence must be >= 1, got {self.cadence}")
        if self.params.tau <= 0:
            errors.append(f"gevrey.tau0 must be > 0, got {self.params.tau}")
        if isinstance(self.c, str):
            if self.c != "fit":
                errors.append(
                    f"radius.c must be a number or 'fit', got {self.c!r}"
                )
        elif self.c <= 0:
            errors.append(f"radius.c must be > 0, got {self.c}")
        if errors:
            raise ConfigError("; ".join(errors))

    def initial_params(self) -> dict:
        if self.kind == "taylor-green":
            return {"amplitude": self.amplitude}
        if self.kind == "orszag-tang":
            return {"beta": self.beta}
        return {"seed": self.seed, "kmax": self.kmax,
                "amplitude": self.amplitude}


def _get(parser, section, key, cast, default=None, required=False,
         missing=None):
    if parser.has_option(section, key):
        raw = parser.get(section, key)
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: {exc}") from exc
    if required:
        missing.append(f"{section}.{key}")
    return default


def load_config(path) -> RunConfig:
    """Parse and validate a configuration file, rejecting unknown keys."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    unknown = []
    for section in parser.sections():
        if section not in _SCHEMA:
            unknown.append(f"[{section}]")
            continue
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                unknown.append(f"{section}.{key}")
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")

    missing: list[str] = []
    n = _get(parser, "grid", "n", int, required=True, missing=missing)
    kind = _get(parser, "initial", "kind", str, required=True, missing=missing)
    t_end = _get(parser, "time", "t_end", float, required=True, missing=missing)
    r = _get(parser, "gevrey", "r", float, required=True, missing=missing)
    tau0 = _get(parser, "gevrey", "tau0", float, required=True, missing=missing)
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    def c_value(raw: str):
        return raw if raw == "fit" else float(raw)

    try:
        params = GevreyParams(
            r=r, s=_get(parser, "gevrey", "s", float, 1.0), tau=tau0
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        return RunConfig(
            n=n,
            kind=kind,
            t_end=t_end,
            params=params,
            dt=_get(parser, "time", "dt", float),
            cfl=_get(parser, "time", "cfl", float),
            cadence=_get(parser, "time", "cadence", int, 1),
            amplitude=_get(parser, "initial", "amplitude", float, 1.0),
            beta=_get(parser, "initial", "beta", float, 0.8),
            seed=_get(parser, "initial", "seed", int, 0),
            kmax=_get(parser, "initial", "kmax", int, 2),
            c=_get(parser, "radius", "c", c_value, 1.0),
            directory=_get(parser, "output", "directory", str, "."),
            series=_get(parser, "output", "series", str, "series.csv"),
            spectra=_get(parser, "output", "spectra", str, ""),
            checkpoint=_get(parser, "output", "checkpoint", str, ""),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
