"""Run configuration: strict key = value sections, reproducibility first.

Unknown keys are rejected; missing required keys are reported all at once.
"""

import configparser
import math
from pathlib import Path

from .norms import GevreyParams, weights_overflow
from .spectral import INITIAL_CONDITIONS


class ConfigError(ValueError):
    """Invalid, unknown or missing configuration content."""


def _c_value(raw: str):
    return raw if raw == "fit" else float(raw)


REQUIRED = object()  # default of a key the file must set

# section -> key -> (cast, default).  Key names are unique across sections,
# as each becomes a RunConfig attribute of the same name.
SCHEMA = {
    "grid": {"n": (int, REQUIRED)},
    "initial": {"kind": (str, REQUIRED), "amplitude": (float, 1.0),
                "beta": (float, 0.8), "seed": (int, 0), "kmax": (int, 2)},
    "time": {"t_end": (float, REQUIRED), "dt": (float, None),
             "cfl": (float, None), "cadence": (int, 1)},
    "gevrey": {"r": (float, REQUIRED), "s": (float, 1.0),
               "tau0": (float, REQUIRED)},
    "radius": {"c": (_c_value, 1.0)},
    "output": {"directory": (str, "."), "series": (str, "series.csv"),
               "spectra": (str, ""), "checkpoint": (str, "")},
}


class RunConfig:
    """Validated contents of a run configuration file.

    Every key of SCHEMA is an attribute of the same name; `params` holds
    gevrey.r, gevrey.s and gevrey.tau0 as a GevreyParams.
    """

    def __init__(self, **values):
        self.__dict__.update(values)
        errors = []
        if self.n < 8 or self.n > 512 or (self.n & (self.n - 1)) != 0:
            errors.append(
                f"grid.n must be a power of two in [8, 512], got {self.n}"
            )
        kinds = tuple(INITIAL_CONDITIONS)
        if self.kind not in kinds:
            errors.append(
                f"initial.kind must be one of {kinds}, got {self.kind!r}"
            )
        if self.t_end <= 0:
            errors.append(f"time.t_end must be > 0, got {self.t_end}")
        if (self.dt is None) == (self.cfl is None):
            errors.append("exactly one of time.dt and time.cfl is required")
        for key, value in (("dt", self.dt), ("cfl", self.cfl)):
            if value is not None and value <= 0:
                errors.append(f"time.{key} must be > 0, got {value}")
        if self.seed < 0:
            errors.append(f"initial.seed must be >= 0, got {self.seed}")
        if self.kind == "random-band":
            if self.kmax < 1:
                errors.append(f"initial.kmax must be >= 1 for random-band, "
                              f"got {self.kmax}")
            if self.kmax >= self.n / 3:
                errors.append(f"initial.kmax must be < grid.n/3 = "
                              f"{self.n / 3:.4g} for random-band, "
                              f"got {self.kmax}")
        if self.cadence < 1:
            errors.append(f"time.cadence must be >= 1, got {self.cadence}")
        if self.r <= 0:
            errors.append(f"gevrey.r must be > 0, got {self.r}")
        if self.s < 1:
            errors.append(f"gevrey.s must be >= 1, got {self.s}")
        if self.tau0 <= 0:
            errors.append(f"gevrey.tau0 must be > 0, got {self.tau0}")
        if self.c != "fit" and self.c <= 0:  # _c_value gives "fit" or a float
            errors.append(f"radius.c must be > 0, got {self.c}")
        if not Path(self.series).name:  # "", "." or "/" name no file
            errors.append(f"output.series must name a file: {self.series!r}")
        if errors:
            raise ConfigError("; ".join(errors))
        self.params = GevreyParams(r=self.r, s=self.s, tau=self.tau0)
        if weights_overflow(self.n, self.params):
            raise ConfigError(
                f"grid.n = {self.n}, gevrey.r = {self.r}, gevrey.s = "
                f"{self.s} and gevrey.tau0 = {self.tau0} give a norm weight "
                "that overflows float64")

    def initial_params(self) -> dict:
        """Keyword arguments of `spectral.init_state` for this kind."""
        _build, keys = INITIAL_CONDITIONS[self.kind]
        return {key: getattr(self, key) for key in keys}


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
        if section not in SCHEMA:
            unknown.append(f"[{section}]")
            continue
        for key in parser.options(section):
            if key not in SCHEMA[section]:
                unknown.append(f"{section}.{key}")
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")

    values, missing = {}, []
    for section, keys in SCHEMA.items():
        for key, (cast, default) in keys.items():
            if not parser.has_option(section, key):
                if default is REQUIRED:
                    missing.append(f"{section}.{key}")
                values[key] = default
                continue
            try:
                values[key] = value = cast(parser.get(section, key))
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from exc
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{section}.{key} must be finite, got {value}")
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    return RunConfig(**values)
