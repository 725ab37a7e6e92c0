"""Flat ``key = value`` configuration files and override handling.

Schema (every ``*_hz`` key is an ordinary frequency nu = omega/2pi in Hz):

    omega_a_hz      cavity frequency
    omega_m1_hz     first magnon frequency
    omega_m2_hz     second magnon frequency
    omega_s_hz      drive (squeezed-vacuum carrier) frequency
    kappa_a_hz      cavity amplitude decay rate
    kappa_m1_hz     first magnon amplitude decay rate
    kappa_m2_hz     second magnon amplitude decay rate
    g1_hz           photon-magnon coupling, mode 1
    g2_hz           photon-magnon coupling, mode 2
    r               drive squeezing parameter (dimensionless)
    theta_rad       drive squeezing phase in rad
    temperature_k   bath temperature in K

Blank lines and ``#`` comments are ignored, and ``nan`` or ``inf`` values
are rejected.  Values merge with precedence command-line ``--set`` >
preset-pinned values > configuration file > built-in defaults.
"""

from __future__ import annotations

import math

from .model import DriveParams, Environment, FixedPoint, SystemParams, hz_to_internal

# Built-in defaults and the only definition of the reference operating
# point: a 10 GHz cavity with kappa_a/2pi = 5 MHz, magnon linewidths
# kappa_a/5, couplings g = 4 kappa_a, both magnons and the drive resonant
# with the cavity, the headline drive (r = 2, theta = 0) and a 20 mK bath.
DEFAULTS = {
    "omega_a_hz": 10.0e9,
    "omega_m1_hz": 10.0e9,
    "omega_m2_hz": 10.0e9,
    "omega_s_hz": 10.0e9,
    "kappa_a_hz": 5.0e6,
    "kappa_m1_hz": 1.0e6,
    "kappa_m2_hz": 1.0e6,
    "g1_hz": 20.0e6,
    "g2_hz": 20.0e6,
    "r": 2.0,
    "theta_rad": 0.0,
    "temperature_k": 0.02,
}

CONFIG_KEYS = tuple(DEFAULTS)


def _parse_entry(item: str, where: str) -> tuple[str, float]:
    """One ``key=value`` entry; ``where`` prefixes every error message."""
    if "=" not in item:
        raise ValueError(f"{where}: expected key=value, got {item!r}")
    key, raw = (part.strip() for part in item.split("=", 1))
    if key not in CONFIG_KEYS:
        raise ValueError(
            f"{where}: unknown key {key!r}; valid keys: {', '.join(CONFIG_KEYS)}"
        )
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{where}: value for {key!r} is not a number: {raw!r}")
    if not math.isfinite(value):
        raise ValueError(f"{where}: value for {key!r} must be finite, got {raw!r}")
    return key, value


def parse_config_text(text: str, source: str = "config") -> dict[str, float]:
    """Parse configuration text into a key -> value dict."""
    values: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = _parse_entry(line, f"{source}:{lineno}")
            values[key] = value
    return values


def load_config(path) -> dict[str, float]:
    """Read and parse a UTF-8 configuration file (a byte-order mark is skipped)."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    return parse_config_text(text, source=str(path))


def parse_overrides(assignments) -> dict[str, float]:
    """Parse ``key=value`` strings, e.g. from repeated --set options."""
    return dict(_parse_entry(item, "--set") for item in assignments)


def merge(*layers: dict[str, float]) -> dict[str, float]:
    """Merge value dicts on top of the defaults; later layers win.

    Every key must be a configuration key."""
    values = dict(DEFAULTS)
    for layer in layers:
        for key in layer:
            if key not in CONFIG_KEYS:
                raise ValueError(
                    f"unknown key {key!r}; valid keys: {', '.join(CONFIG_KEYS)}"
                )
        values.update(layer)
    return values


def fixed_from_values(*layers: dict[str, float]) -> FixedPoint:
    """The operating point (internal units) of value dicts merged onto the
    defaults by ``merge``: later layers win; an unknown key is a ValueError."""
    values = merge(*layers)
    return FixedPoint(
        params=SystemParams(
            omega_a=hz_to_internal(values["omega_a_hz"]),
            omega_m1=hz_to_internal(values["omega_m1_hz"]),
            omega_m2=hz_to_internal(values["omega_m2_hz"]),
            omega_s=hz_to_internal(values["omega_s_hz"]),
            kappa_a=hz_to_internal(values["kappa_a_hz"]),
            kappa_m1=hz_to_internal(values["kappa_m1_hz"]),
            kappa_m2=hz_to_internal(values["kappa_m2_hz"]),
            g1=hz_to_internal(values["g1_hz"]),
            g2=hz_to_internal(values["g2_hz"]),
        ),
        drive=DriveParams(r=values["r"], theta=values["theta_rad"]),
        temperature=values["temperature_k"],
    )


def default_params() -> tuple[SystemParams, Environment]:
    """System parameters and bath of the reference point (``DEFAULTS``)."""
    point = fixed_from_values()
    return point.params, Environment.from_temperature(point.temperature, point.params)
