"""Flat dotted-key run configurations: parsing, validation, and rendering.

The format is plain text, one assignment per line:

    model.u_peak = 100.0
    stimulus.kind = sinusoid      # trailing comments are fine
    converge.m_list = 4,8,16

Keys live in a fixed schema; anything else is rejected with its line
number, as are duplicate keys and values that do not parse as the
declared type. A parsed file becomes a RunConfig, which hands values out
through require/get and records everything it resolved (defaults
included) so the caller can echo a complete, re-runnable configuration.
A configured number outside its range in ``RANGES`` is rejected, with its
file, line and key, when a command reads it; defaults are not checked.
``reject_unread`` rejects a key of one section that no read asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

_CHOICES = {
    "stimulus.kind": ("constant", "sinusoid", "pulse"),
    "solver.method": ("picard", "shooting", "both"),
    "output.format": ("csv", "json", "both"),
}

# key -> value kind; kinds are float, int, str, float_list, int_list
SCHEMA = {
    "model.u_res": "float",
    "model.u_peak": "float",
    "model.a": "float",
    "model.c1": "float",
    "model.c2": "float",
    "model.c3": "float",
    "model.b": "float",
    "model.C_m": "float",
    "model.chi": "float",
    "model.sigma": "float",
    "rescale.epsilon": "float",
    "rescale.xi": "float",
    "derived.c4_override": "float",
    "geometry.length": "float",
    "stimulus.kind": "str",
    "stimulus.period": "float",
    "stimulus.period_raw": "float",
    "stimulus.amplitude": "float",
    "stimulus.offset": "float",
    "stimulus.center": "float",
    "stimulus.width": "float",
    "stimulus.phi": "float",
    "solver.m": "int",
    "solver.n_t": "int",
    "solver.dt": "float",
    "solver.tol": "float",
    "solver.theta": "float",
    "solver.max_iter": "int",
    "solver.newton_max_iter": "int",
    "solver.method": "str",
    "solver.radius": "float",
    "cauchy.t_end": "float",
    "cauchy.dt": "float",
    "ic.u": "float_list",
    "ic.w": "float_list",
    "converge.m_list": "int_list",
    "feasibility.kappa": "float",
    "feasibility.beta": "float",
    "feasibility.gamma": "float",
    "feasibility.delta": "float",
    "feasibility.k1": "float",
    "feasibility.k2": "float",
    "feasibility.projection_excess": "float",
    "feasibility.trace_norm": "float",
    "feasibility.domain_measure": "float",
    "feasibility.s_sup": "float",
    "feasibility.phi_norm": "float",
    "feasibility.t_max": "float",
    "feasibility.r_max": "float",
    "feasibility.n_samples": "int",
    "region.a1_min": "float",
    "region.a1_max": "float",
    "region.n_a1": "int",
    "region.a2_max": "float",
    "region.n_a2": "int",
    "output.dir": "str",
    "output.format": "str",
}

_POSITIVE = (lambda v: v > 0.0, "positive")
_NONNEGATIVE = (lambda v: v >= 0, "nonnegative")
_AT_LEAST_2 = (lambda v: v >= 2, "at least 2")

# key -> (predicate, text): the range of a configured number, one key at a time
RANGES = {
    "solver.m": _NONNEGATIVE,
    "solver.dt": _POSITIVE,
    "solver.tol": _POSITIVE,
    "solver.theta": (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "solver.max_iter": (lambda v: v >= 1, "at least 1"),
    "solver.newton_max_iter": (lambda v: v >= 0, "at least 0"),
    "solver.radius": _POSITIVE,
    "cauchy.t_end": _POSITIVE,
    "cauchy.dt": _POSITIVE,
    "converge.m_list": (
        lambda v: len(v) >= 2 and v[0] >= 0 and all(a <= b for a, b in zip(v, v[1:])),
        "at least 2 nondecreasing nonnegative sizes",
    ),
    "feasibility.kappa": _POSITIVE,
    "feasibility.beta": _NONNEGATIVE,
    "feasibility.gamma": _POSITIVE,
    "feasibility.delta": _POSITIVE,
    "feasibility.k1": _POSITIVE,
    "feasibility.k2": _POSITIVE,
    "feasibility.projection_excess": _NONNEGATIVE,
    "feasibility.trace_norm": _POSITIVE,
    "feasibility.domain_measure": _POSITIVE,
    "feasibility.s_sup": _NONNEGATIVE,
    "feasibility.phi_norm": _NONNEGATIVE,
    "feasibility.t_max": _POSITIVE,
    "feasibility.r_max": _POSITIVE,
    "feasibility.n_samples": _AT_LEAST_2,
    "region.a1_min": _NONNEGATIVE,
    "region.n_a1": _AT_LEAST_2,
    "region.a2_max": _POSITIVE,
    "region.n_a2": _AT_LEAST_2,
}


class ConfigError(Exception):
    """Configuration problem, pointing at the file and line when known."""

    def __init__(self, message: str, path: str = "", line: Optional[int] = None):
        where = path or "<config>"
        if line is not None:
            where = f"{where}:{line}"
        super().__init__(f"{where}: {message}")


def _parse_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError("non-finite value")
    return value


def _parse_value(key: str, token: str, path: str, line_no: int):
    kind = SCHEMA[key]
    try:
        if kind == "float":
            return _parse_float(token)
        if kind == "int":
            return int(token, 10)
        if kind == "float_list":
            return tuple(_parse_float(part.strip()) for part in token.split(","))
        if kind == "int_list":
            return tuple(int(part.strip(), 10) for part in token.split(","))
    except ValueError as exc:
        raise ConfigError(
            f"value {token!r} for key '{key}' is not a valid {kind} ({exc})",
            path,
            line_no,
        ) from None
    # plain string; enforce enumerated choices where they exist
    allowed = _CHOICES.get(key)
    if allowed is not None and token not in allowed:
        raise ConfigError(
            f"key '{key}' must be one of {', '.join(allowed)}; got {token!r}",
            path,
            line_no,
        )
    return token


@dataclass(frozen=True)
class RunConfig:
    """A validated configuration plus a record of every value resolved."""

    path: str
    entries: dict
    lines: dict = field(default_factory=dict)  # key -> line number in the file
    consumed: dict = field(default_factory=dict)

    def has(self, key: str) -> bool:
        return key in self.entries

    def require(self, key: str):
        """Fetch a key that must be present."""
        if key not in self.entries:
            raise ConfigError(f"missing required key '{key}'", self.path)
        return self.get(key, None)

    def get(self, key: str, default):
        """Fetch a key, falling back to (and recording) a default. A configured
        value must lie in its range in ``RANGES``; a default is not checked."""
        value = self.entries.get(key, default)
        rule = RANGES.get(key) if key in self.entries else None
        if rule is not None and not rule[0](value):
            raise ConfigError(
                f"key '{key}' must be {rule[1]}, got {value!r}", self.path, self.lines.get(key)
            )
        if value is not None:
            self.consumed[key] = value
        return value

    def require_exactly_one(self, key_a: str, key_b: str):
        """Fetch whichever of two mutually exclusive keys is present."""
        has_a, has_b = self.has(key_a), self.has(key_b)
        if has_a == has_b:
            relation = "both" if has_a else "neither"
            raise ConfigError(
                f"exactly one of '{key_a}' and '{key_b}' must be given; found {relation}",
                self.path,
            )
        key = key_a if has_a else key_b
        return key, self.require(key)

    def reject_unread(self, section: str, why: str) -> None:
        """Raise for the first configured key of ``section`` (a prefix such as
        "solver.") that no ``get`` has read; ``why`` ends the message, as in
        "by solver.method = picard"."""
        for key in self.entries:
            if key.startswith(section) and key not in self.consumed:
                raise ConfigError(f"key '{key}' is not used {why}", self.path, self.lines.get(key))

    def echo(self) -> dict:
        """Everything resolved so far, in sorted key order."""
        return dict(sorted(self.consumed.items()))


def parse_config(text: str, path: str = "<string>") -> RunConfig:
    """Parse configuration text, rejecting unknown keys and bad values."""
    entries: dict = {}
    lines: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"expected 'key = value', got {stripped!r}", path, line_no
            )
        key, _, token = stripped.partition("=")
        key = key.strip()
        token = token.strip()
        if key not in SCHEMA:
            raise ConfigError(f"unknown key '{key}'", path, line_no)
        if key in entries:
            raise ConfigError(
                f"duplicate key '{key}' (first set on line {lines[key]})", path, line_no
            )
        if not token:
            raise ConfigError(f"key '{key}' has no value", path, line_no)
        entries[key] = _parse_value(key, token, path, line_no)
        lines[key] = line_no
    return RunConfig(path=path, entries=entries, lines=lines)


def load_config(path: str) -> RunConfig:
    """Read and parse a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read configuration: {exc}", path) from None
    return parse_config(text, path=path)


def format_value(key: str, value) -> str:
    """Render one value the way parse_config will read it back."""
    kind = SCHEMA[key]
    if kind == "float":
        return "%.17g" % value
    if kind == "int":
        return str(int(value))
    if kind == "float_list":
        return ",".join("%.17g" % v for v in value)
    if kind == "int_list":
        return ",".join(str(int(v)) for v in value)
    return str(value)


def render_config(mapping: dict) -> str:
    """Render a key-value mapping as configuration text, sorted by key.

    Floats are printed with 17 significant digits so a render/parse round
    trip reproduces them bit for bit.
    """
    out = []
    for key in sorted(mapping):
        if key not in SCHEMA:
            raise ConfigError(f"unknown key '{key}' cannot be rendered")
        out.append(f"{key} = {format_value(key, mapping[key])}")
    return "\n".join(out) + "\n"
