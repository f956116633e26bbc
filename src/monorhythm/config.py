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
A configured number that breaks the rule on its ``SCHEMA`` row is rejected,
with its file, line and key, when a command reads it; defaults are not checked.
``reject_unread`` rejects a key of one section that no read asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

_POSITIVE = (lambda v: v > 0.0, "positive")
_NONNEGATIVE = (lambda v: v >= 0, "nonnegative")
_AT_LEAST_2 = (lambda v: v >= 2, "at least 2")

# key -> (kind, rule); kinds are float, int, str, float_list, int_list. A str
# key's rule is its tuple of choices, checked at parse time; a number's rule is
# (predicate, text), checked when a command reads the configured value; None
# is no rule.
SCHEMA = {
    "model.u_res": ("float", None),
    "model.u_peak": ("float", None),
    "model.a": ("float", (lambda v: 0.0 < v < 1.0, "in (0, 1)")),
    "model.c1": ("float", _NONNEGATIVE),
    "model.c2": ("float", _NONNEGATIVE),
    "model.c3": ("float", _POSITIVE),
    "model.b": ("float", _POSITIVE),
    "model.C_m": ("float", _POSITIVE),
    "model.chi": ("float", _POSITIVE),
    "model.sigma": ("float", _POSITIVE),
    "rescale.epsilon": ("float", _POSITIVE),
    "rescale.xi": ("float", _POSITIVE),
    "derived.c4_override": ("float", None),
    "geometry.length": ("float", _POSITIVE),
    "stimulus.kind": ("str", ("constant", "sinusoid", "pulse")),
    "stimulus.period": ("float", _POSITIVE),
    "stimulus.period_raw": ("float", _POSITIVE),
    "stimulus.amplitude": ("float", None),
    "stimulus.offset": ("float", None),
    "stimulus.center": ("float", None),
    "stimulus.width": ("float", (lambda v: 0.0 < v <= 0.25, "in (0, 0.25]")),
    "stimulus.phi": ("float", None),
    "solver.m": ("int", _NONNEGATIVE),
    "solver.n_t": ("int", None),
    "solver.dt": ("float", _POSITIVE),
    "solver.tol": ("float", _POSITIVE),
    "solver.theta": ("float", (lambda v: 0.0 < v <= 1.0, "in (0, 1]")),
    "solver.max_iter": ("int", (lambda v: v >= 1, "at least 1")),
    "solver.newton_max_iter": ("int", (lambda v: v >= 0, "at least 0")),
    "solver.method": ("str", ("picard", "shooting", "both")),
    "solver.radius": ("float", _POSITIVE),
    "cauchy.t_end": ("float", _POSITIVE),
    "cauchy.dt": ("float", _POSITIVE),
    "ic.u": ("float_list", None),
    "ic.w": ("float_list", None),
    "converge.m_list": (
        "int_list",
        (
            lambda v: len(v) >= 2 and v[0] >= 0 and all(a <= b for a, b in zip(v, v[1:])),
            "at least 2 nondecreasing nonnegative sizes",
        ),
    ),
    "feasibility.kappa": ("float", _POSITIVE),
    "feasibility.beta": ("float", _NONNEGATIVE),
    "feasibility.gamma": ("float", _POSITIVE),
    "feasibility.delta": ("float", _POSITIVE),
    "feasibility.k1": ("float", _POSITIVE),
    "feasibility.k2": ("float", _POSITIVE),
    "feasibility.projection_excess": ("float", _NONNEGATIVE),
    "feasibility.trace_norm": ("float", _POSITIVE),
    "feasibility.domain_measure": ("float", _POSITIVE),
    "feasibility.s_sup": ("float", _NONNEGATIVE),
    "feasibility.phi_norm": ("float", _NONNEGATIVE),
    "feasibility.t_max": ("float", _POSITIVE),
    "feasibility.r_max": ("float", _POSITIVE),
    "feasibility.n_samples": ("int", _AT_LEAST_2),
    "region.a1_min": ("float", _NONNEGATIVE),
    "region.a1_max": ("float", None),
    "region.n_a1": ("int", _AT_LEAST_2),
    "region.a2_max": ("float", _POSITIVE),
    "region.n_a2": ("int", _AT_LEAST_2),
    "output.dir": ("str", None),
    "output.format": ("str", ("csv", "json", "both")),
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
    kind, rule = SCHEMA[key]
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
    if rule is not None and token not in rule:
        raise ConfigError(
            f"key '{key}' must be one of {', '.join(rule)}; got {token!r}",
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
        number must meet the rule on its ``SCHEMA`` row; a default is not checked."""
        value = self.entries.get(key, default)
        kind, rule = SCHEMA[key]
        # a str key's choices were checked when the file was parsed
        if key in self.entries and kind != "str" and rule is not None and not rule[0](value):
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
            relation, line = "neither", None
            if has_a:
                line_a, line_b = self.lines[key_a], self.lines[key_b]
                relation, line = f"both, on lines {line_a} and {line_b}", max(line_a, line_b)
            raise ConfigError(
                f"exactly one of '{key_a}' and '{key_b}' must be given; found {relation}",
                self.path,
                line,
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
    kind = SCHEMA[key][0]
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
