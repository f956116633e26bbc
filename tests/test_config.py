"""Tests for the flat dotted-key configuration parser and renderer."""

import math

import pytest

from monorhythm.config import (
    SCHEMA,
    ConfigError,
    format_value,
    load_config,
    parse_config,
    render_config,
)
from monorhythm.spectral import Stimulus


def test_parse_types_and_comments():
    text = "\n".join(
        [
            "# leading comment",
            "model.u_peak = 100.0",
            "solver.m = 8   # trailing comment",
            "",
            "stimulus.kind = sinusoid",
            "ic.u = 0.5, -1.25e-3, 2",
            "converge.m_list = 4,8,16",
        ]
    )
    cfg = parse_config(text, path="demo.cfg")
    assert cfg.entries["model.u_peak"] == 100.0, "float value should parse"
    assert cfg.entries["solver.m"] == 8, "int value should parse"
    assert isinstance(cfg.entries["solver.m"], int), "int kind must stay an int"
    assert cfg.entries["stimulus.kind"] == "sinusoid", "string value should parse"
    assert cfg.entries["ic.u"] == (0.5, -1.25e-3, 2.0), "float list should parse"
    assert cfg.entries["converge.m_list"] == (4, 8, 16), "int list should parse"
    # line numbers skip blanks: the duplicate on line 8 points back to line 5
    with pytest.raises(ConfigError, match=r"demo\.cfg:8: .*\(first set on line 5\)$"):
        parse_config(text + "\nstimulus.kind = pulse", path="demo.cfg")


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError) as exc_info:
        parse_config("model.u_peak = 1\nmodel.zeta = 3\n", path="bad.cfg")
    message = str(exc_info.value)
    assert "bad.cfg:2" in message, f"expected file:line prefix, got {message!r}"
    assert "model.zeta" in message, f"expected offending key named, got {message!r}"


def test_duplicate_key_names_first_line():
    text = "solver.m = 4\nsolver.tol = 1e-8\nsolver.m = 8\n"
    with pytest.raises(ConfigError) as exc_info:
        parse_config(text, path="dup.cfg")
    message = str(exc_info.value)
    assert "dup.cfg:3" in message, f"duplicate should point at its own line: {message!r}"
    assert "first set on line 1" in message, f"expected first line named: {message!r}"


def test_missing_equals_sign_rejected():
    with pytest.raises(ConfigError) as exc_info:
        parse_config("solver.m 4\n")
    assert "key = value" in str(exc_info.value), "malformed line should describe format"


def test_bad_values_rejected_per_kind():
    for line in (
        "model.u_peak = abc",
        "model.u_peak = inf",
        "solver.m = 4.5",
        "ic.u = 1.0, oops",
        "converge.m_list = 4,eight",
        "solver.m =",
    ):
        with pytest.raises(ConfigError):
            parse_config(line + "\n")


def test_every_schema_row_is_well_formed():
    """A tuple of choices sits only on a str row and a (predicate, text) rule
    only on a numeric row; Stimulus shapes exactly the stimulus kinds allowed."""
    for key, (kind, rule) in SCHEMA.items():
        if kind == "str":
            assert rule is None or (
                isinstance(rule, tuple) and all(isinstance(choice, str) for choice in rule)
            ), key
        else:
            assert kind in ("float", "int", "float_list", "int_list"), key
            assert rule is None or (callable(rule[0]) and isinstance(rule[1], str)), key
    assert tuple(Stimulus.FIELDS) == SCHEMA["stimulus.kind"][1]


def test_configured_value_outside_its_range_names_file_line_and_key():
    """A configured value is checked when it is read, by get and require alike;
    a default, and a key no caller reads, is not."""
    cfg = parse_config("solver.m = 4\nsolver.tol = -1e-10\nsolver.dt = 0\n", path="run.cfg")
    message = r"^run\.cfg:2: key 'solver\.tol' must be positive, got -1e-10$"
    with pytest.raises(ConfigError, match=message):
        cfg.get("solver.tol", 1e-10)
    with pytest.raises(ConfigError, match=message):
        cfg.require("solver.tol")
    assert cfg.get("solver.theta", 2.0) == 2.0
    assert cfg.require("solver.m") == 4
    assert cfg.echo() == {"solver.m": 4, "solver.theta": 2.0}


@pytest.mark.parametrize("sizes", ["-1,8", "8,4"])
def test_bad_ladder_names_file_line_and_key(sizes):
    """A negative or decreasing truncation ladder is one range rule, keyed like any other."""
    cfg = parse_config(f"solver.m = 4\nconverge.m_list = {sizes}\n", path="run.cfg")
    message = (
        r"^run\.cfg:2: key 'converge\.m_list' must be at least 2 nondecreasing "
        rf"nonnegative sizes, got \({sizes.replace(',', ', ')}\)$"
    )
    with pytest.raises(ConfigError, match=message):
        cfg.require("converge.m_list")


def test_choice_keys_enforced():
    with pytest.raises(ConfigError) as exc_info:
        parse_config("stimulus.kind = triangle\n")
    message = str(exc_info.value)
    assert "sinusoid" in message, f"error should list allowed choices: {message!r}"
    for key, value in (
        ("stimulus.kind", "pulse"),
        ("solver.method", "both"),
        ("output.format", "json"),
    ):
        cfg = parse_config(f"{key} = {value}\n")
        assert cfg.entries[key] == value, f"{value!r} should be accepted for {key}"


def test_require_and_get_record_consumption():
    cfg = parse_config("solver.m = 8\n")
    assert cfg.require("solver.m") == 8, "present key should be returned"
    assert cfg.get("solver.tol", 1e-10) == 1e-10, "default should be returned"
    assert cfg.get("solver.dt", None) is None, "None default should pass through"
    echo = cfg.echo()
    assert echo == {"solver.m": 8, "solver.tol": 1e-10}, (
        f"echo should hold resolved values and skip None defaults, got {echo}"
    )
    with pytest.raises(ConfigError) as exc_info:
        cfg.require("cauchy.t_end")
    assert "cauchy.t_end" in str(exc_info.value), "missing key should be named"


def test_reject_unread_names_the_first_unread_key_of_its_section():
    """A configured key of the section that no get has read is named with its
    line, first in file order; keys of other sections are not checked."""
    text = "solver.m = 4\nsolver.n_t = 64\nsolver.theta = 0.5\ncauchy.dt = 0.1\n"
    cfg = parse_config(text, path="run.cfg")
    assert cfg.require("solver.m") == 4
    message = r"^run\.cfg:2: key 'solver\.n_t' is not used by solver\.method = shooting$"
    with pytest.raises(ConfigError, match=message):
        cfg.reject_unread("solver.", "by solver.method = shooting")
    cfg.get("solver.n_t", 1024)
    cfg.get("solver.theta", 1.0)
    cfg.reject_unread("solver.", "by solver.method = picard")


def test_require_exactly_one():
    cfg = parse_config("stimulus.period = 2.0\n")
    key, value = cfg.require_exactly_one("stimulus.period", "stimulus.period_raw")
    assert key == "stimulus.period" and value == 2.0

    both = parse_config("stimulus.period = 2.0\nstimulus.period_raw = 0.064\n")
    with pytest.raises(ConfigError) as exc_info:
        both.require_exactly_one("stimulus.period", "stimulus.period_raw")
    assert str(exc_info.value).endswith("found both, on lines 1 and 2"), exc_info.value

    neither = parse_config("solver.m = 4\n")
    with pytest.raises(ConfigError) as exc_info:
        neither.require_exactly_one("stimulus.period", "stimulus.period_raw")
    assert "neither" in str(exc_info.value), "absent pair should say 'neither'"


def test_render_parse_round_trip_is_exact():
    original = {
        "model.u_peak": 100.0,
        "model.a": math.pi / 13.0,
        "solver.tol": 1e-10,
        "solver.m": 8,
        "ic.u": (0.1, -2.5e-17, 3.0),
        "converge.m_list": (4, 8, 16),
        "stimulus.kind": "pulse",
    }
    text = render_config(original)
    reparsed = parse_config(text).entries
    assert reparsed == original, (
        f"render/parse round trip should be exact: {reparsed} vs {original}"
    )
    lines = text.splitlines()
    assert lines == sorted(lines), "rendered keys should be sorted"


def test_render_rejects_unknown_key():
    with pytest.raises(ConfigError):
        render_config({"model.unknown_knob": 1.0})


def test_format_value_float_precision():
    third = 1.0 / 3.0
    assert float(format_value("model.a", third)) == third, (
        "17 significant digits must reproduce the double exactly"
    )


def test_load_config_missing_file():
    with pytest.raises(ConfigError) as exc_info:
        load_config("/nonexistent/path/run.cfg")
    assert "cannot read configuration" in str(exc_info.value)
