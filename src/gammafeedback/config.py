"""
Sectioned key=value run configuration: parsing, validation, rendering.

Format: INI-style sections ``[model]``, ``[impact]``, ``[stochastic]``,
``[events]``, ``[grid]``, ``[run]`` with ``key = value`` lines and ``#``
comments. Each section builds one spec dataclass -- ``ModelParams``,
``ImpactSpec``, ``StochasticSpec``, ``EventSpec``, ``GridSpec``, and
``RunConfig`` itself for ``[run]`` -- and its keys are that dataclass's
fields: their types say how a value parses, their defaults fill omitted
keys, and the spec's own checks validate the result. ``render_config``
walks the same fields to write the fully resolved document back out;
parsing that text reproduces the same RunConfig exactly.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import MISSING, dataclass, fields

from .analysis import GridSpec
from .model import ImpactSpec, ModelParams, _require
from .stochastic import EventSpec, StochasticSpec


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


@dataclass
class RunConfig:
    """Fully resolved inputs for one run; absent sections stay None."""

    model: ModelParams | None = None
    impact: ImpactSpec | None = None
    stochastic: StochasticSpec | None = None
    events: EventSpec | None = None
    grid: GridSpec | None = None
    horizon: int | None = None
    output_dir: str | None = None
    emit_svg: bool = False

    def __post_init__(self) -> None:
        if self.horizon is not None:
            _require("horizon", self.horizon, ">=", 1)
        # ``render_config`` writes the value on an ``out = ...`` line, which
        # reads back stripped, cut at a line break, and cut at a # or ; that
        # starts the value or follows whitespace
        out = self.output_dir
        if out is not None and (out != out.strip() or re.search(r"\n|(^|\s)[#;]", out)):
            raise ValueError("out must not start or end with whitespace, hold a line break, "
                             f"or hold # or ; at its start or after whitespace (got {out!r})")


_SPECS = {"model": ModelParams, "impact": ImpactSpec, "stochastic": StochasticSpec,
          "events": EventSpec, "grid": GridSpec, "run": RunConfig}
SECTIONS = tuple(_SPECS)

# What the fields cannot say: keys spelled differently from their field,
# keys required although their field has a default, and fields that are
# not keys ([events] takes its horizon from [run]; RunConfig's section
# fields hold the other sections).
_KEY_NAMES = {"lam": "lambda", "output_dir": "out"}
_REQUIRED = {"model": ("n0", "gamma0")}
_NOT_KEYS = {"events": ("horizon",), "run": SECTIONS}


def _bool(text: str) -> bool:
    word = text.strip().lower()
    if word in ("true", "1", "yes", "on"):
        return True
    if word in ("false", "0", "no", "off"):
        return False
    raise ValueError(text)


# Annotation text (the spec modules postpone annotations) -> how a value is
# written (repr is inlined) and read, and what a bad value "is not".
_TYPES = {
    "float": (repr, float, "a number"),
    "int": (repr, int, "an integer"),
    "bool": (lambda value: "true" if value else "false", _bool, "a boolean"),
    "str": (str, str, "a string"),
}


def _section(section: str, spec) -> tuple[tuple, frozenset, tuple]:
    """A section's keys as (key, field, render, parse, what) in field order,
    the set of them, and the keys it requires. Plain tuples: they unpack
    faster than named ones."""
    keys, required = [], []
    for f in fields(spec):
        if f.name in _NOT_KEYS.get(section, ()):
            continue
        key = _KEY_NAMES.get(f.name, f.name)
        keys.append((key, f.name, *_TYPES[f.type.partition(" ")[0]]))
        if f.default is MISSING or f.name in _REQUIRED.get(section, ()):
            required.append(key)
    return tuple(keys), frozenset(k[0] for k in keys), tuple(required)


# Built once, at import, rather than on every parse.
_TABLE = {section: _section(section, spec) for section, spec in _SPECS.items()}


def _build(section: str, data: dict, filled: dict):
    """Check one section's raw strings and build its spec, plus ``filled``."""
    keys, allowed, required = _TABLE[section]
    if not allowed.issuperset(data):
        unknown = ", ".join(sorted(data.keys() - allowed))
        raise ConfigError(f"unknown key(s) in [{section}]: {unknown}")
    for key in required:
        if key not in data:
            missing = ", ".join(k for k in required if k not in data)
            raise ConfigError(f"missing required key(s) in [{section}]: {missing}")
    for name, value in filled.items():
        if value is None:
            raise ConfigError(f"[{section}] requires [run] {name}")
    for key, name, _, parse, what in keys:
        if key in data:
            try:
                filled[name] = parse(data[key])
            except ValueError:
                raise ConfigError(f"[{section}] {key} is not {what}: {data[key]!r}") from None
    try:
        return _SPECS[section](**filled)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate a sectioned key=value document.

    Raises ConfigError with a line reference for syntax problems and with
    the offending field name for validation problems.
    """
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None

    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    if not _SPECS.keys() >= sections.keys():
        unknown = ", ".join(sorted(sections.keys() - _SPECS.keys()))
        raise ConfigError(f"unknown section(s): {unknown}")

    config = _build("run", sections.get("run", {}), {})
    for section in SECTIONS[:-1]:
        if section in sections:
            filled = {"horizon": config.horizon} if section == "events" else {}
            setattr(config, section, _build(section, sections[section], filled))
    return config


def render_config(config: RunConfig) -> str:
    """Serialize a RunConfig as the resolved sectioned document.

    Floats use their shortest round-trip representation, so
    ``parse_config(render_config(c)) == c`` for every valid config.
    """
    lines: list[str] = []
    for section, (keys, _, _) in _TABLE.items():
        spec = config if section == "run" else getattr(config, section)
        if spec is None:
            continue
        values = vars(spec)
        lines.append(f"[{section}]")
        for key, name, render, _, _ in keys:
            value = values[name]
            if value is not None:
                lines.append(f"{key} = {value!r}" if render is repr else f"{key} = {render(value)}")
        lines.append("")
    return "\n".join(lines)
