"""Plain-text model and schedule descriptors (INI sections, inline CSV tables).

A descriptor either names a zoo entry::

    [model]
    zoo = constant_plus

or supplies explicit sections [source], [grid], [gen1], [gen2], [out1],
[out2]. Tables are inline CSV blocks (indented continuation lines) or file
references resolved relative to the descriptor. An optional [transform]
section lists operations (op.1, op.2, ...) that are re-applied on load, so a
transformed model round-trips through its descriptor alone. A section or key
that no reader knows, or a value that does not parse, is a DescriptorError.
"""
from __future__ import annotations

import configparser
import io
import math
import os
import shlex
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .errors import DescriptorError, HarnessError, UnknownZooEntryError
from .model import (
    TWO_PI,
    InstrumentParamGen,
    LocalModel,
    OutcomeFn,
    SourceSpace,
    Station,
    TimeGrid,
)
from .stations import DEFAULT_PAIRS, Schedule
from .symmetry import (
    condition_sign_on_source,
    decode_sign,
    layer_double,
    make_sign_function,
    target_marginal,
    time_symmetrize,
)
from .util import parse_scalar
from .zoo import ZOO, zoo_model

MODEL_SECTIONS = ("source", "grid", "gen1", "gen2", "out1", "out2")

# Every section a reader knows, with the keys it reads; [transform] holds op keys.
_GEN_KEYS = ("kind", "seed", "value", "values", "stride", "modulus", "table", "file")
_OUT_KEYS = ("kind", "value", "negate", "table", "file")
MODEL_KEYS = {"model": ("zoo", "name"), "source": ("states", "prior"), "grid": ("slots", "weights"),
              "gen1": _GEN_KEYS, "gen2": _GEN_KEYS, "out1": _OUT_KEYS, "out2": _OUT_KEYS,
              "transform": ()}
SCHEDULE_KEYS = {"schedule": ("trials", "policy", "pairs", "a", "b", "seed_source",
                              "seed_settings", "seed_s1", "seed_s2")}

_ANGLE_KEY_DIGITS = 9


def _parse_list(text: str) -> list:
    return [parse_scalar(tok.strip()) for tok in text.split(",") if tok.strip()]


def _angle_key(angle: float) -> float:
    key = round(angle % TWO_PI, _ANGLE_KEY_DIGITS)
    # Angles just below 2*pi round up to it; they key the same row as 0.
    return 0.0 if key == round(TWO_PI, _ANGLE_KEY_DIGITS) else key


def _new_parser() -> configparser.ConfigParser:
    return configparser.ConfigParser(interpolation=None)


def _read_ini(path: str | Path, what: str, known: dict) -> configparser.ConfigParser:
    """Parse a descriptor file holding only the ``known`` sections and keys; a
    missing or malformed file is a configuration error."""
    path = Path(path)
    if not path.exists():
        raise UnknownZooEntryError(f"{what} not found: {path}")
    parser = _new_parser()
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise DescriptorError(f"cannot parse {what} {path}: {exc}") from exc
    for name in parser.sections():
        if name not in known:
            raise DescriptorError(f"{what} {path}: unknown section [{name}]")
        unknown = [k for k in parser[name] if k not in known[name]
                   and not (name == "transform" and k.startswith("op"))]
        if unknown:
            raise DescriptorError(f"{what} {path}: [{name}] has unknown keys {unknown}")
    return parser


@contextmanager
def _parsing(what: str):
    """A value that does not parse (``int('two')``) becomes a DescriptorError;
    a HarnessError, such as bad weights, passes unchanged."""
    try:
        yield
    except HarnessError:
        raise
    except ValueError as exc:
        raise DescriptorError(f"{what}: {exc}") from exc


class _Table(dict):
    """A descriptor table keyed for its rule. A key the table lacks raises
    DescriptorError (a configuration error) naming the section and the key."""

    def __init__(self, section: configparser.SectionProxy, items):
        super().__init__(items)
        self.section = section.name

    def __missing__(self, key):
        raise DescriptorError(f"[{self.section}] table misses key {key!r}")


def _read_table(section: configparser.SectionProxy, base_dir: Path | None,
                widths: tuple[int, ...]) -> list[list]:
    """Rows from an inline ``table`` block or a referenced ``file``, all of one
    of the allowed ``widths``."""
    if "table" in section:
        text = section["table"]
    elif "file" in section:
        ref = Path(section["file"])
        if base_dir is not None and not ref.is_absolute():
            ref = base_dir / ref
        if not ref.exists():
            raise DescriptorError(f"table file not found: {ref}")
        text = ref.read_text(encoding="utf-8")
    else:
        raise DescriptorError(f"section [{section.name}] needs an inline table or a file reference")
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([parse_scalar(tok.strip()) for tok in line.split(",")])
    if not rows:
        raise DescriptorError(f"section [{section.name}]: table is empty")
    if len({len(r) for r in rows}) != 1 or len(rows[0]) not in widths:
        need = " or ".join(map(str, widths))
        raise DescriptorError(f"[{section.name}]: every table row needs {need} columns")
    return rows


def _build_source(section) -> SourceSpace:
    if "states" not in section or "prior" not in section:
        raise DescriptorError("[source] needs 'states' and 'prior'")
    states = [str(s) for s in _parse_list(section["states"])]
    prior = [float(p) for p in _parse_list(section["prior"])]
    return SourceSpace(tuple(states), tuple(prior))


def _build_grid(section) -> TimeGrid:
    if "slots" not in section:
        raise DescriptorError("[grid] needs 'slots'")
    slots = int(section["slots"])
    weights = None
    if "weights" in section:
        weights = tuple(float(w) for w in _parse_list(section["weights"]))
    return TimeGrid(slots, weights)


def _build_gen(section, station: Station, base_dir: Path | None) -> InstrumentParamGen:
    kind = section.get("kind", "constant").strip()
    seed = int(section.get("seed", "0"))
    if kind == "constant":
        value = parse_scalar(section.get("value", "0").strip())
        return InstrumentParamGen(station, (value,), lambda s, m, sd, v=value: v, seed)
    if kind == "cycle":
        values = tuple(_parse_list(section.get("values", "")))
        if not values:
            raise DescriptorError(f"[{section.name}] kind=cycle needs 'values'")
        stride = int(section.get("stride", "1"))
        modulus = int(section.get("modulus", str(len(values))))
        if stride < 1 or modulus < 1:
            raise DescriptorError(f"[{section.name}] kind=cycle needs stride and modulus >= 1")
        rule = lambda s, m, sd, v=values, st=stride, md=modulus: v[(((m - 1) // st) % md) % len(v)]
        return InstrumentParamGen(station, values, rule, seed)
    if kind == "table":
        rows = _read_table(section, base_dir, (2, 3))
        if len(rows[0]) == 2:
            mapping = _Table(section, ((int(r[0]), r[1]) for r in rows))
            rule = lambda s, m, sd, t=mapping: t[m]
        else:
            mapping = _Table(section, (((_angle_key(float(r[0])), int(r[1])), r[2]) for r in rows))
            rule = lambda s, m, sd, t=mapping: t[(_angle_key(s.angle), m)]
        values = section.get("values")
        space = tuple(_parse_list(values)) if values else tuple(sorted(set(mapping.values()), key=str))
        return InstrumentParamGen(station, space, rule, seed)
    raise DescriptorError(f"[{section.name}]: unknown generator kind {kind!r}")


def _build_out(section, station: Station, base_dir: Path | None) -> OutcomeFn:
    kind = section.get("kind", "constant").strip()
    if kind == "constant":
        value = int(section.get("value", "1"))
        return OutcomeFn(station, lambda s, lam, v, m, o=value: o, reads=())
    if kind == "lambda_table":
        rows = _read_table(section, base_dir, (2,))
        mapping = _Table(section, ((str(r[0]), int(r[1])) for r in rows))
        return OutcomeFn(station, lambda s, lam, v, m, t=mapping: t[str(lam)], reads={"state"})
    if kind == "cosine":
        rows = _read_table(section, base_dir, (2,))
        offsets = _Table(section, ((str(r[0]), float(r[1])) for r in rows))
        for lam, offset in offsets.items():
            if not math.isfinite(offset):
                raise DescriptorError(f"[{section.name}] state {lam!r}: offset {offset} is not finite")
        flip = -1 if section.getboolean("negate", fallback=False) else 1

        def rule(s, lam, v, m, t=offsets, f=flip):
            return f * (1 if math.cos(s.angle - t[str(lam)]) >= 0.0 else -1)

        return OutcomeFn(station, rule, reads={"setting", "state"})
    if kind == "table":
        rows = _read_table(section, base_dir, (4, 5))
        if len(rows[0]) == 4:
            mapping = _Table(section, (((str(r[0]), r[1], int(r[2])), int(r[3])) for r in rows))
            rule = lambda s, lam, v, m, t=mapping: t[(str(lam), v, m)]
        else:
            mapping = _Table(section, (((_angle_key(float(r[0])), str(r[1]), r[2], int(r[3])),
                                        int(r[4])) for r in rows))
            rule = lambda s, lam, v, m, t=mapping: t[(_angle_key(s.angle), str(lam), v, m)]
        return OutcomeFn(station, rule)
    raise DescriptorError(f"[{section.name}]: unknown outcome kind {kind!r}")


def _op_params(tokens: list[str]) -> dict[str, str]:
    params = {}
    for tok in tokens:
        if "=" not in tok:
            raise DescriptorError(f"transform parameter {tok!r} is not key=value")
        k, v = tok.split("=", 1)
        params[k] = v
    return params


def _station_from(text: str) -> Station | None:
    text, stations = text.lower(), {"both": None, "s1": Station.S1, "s2": Station.S2}
    if text not in stations:
        raise DescriptorError(f"unknown station {text!r} (use s1, s2 or both)")
    return stations[text]


@_parsing("transform op")
def apply_transform_op(model: LocalModel, op: str) -> LocalModel:
    """Apply one textual transform op; vocabulary shared with the CLI."""
    tokens = shlex.split(op)
    if not tokens:
        raise DescriptorError("empty transform op")
    name, params = tokens[0], _op_params(tokens[1:])
    if name == "rademacher":
        if "mean" not in params:
            raise DescriptorError("rademacher op needs mean=<float>")
        sign = make_sign_function(model.grid, float(params["mean"]), int(params.get("seed", "0")))
        return time_symmetrize(model, sign, _station_from(params.get("station", "both")))
    if name == "sign":
        if "values" not in params:
            raise DescriptorError("sign op needs values=<+-...>")
        sign = decode_sign(params["values"], model.grid)
        return time_symmetrize(model, sign, _station_from(params.get("station", "both")))
    if name in ("double", "layer_double"):
        return layer_double(model)
    if name in ("lambda-sign", "lambda_sign"):
        return condition_sign_on_source(model, int(params.get("seed", "0")))
    if name == "target":
        if "alpha" not in params or "station" not in params:
            raise DescriptorError("target op needs alpha=<float> station=<s1|s2>")
        station = _station_from(params["station"])
        if station is None:
            raise DescriptorError("target op needs a single station")
        transformed, _ = target_marginal(
            model,
            station,
            float(params["alpha"]),
            int(params.get("seed", "0")),
            setting_angle=float(params.get("angle", "0")),
            round_to_representable=params.get("round", "false").lower() == "true",
        )
        return transformed
    raise DescriptorError(f"unknown transform op {name!r}")


def _transform_ops(parser: configparser.ConfigParser) -> list[str]:
    """The ops in key order (op.2 before op.10); ``_read_ini`` admits op keys only."""
    section = parser["transform"] if "transform" in parser else {}
    return [section[k] for k in sorted(section, key=lambda k: (len(k), k))]


def model_from_config(parser: configparser.ConfigParser, base_dir: Path | None = None) -> LocalModel:
    if "model" in parser and parser["model"].get("zoo"):
        base = zoo_model(parser["model"]["zoo"].strip())
        if parser["model"].get("name"):
            base = replace(base, name=parser["model"]["name"].strip())
    else:
        missing = [s for s in MODEL_SECTIONS if s not in parser]
        if missing:
            raise DescriptorError(f"descriptor misses sections: {missing}")
        name = parser["model"].get("name", "custom") if "model" in parser else "custom"
        base = LocalModel(
            name=name,
            source=_build_source(parser["source"]),
            grid=_build_grid(parser["grid"]),
            gen1=_build_gen(parser["gen1"], Station.S1, base_dir),
            gen2=_build_gen(parser["gen2"], Station.S2, base_dir),
            out1=_build_out(parser["out1"], Station.S1, base_dir),
            out2=_build_out(parser["out2"], Station.S2, base_dir),
        )
    for op in _transform_ops(parser):
        base = apply_transform_op(base, op)
    return base


def load_model(path: str | Path) -> LocalModel:
    parser = _read_ini(path, "model descriptor", MODEL_KEYS)
    with _parsing(f"model descriptor {path}"):
        return model_from_config(parser, base_dir=Path(path).parent)


def make_model(spec: str | Path) -> LocalModel:
    """Build a validated model from a zoo name or a descriptor path."""
    if isinstance(spec, str) and spec in ZOO:
        return zoo_model(spec)
    if not Path(spec).exists():
        raise UnknownZooEntryError(f"unknown zoo entry or model file: {str(spec)!r}")
    return load_model(spec)


def descriptor_text(
    base: str | Path,
    ops: list[str],
    out_dir: str | Path,
    notes: list[str] | None = None,
) -> str:
    """Descriptor for a transformed model, to be written in ``out_dir``: the
    base reference plus a [transform] section carrying the ops verbatim, so
    loading re-applies them.

    If the base descriptor already carries transforms, the new ops are appended
    after them with continued numbering. A relative table ``file`` is
    rewritten relative to ``out_dir``, so that it names the same file; in the
    base descriptor's own directory it keeps its text.
    """
    base_str = str(base)
    if base_str in ZOO:
        parser = _new_parser()
        parser.add_section("model")
        parser.set("model", "zoo", base_str)
    else:
        parser = _read_ini(base_str, "model descriptor", MODEL_KEYS)
        base_dir = Path(base_str).parent
        if base_dir.resolve() != Path(out_dir).resolve():
            for section in parser.sections():
                ref = parser[section].get("file")
                if ref is not None and not Path(ref).is_absolute():
                    parser.set(section, "file", os.path.relpath(base_dir / ref, out_dir))
    existing = _transform_ops(parser)
    parser.remove_section("transform")
    parser.add_section("transform")
    for i, op in enumerate(existing + list(ops), start=1):
        parser.set("transform", f"op.{i}", op)
    buf = io.StringIO()
    for note in notes or []:
        buf.write(f"; {note}\n")
    parser.write(buf)
    return buf.getvalue()


def load_schedule(path: str | Path) -> Schedule:
    parser = _read_ini(path, "schedule descriptor", SCHEDULE_KEYS)
    if "schedule" not in parser:
        raise DescriptorError(f"{path}: missing [schedule] section")
    with _parsing(f"schedule descriptor {path}"):
        return schedule_from_section(parser["schedule"])


def schedule_from_section(section) -> Schedule:
    if "trials" not in section:
        raise DescriptorError("[schedule] needs 'trials'")
    policy = section.get("policy", "cycle").strip()
    pairs: tuple = DEFAULT_PAIRS
    if "pairs" in section:
        parsed = []
        for chunk in section["pairs"].split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if ":" not in chunk:
                raise DescriptorError(f"pair {chunk!r} must be a:b")
            a, b = chunk.split(":", 1)
            parsed.append((float(a), float(b)))
        pairs = tuple(parsed)
    elif "a" in section and "b" in section:
        pairs = ((float(section["a"]), float(section["b"])),)
    return Schedule(
        trials=int(section["trials"]),
        policy=policy,
        pairs=pairs,
        seed_source=int(section.get("seed_source", "0")),
        seed_settings=int(section.get("seed_settings", "0")),
        seed_s1=section.getint("seed_s1"),
        seed_s2=section.getint("seed_s2"),
    )
