"""Typed dataclass ↔ dict conversion with validation.

Every configuration object in this codebase is a (possibly nested)
frozen dataclass.  This module gives all of them a uniform wire form:

* :func:`config_to_dict` — recursive dataclass → plain JSON-ready dict
  (tuples become lists, nested configs become nested dicts);
* :func:`config_from_dict` — the inverse, driven by the dataclass's
  type hints.  Unknown keys are *errors* (they are almost always
  typos), values are coerced to the annotated type where that is
  unambiguous (``int`` → ``float``, ``list`` → ``tuple``, numeric
  strings from ``--set`` overrides → numbers), and every failure names
  the full dotted path of the offending key.

The dataclasses' own ``__post_init__`` validators still run on
construction, so range checks (``crossover_rate`` in ``[0, 1]``, …)
are enforced on loaded configs exactly as on hand-built ones.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from typing import Any, TypeVar

from ..errors import ConfigurationError

C = TypeVar("C")

_MISSING = object()

#: Keys older releases wrote that no longer exist, by the name of the
#: config dataclass that owned them.  Loading drops them silently, so a
#: report or spooled job written before their removal still loads.  None
#: of them ever changed a result.  The ``parallel`` block is outside the
#: hash, so its retired keys keep the stored ``config_hash``;
#: ``GAConfig.incremental`` was hashed, so a config that carried it
#: resolves to the current hash instead.
RETIRED_KEYS: dict[str, frozenset[str]] = {
    "ParallelConfig": frozenset({"shared_memory", "oversubscribe"}),
    "GAConfig": frozenset({"incremental"}),
}


def config_to_dict(config: Any) -> Any:
    """Recursively convert a config dataclass to JSON-ready data."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return {
            f.name: config_to_dict(getattr(config, f.name))
            for f in dataclasses.fields(config)
        }
    if isinstance(config, (list, tuple)):
        return [config_to_dict(item) for item in config]
    if isinstance(config, (bool, int, float, str)) or config is None:
        return config
    raise ConfigurationError(
        f"cannot serialise {type(config).__name__} in a config "
        f"(only dataclasses, tuples and scalars): {config!r}"
    )


def config_from_dict(cls: type[C], data: Any, path: str = "") -> C:
    """Build ``cls`` from ``data``, validating keys and coercing types.

    ``path`` is the dotted prefix used in error messages (empty at the
    top level).  Raises :class:`~repro.errors.ConfigurationError` on
    unknown keys, uncoercible values, or dataclass validator failures.
    """
    coerced = _coerce(data, cls, path or cls.__name__)
    return typing.cast(C, coerced)


def _type_name(tp: Any) -> str:
    if tp is type(None):
        return "None"
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        return " | ".join(_type_name(a) for a in typing.get_args(tp))
    name = getattr(tp, "__name__", None)
    return name if name else str(tp)


def _fail(path: str, expected: Any, value: Any) -> ConfigurationError:
    return ConfigurationError(
        f"config key {path!r}: expected {_type_name(expected)}, "
        f"got {value!r} ({type(value).__name__})"
    )


def _coerce(value: Any, tp: Any, path: str) -> Any:
    """Coerce ``value`` to the annotated type ``tp`` or raise."""
    if tp is Any:
        return value

    origin = typing.get_origin(tp)

    # Optional / unions: try each arm, preferring an exact-type match.
    if origin in (typing.Union, types.UnionType):
        args = typing.get_args(tp)
        if value is None:
            if type(None) in args:
                return None
            raise _fail(path, tp, value)
        errors: list[str] = []
        for arm in args:
            if arm is type(None):
                continue
            try:
                return _coerce(value, arm, path)
            except ConfigurationError as exc:
                errors.append(str(exc))
        raise ConfigurationError(errors[0] if errors else str(_fail(path, tp, value)))

    # Nested dataclass.
    if dataclasses.is_dataclass(tp) and isinstance(tp, type):
        if dataclasses.is_dataclass(value) and isinstance(value, tp):
            return value
        if not isinstance(value, dict):
            raise _fail(path, tp, value)
        hints = typing.get_type_hints(tp)
        field_names = {f.name for f in dataclasses.fields(tp)}
        retired = RETIRED_KEYS.get(tp.__name__, frozenset())
        value = {k: v for k, v in value.items() if k not in retired}
        unknown = set(value) - field_names
        if unknown:
            known = ", ".join(sorted(field_names))
            raise ConfigurationError(
                f"unknown config key(s) {sorted(unknown)} under {path!r}; "
                f"valid keys: {known}"
            )
        kwargs = {
            name: _coerce(value[name], hints[name], f"{path}.{name}")
            for name in value
        }
        try:
            return tp(**kwargs)
        except ConfigurationError:
            raise
        except Exception as exc:  # dataclass validators (ModelError, …)
            raise ConfigurationError(f"config key {path!r}: {exc}") from exc

    # Tuples (the only sequence type configs use).
    if origin is tuple:
        if isinstance(value, str) or not isinstance(value, (list, tuple)):
            raise _fail(path, tp, value)
        args = typing.get_args(tp)
        if len(args) == 2 and args[1] is Ellipsis:
            element = args[0]
            return tuple(
                _coerce(item, element, f"{path}[{i}]")
                for i, item in enumerate(value)
            )
        if args and len(args) != len(value):
            raise ConfigurationError(
                f"config key {path!r}: expected {len(args)} elements, "
                f"got {len(value)}"
            )
        if not args:
            return tuple(value)
        return tuple(
            _coerce(item, arm, f"{path}[{i}]")
            for i, (item, arm) in enumerate(zip(value, args))
        )

    # Scalars, with the unambiguous coercions only.
    if tp is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise _fail(path, tp, value)
    if tp is int:
        if isinstance(value, bool):
            raise _fail(path, tp, value)
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                raise _fail(path, tp, value) from None
        raise _fail(path, tp, value)
    if tp is float:
        if isinstance(value, bool):
            raise _fail(path, tp, value)
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                raise _fail(path, tp, value) from None
        raise _fail(path, tp, value)
    if tp is str:
        if isinstance(value, str):
            return value
        raise _fail(path, tp, value)

    raise ConfigurationError(
        f"config key {path!r}: unsupported annotation {_type_name(tp)}"
    )
