"""One request model for both front doors: ``fpart partition`` and serve.

A :class:`PartitionRequest` is FPART's whole input: a netlist path, a
catalog device, its filling ratio δ (``None`` keeps the catalog's) and
``FpartConfig`` overrides by field name.  :meth:`~PartitionRequest.validate`
makes every check that needs no file and raises :class:`RequestError`
(CLI exit 65, HTTP 400); :meth:`~PartitionRequest.resolve` also loads
the netlist, where a missing file is exit 66, HTTP 404.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..hypergraph.io import load_netlist
from .config import DEFAULT_CONFIG, FpartConfig
from .device import Device, device_by_name

__all__ = ["PartitionRequest", "RequestError", "resolve_config"]


class RequestError(ValueError):
    """A partitioning request that fails its admission checks."""


def _field_type(hint) -> tuple:
    """(value type, ``None`` allowed) of one ``FpartConfig`` field."""
    args = typing.get_args(hint)  # ``Optional[T]`` is ``(T, NoneType)``
    return (args[0], True) if args else (hint, False)


_FIELD_TYPES = {
    name: _field_type(hint)
    for name, hint in typing.get_type_hints(FpartConfig).items()
}


def resolve_config(overrides: Mapping[str, Any]) -> FpartConfig:
    """``DEFAULT_CONFIG`` with overrides of the fields' exact types applied.

    ``bool`` is not an ``int``; an ``int`` may set a ``float`` field.
    """
    if not overrides:
        return DEFAULT_CONFIG
    unknown = sorted(set(overrides) - set(_FIELD_TYPES))
    if unknown:
        raise RequestError(f"unknown config fields: {', '.join(unknown)}")
    values = {}
    for name, value in overrides.items():
        kind, optional = _FIELD_TYPES[name]
        if kind is float and type(value) in (int, float):
            value = float(value)
        elif type(value) is not kind and not (value is None and optional):
            raise RequestError(
                f"config field {name!r} must be {kind.__name__}"
                f"{' or null' if optional else ''}, got {value!r}"
            )
        values[name] = value
    try:
        return dataclasses.replace(DEFAULT_CONFIG, **values)
    except ValueError as error:
        raise RequestError(f"invalid config: {error}") from None


@dataclass(frozen=True)
class PartitionRequest:
    """A netlist, a device and its δ, and config overrides by field name."""

    netlist: str
    device: str = "XC3042"
    delta: Optional[float] = None
    config: Dict[str, Any] = field(default_factory=dict)

    @property
    def overrides(self) -> Dict[str, Any]:
        """The ``FpartConfig`` overrides carried in :attr:`config`."""
        return self.config

    def resolve_device(self) -> Device:
        """The catalog device at the requested (or the catalog) δ."""
        if self.delta is not None and not (
            type(self.delta) in (int, float) and 0 < self.delta <= 1
        ):
            raise RequestError(
                f"delta must be a number in (0, 1], got {self.delta!r}"
            )
        try:
            return device_by_name(str(self.device), delta=self.delta)
        except KeyError as error:
            raise RequestError(error.args[0]) from None

    def resolve_config(self) -> FpartConfig:
        """:attr:`overrides` applied by :func:`resolve_config`."""
        if not isinstance(self.config, dict):
            raise RequestError("config overrides must be a mapping")
        return resolve_config(self.overrides)

    def validate(self) -> None:
        """Every check that needs no file; raises :class:`RequestError`."""
        if type(self.netlist) is not str or not self.netlist:
            raise RequestError("request requires a netlist path")
        self.resolve_device()
        self.resolve_config()

    def resolve(self):
        """Validate, then load: ``(hypergraph, device, config)``."""
        self.validate()
        hg = load_netlist(self.netlist)
        return hg, self.resolve_device(), self.resolve_config()
