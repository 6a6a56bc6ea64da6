"""FPGA device model.

A device is characterized by ``(S_MAX, T_MAX)`` — logic capacity in basic
cells and terminal (I/O pin) count.  The paper derives the usable capacity
from the vendor data-sheet value: ``S_MAX = S_ds * delta`` where ``delta``
is a user filling ratio (0.9 in the XC3000 experiments, 1.0 for XC2064),
chosen below 1.0 to leave routing headroom for the vendor place-and-route.

The lower bound on the number of devices needed for a circuit is

    M = max(ceil(S0 / S_MAX), ceil(|Y0| / T_MAX)).

This module also carries the Xilinx catalog used in the evaluation:
XC3020, XC3042, XC3090 and XC2064.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional

from ..hypergraph import Hypergraph

__all__ = [
    "Device",
    "XC3020",
    "XC3042",
    "XC3090",
    "XC2064",
    "DEVICE_CATALOG",
    "device_by_name",
]


@dataclass(frozen=True)
class Device:
    """One FPGA device type.

    Parameters
    ----------
    name:
        Vendor part name, e.g. ``"XC3020"``.
    s_ds:
        Data-sheet logic capacity in CLBs.
    t_max:
        Number of user I/O pins (``T_MAX``).
    delta:
        Filling ratio applied to ``s_ds``; the usable capacity is the
        *real-valued* ``S_MAX = s_ds * delta``.  It must stay unfloored:
        the paper's lower bound for s13207 on XC3020 is 16 =
        ceil(915 / 57.6), whereas flooring to 57 would give 17.  Block
        feasibility is unaffected (integer sizes make ``S <= 57.6`` and
        ``S <= 57`` the same test).
    """

    name: str
    s_ds: int
    t_max: int
    delta: float = 1.0

    def __post_init__(self) -> None:
        if self.s_ds <= 0:
            raise ValueError(f"s_ds must be positive, got {self.s_ds}")
        if self.t_max <= 0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")

    @property
    def s_max(self) -> float:
        """Usable logic capacity ``S_MAX = s_ds * delta`` (real-valued)."""
        return self.s_ds * self.delta

    def with_delta(self, delta: float) -> "Device":
        """Copy of this device with a different filling ratio."""
        return replace(self, delta=delta)

    def fits(self, size: int, pins: int) -> bool:
        """``P |= D``: does a block with this size and pin count fit?"""
        return size <= self.s_max and pins <= self.t_max

    def lower_bound(self, hg: Hypergraph) -> int:
        """Lower bound ``M`` on devices needed for circuit ``hg``.

        ``M = max(ceil(S0/S_MAX), ceil(|Y0|/T_MAX))``, and at least 1 for a
        non-empty circuit.
        """
        if hg.num_cells == 0:
            return 0
        by_size = math.ceil(hg.total_size / self.s_max)
        by_pins = math.ceil(hg.num_terminals / self.t_max)
        return max(by_size, by_pins, 1)

    def __str__(self) -> str:
        return (
            f"{self.name}(S_ds={self.s_ds}, T_MAX={self.t_max}, "
            f"delta={self.delta}, S_MAX={self.s_max})"
        )


# Catalog used in the paper's evaluation.  Deltas follow section 4:
# 0.9 for the XC3000-family experiments, 1.0 for XC2064.
XC3020 = Device("XC3020", s_ds=64, t_max=64, delta=0.9)
XC3042 = Device("XC3042", s_ds=144, t_max=96, delta=0.9)
XC3090 = Device("XC3090", s_ds=320, t_max=144, delta=0.9)
XC2064 = Device("XC2064", s_ds=64, t_max=58, delta=1.0)

DEVICE_CATALOG: Dict[str, Device] = {
    d.name: d for d in (XC3020, XC3042, XC3090, XC2064)
}


def device_by_name(name: str, delta: Optional[float] = None) -> Device:
    """Catalog device by (case-insensitive) name, at ``delta`` if given."""
    key = name.upper()
    if key not in DEVICE_CATALOG:
        known = ", ".join(sorted(DEVICE_CATALOG))
        raise KeyError(f"unknown device {name!r}; known: {known}")
    device = DEVICE_CATALOG[key]
    return device if delta is None else device.with_delta(delta)
