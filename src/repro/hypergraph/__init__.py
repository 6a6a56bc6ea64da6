"""Netlist hypergraph substrate.

Everything in this package is algorithm-agnostic: an immutable hypergraph
type, a builder, subcircuit extraction, text I/O, and statistics.
"""

from .blif import dumps_blif, loads_blif, read_blif, write_blif
from .builder import HypergraphBuilder
from .csr import CsrView
from .errors import BlifError, NetlistFormatError
from .hypergraph import Hypergraph
from .io import (
    dumps_hgr,
    load_netlist,
    loads_hgr,
    read_hgr,
    read_netlist,
    write_hgr,
    write_netlist,
)
from .lint import LintFinding, lint_netlist, render_lint
from .stats import HypergraphStats, compute_stats
from .subgraph import SubcircuitMap, extract_subcircuit
from .transform import merge_cells, relabel, remove_dangling, split_into_devices

__all__ = [
    "Hypergraph",
    "HypergraphBuilder",
    "CsrView",
    "SubcircuitMap",
    "extract_subcircuit",
    "read_hgr",
    "write_hgr",
    "loads_hgr",
    "dumps_hgr",
    "load_netlist",
    "read_netlist",
    "write_netlist",
    "read_blif",
    "write_blif",
    "loads_blif",
    "dumps_blif",
    "HypergraphStats",
    "compute_stats",
    "split_into_devices",
    "merge_cells",
    "remove_dangling",
    "relabel",
    "LintFinding",
    "lint_netlist",
    "render_lint",
    "NetlistFormatError",
    "BlifError",
]
