"""The bitmask kernels the package calls.

The implementations live in xpand._kernels_py: vectorized numpy for
the ratio sweeps and the compact-set engine, pure Python for the rest.
The kernels called once per instance are plain functions of this
module, not aliases, so that wrapping this module's functions
(per-kernel call tracing) sees every call without also counting the
helpers the kernels call internally. mask_nodes and the block
generators boundary_blocks and compact_set_bounds are aliases and are
not traced; neither is the per-set test that connector_lookup returns.
"""

from __future__ import annotations

from . import _kernels_py as _py

# recorded in manifests
BACKEND = "python"


def adjacency_masks(adjacency) -> list:
    return _py.adjacency_masks(adjacency)


mask_nodes = _py.mask_nodes


def min_ratio_node_cut(n: int, adj, max_size: int):
    return _py.min_ratio_node_cut(n, adj, max_size)


def min_ratio_edge_cut(n: int, adj, max_size: int):
    return _py.min_ratio_edge_cut(n, adj, max_size)


def connectivity_table(n: int, adj):
    return _py.connectivity_table(n, adj)


def compact_masks(conn):
    return _py.compact_masks(conn)


def connector_lookup(conn):
    return _py.connector_lookup(conn)


boundary_blocks = _py.boundary_blocks
compact_set_bounds = _py.compact_set_bounds


def connected_masks(n: int, adj, cap: int):
    return _py.connected_masks(n, adj, cap)


def steiner_min_tree(n: int, adj, terminals):
    return _py.steiner_min_tree(n, adj, terminals)
