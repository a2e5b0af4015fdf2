"""Backend selection for the bitmask kernels.

The compiled extension (xpand._kernels_cy) is used when it imported
cleanly and the instance fits in 63-bit masks; otherwise the fallback
(xpand._kernels_py: vectorized numpy ratio sweeps, pure Python for the
rest) takes over. XPAND_PURE_PYTHON=1 forces the fallback. Both
backends return bit-identical results, so callers never need to care
which one ran.

The compact-set engine (compact_masks, compact_set_bounds) and
mask_nodes do not dispatch: they always run the numpy code of the
fallback, whichever backend is active.
"""

from __future__ import annotations

import os

from . import _kernels_py as _py
from .errors import InputError

if os.environ.get("XPAND_PURE_PYTHON") == "1":
    _cy = None
else:
    try:
        from . import _kernels_cy as _cy  # type: ignore[attr-defined]
    except ImportError:
        _cy = None

BACKEND = "cython" if _cy is not None else "python"
INF = _py.INF

_CY_MAX_N = 63


def get_backend(name=None):
    """Return a kernel module by name; None means the active default."""
    if name in (None, "auto"):
        return _cy if _cy is not None else _py
    if name == "python":
        return _py
    if name == "cython":
        if _cy is None:
            raise InputError("compiled backend is not available")
        return _cy
    raise InputError(f"unknown backend {name!r}")


def _impl(n: int):
    if _cy is not None and n <= _CY_MAX_N:
        return _cy
    return _py


def adjacency_masks(adjacency) -> list:
    return _py.adjacency_masks(adjacency)


mask_nodes = _py.mask_nodes


def mask_connected(mask: int, adj, *, n: int = _CY_MAX_N) -> bool:
    return _impl(n).mask_connected(mask, adj)


def min_ratio_node_cut(n: int, adj, max_size: int):
    return _impl(n).min_ratio_node_cut(n, adj, max_size)


def min_ratio_edge_cut(n: int, adj, max_size: int):
    return _impl(n).min_ratio_edge_cut(n, adj, max_size)


# a function of this module, not an alias, so that wrapping this
# module's functions (per-kernel call tracing) still sees every call
def compact_masks(n: int, adj):
    return _py.compact_masks(n, adj)


compact_set_bounds = _py.compact_set_bounds


def connected_masks(n: int, adj, cap: int):
    return _impl(n).connected_masks(n, adj, cap)


def steiner_min_tree(n: int, adj, terminals):
    return _impl(n).steiner_min_tree(n, adj, terminals)
