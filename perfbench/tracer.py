"""Span and counter recording around the public functions of each layer.

The library has no instrumentation of its own, so the traced run patches
each wrapped name in the namespace of the module that calls it (the
modules use ``from .x import y``) and wraps methods on their classes.
A span records name, layer, start, end, parent and op id; a layer's self
time is its span time minus the time its child spans cover.  Counters
are computed from arguments and results after a span ends, and the time
spent counting is charged to neither the span nor its parent.
"""
from __future__ import annotations

import functools
import importlib
import json
import time


def _size(x):
    try:
        return len(x)
    except TypeError:
        return 0


def _grid_len(a, kw, result):
    return {"filtrations.stages": len(result.grid)}


def _built(a, kw, result):
    return {"complexes.simplices_built": len(result.simplices)}


def _kept(a, kw, result):
    return {"persistence.columns": len(result)}


def _bars(a, kw, result):
    return {"persistence.bars": len(result.pairs)}


def _shapes(a, kw, result):
    return {"homology.shapes_enumerated": len(result)}


def _chain(a, kw, C):
    return {"homology.basis_size": sum(len(b) for b in C.basis.values()),
            "homology.boundary_nnz": sum(len(col) for cols in
                                         C.boundaries.values()
                                         for col in cols)}


def _maps(a, kw, result):
    return {"homotopy.maps": len(result)}


def _density(a, kw, result):
    A = a[0].adjacency
    return {"homotopy.graphs": 1,
            "homotopy.adjacency_cells": A.size,
            "homotopy.adjacency_edges": int(A.sum())}


def _cells_rows_cols(a, kw, result):
    # (n_rows, columns, ...) signatures
    return {"linalg.matrix_cells": a[0] * _size(a[1])}


def _cells_field(a, kw, result):
    # field_kernel(F, n_rows, columns)
    return {"linalg.matrix_cells": a[1] * _size(a[2])}


def _cells_solve(a, kw, result):
    # solve_rational(columns, b)
    return {"linalg.matrix_cells": _size(a[1]) * _size(a[0])}


def _cells_dense(a, kw, result):
    rows = a[0]
    return {"linalg.matrix_cells": _size(rows) * (_size(rows[0]) if rows else 0)}


def _cells_reducer(a, kw, result):
    # QuotientReducer methods reduce one vector against the stored rows
    return {"linalg.matrix_cells": _size(a[1]) * max(1, len(a[0].rows))}


# (module, attribute or Class.method, layer, counter).  Names are patched
# where they are looked up: in the calling module for functions imported
# with "from .x import y", on the class for methods.
PATCHES = (
    ("closuretop.cli", "main", "cli", None),
    ("closuretop.cli", "load_space", "spaces", None),
    ("closuretop.cli", "ContinuousMap", "spaces", None),
    ("closuretop.spaces", "load_space", "spaces", None),
    ("closuretop.spaces", "is_continuous", "spaces", None),
    ("closuretop.homotopy", "interval", "spaces", None),
    ("closuretop.homotopy", "product", "spaces", None),
    ("closuretop.homotopy", "is_continuous", "spaces", None),
    ("closuretop.filtrations", "subspace", "spaces", None),
    ("closuretop.cli", "metric_from_csv", "filtrations", None),
    ("closuretop.cli", "digraph_from_text", "filtrations", None),
    ("closuretop.cli", "filtered_from_metric", "filtrations", _grid_len),
    ("closuretop.cli", "filtered_from_weighted_digraph", "filtrations",
     _grid_len),
    ("closuretop.filtrations", "sublevel_from_csv", "filtrations", None),
    ("closuretop.filtrations", "filtered_from_sublevel", "filtrations",
     _grid_len),
    ("closuretop.persistence", "vr", "complexes", _built),
    ("closuretop.persistence", "cech", "complexes", _built),
    ("closuretop.cli", "persistence_complex", "persistence", None),
    ("closuretop.persistence", "filtered_simplices", "persistence", _kept),
    ("closuretop.cli", "diagram_to_json", "persistence", None),
    ("closuretop.persistence", "persistence_tower", "persistence", None),
    ("closuretop.persistence", "tower_to_diagram", "persistence", _bars),
    ("closuretop.persistence", "bottleneck", "persistence", None),
    ("closuretop.cli", "singular_chain_complex", "homology", None),
    ("closuretop.persistence", "singular_chain_complex", "homology", None),
    ("closuretop.homology", "cubical_chain_complex", "homology", _chain),
    ("closuretop.homology", "simplicial_chain_complex", "homology", _chain),
    ("closuretop.persistence", "complex_chain_complex", "homology", _chain),
    ("closuretop.homology", "enumerate_cubes", "homology", _shapes),
    ("closuretop.homology", "enumerate_simplices", "homology", _shapes),
    ("closuretop.cli", "homology", "homology", None),
    ("closuretop.persistence", "homology_basis", "homology", None),
    ("closuretop.persistence", "induced_map_between", "homology", None),
    ("closuretop.homology", "rank_and_invariants", "linalg.z",
     _cells_rows_cols),
    ("closuretop.homology", "integer_kernel_basis", "linalg.z",
     _cells_rows_cols),
    ("closuretop.homology", "snf_with_row_transform", "linalg.z",
     _cells_dense),
    ("closuretop.homology", "solve_rational", "linalg.z", _cells_solve),
    ("closuretop.homology", "rank_mod_p", "linalg.field", _cells_rows_cols),
    ("closuretop.homology", "field_kernel", "linalg.field", _cells_field),
    ("closuretop.persistence", "field_kernel", "linalg.field", _cells_field),
    ("closuretop._linalg", "QuotientReducer.add_boundary", "linalg.field",
     _cells_reducer),
    ("closuretop._linalg", "QuotientReducer.add_generator", "linalg.field",
     _cells_reducer),
    ("closuretop._linalg", "QuotientReducer.coords", "linalg.field",
     _cells_reducer),
    ("closuretop.cli", "homotopic", "homotopy", None),
    ("closuretop.homotopy", "enumerate_continuous_maps", "homotopy", _maps),
    ("closuretop.homotopy", "MapGraph.__init__", "homotopy", _density),
    ("closuretop.homotopy", "MapGraph.find_chain", "homotopy", None),
    ("closuretop.homotopy", "_extract_one_step", "homotopy", None),
)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []     # [name, layer, start, end, parent, op, self]
        self.counts = {}
        self.absent = []
        self.op = None
        self._stack = []    # open span indices
        self._covered = []  # child time covered, per open span
        self._undo = []

    def wrap(self, fn, name, layer, counter=None):
        failed = object()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            clock = self.clock
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            self._covered.append(0.0)
            result = failed
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[idx] = [name, layer, start, end, parent, self.op,
                                   end - start - self._covered.pop()]
                if counter is not None and result is not failed:
                    self._count(name, counter, args, kwargs, result)
                if self._covered:
                    self._covered[-1] += clock() - start
            return result
        return traced

    def _count(self, name, counter, args, kwargs, result):
        try:
            counted = counter(args, kwargs, result)
        except (TypeError, IndexError, AttributeError) as exc:
            # a changed signature or result: skip the count and say so
            note = f"{name} counter: {exc!r}"
            if note not in self.absent:
                self.absent.append(note)
            return
        for key, value in counted.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def install(self, patches=PATCHES):
        """Patch every name that exists; record the others as absent."""
        for module_name, attr, layer, counter in patches:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if path else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            setattr(owner, leaf, self.wrap(original, name, layer, counter))
            self._undo.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo = []

    def dump(self, path):
        """Write spans, counters and absent names as JSON lines."""
        keys = ("name", "layer", "start", "end", "parent", "op", "self")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
            fh.write(json.dumps({"counts": self.counts,
                                 "absent": self.absent}) + "\n")
