"""Outside-in tracing of ``finitejj``, installed from the benchmark's own files.

``instrument(tracer)`` replaces each traced callable with a wrapper -- where it
is defined and in every module that imported it by name (``from .eigensolve
import lowest_eigenvalues``), so calls between the package's modules are seen
too -- and returns the list that ``restore`` uses to put the originals back.
Nothing under ``src/`` changes.

Most wrappers record a span: name, start, end, parent span, the id of the
command being replayed (the run id), whether it raised, and a size where one
is defined (elements for pivot counts, dim for operators, rows for sweeps,
bytes for artifacts), and its inner time: the time spent inside the
``TIMED`` accessors it called directly.  Those accessors and the two
``CircuitParams`` ones run up to hundreds of thousands of times per command,
where a span each would cost about as much as the call.  So they leave no
span: the ``CircuitParams`` ones only bump a counter, the ``TIMED`` ones add
up a size and the time inside the call.  Spans live in one flat
``array`` and are written out by the replay when a pass ends.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("model", "hamiltonian", "eigensolve", "observables", "perturbation", "wick", "cli")

# Traced besides every public module-level function of each layer: public
# methods on the layer's hot path and the CLI's two artifact writers.
EXTRA = {
    "model": ("CircuitParams.__init__", "CircuitParams.pairs_total"),
    "hamiltonian": (
        "TridiagonalHamiltonian.__init__",
        "TridiagonalHamiltonian.coefficient_bounds",
        "TridiagonalHamiltonian.diagonal_block",
        "TridiagonalHamiltonian.offdiagonal_block",
        "TridiagonalHamiltonian.to_arrays",
        "TridiagonalHamiltonian.to_dense",
        "TridiagonalHamiltonian.matvec",
        "TridiagonalHamiltonian.charges",
    ),
    "wick": (
        "OperatorPoly.from_word",
        "OperatorPoly.__add__",
        "OperatorPoly.__radd__",
        "OperatorPoly.__sub__",
        "OperatorPoly.__mul__",
        "OperatorPoly.__rmul__",
        "OperatorPoly.__pow__",
    ),
    "cli": ("_write_table", "_write_scalars"),
}

# Counter-only callables (a span each would cost more than the call itself).
COUNTED = {
    "model.CircuitParams.__init__": "model.params_built",
    "model.CircuitParams.pairs_total": "model.pairs_total_calls",
}

# Timed counters: no span, but each call adds a size to one counter of the
# command and the seconds inside the call to another, and charges those seconds
# to the enclosing span as inner time.  Value: (size counter, size of a call
# from its arguments, seconds counter).
_block = ("hamiltonian.coeff_elems", lambda args: args[2] - args[1], "hamiltonian.block_s")
TIMED = {
    "hamiltonian.TridiagonalHamiltonian.diagonal_block": _block,
    "hamiltonian.TridiagonalHamiltonian.offdiagonal_block": _block,
    "hamiltonian.TridiagonalHamiltonian.coefficient_bounds":
        ("hamiltonian.bounds_calls", lambda args: 1, "hamiltonian.bounds_s"),
}


def _band_sweep_rows(tracer, args, result):
    tracer.count("observables.unconverged_rows", int(np.sum(result.columns["converged"] == 0)))
    return result.grid.size


# Size recorded on a span, from the call's arguments and result.
MEASURES = {
    "hamiltonian.TridiagonalHamiltonian.__init__": lambda tr, args, result: args[0].dim,
    "eigensolve.eigenvalue_count_below": lambda tr, args, result: args[0].dim,
    "observables.band_sweep": _band_sweep_rows,
    "cli._write_table": lambda tr, args, result: result.stat().st_size,
    "cli._write_scalars": lambda tr, args, result: result.stat().st_size,
}


FIELDS = ("id", "parent", "name", "run", "start", "end", "err", "size", "inner")


class Tracer:
    """In-memory span store for one pass; ``begin_run`` starts a command.

    A span is appended when it ends, as one row of ``FIELDS`` in a flat
    ``array('d')`` (ids and counts are exact in doubles); its id is taken when
    it starts, so ids follow start order and a parent's id precedes its
    children's.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.records = array("d")
        self.next_id = itertools.count()
        self.stack = [-1]
        # Seconds spent in timed counters, one entry per open span (and one
        # for calls outside any span).
        self.inner = [0.0]
        self.run_id = -1
        self.counts: dict[str, int] = {}
        self.run_counts: list[dict[str, int]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def clear(self):
        del self.records[:]
        self.next_id = itertools.count()
        self.stack[:] = [-1]
        self.inner[:] = [0.0]
        self.run_counts = []
        self.run_id = -1

    def begin_run(self, run_id: int):
        self.run_id = run_id
        self.counts = {}
        self.run_counts.append(self.counts)

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def columns(self) -> dict[str, np.ndarray]:
        """Spans as columns, row i holding span id i."""
        rows = np.frombuffer(self.records, dtype=np.float64).reshape(-1, len(FIELDS))
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
        out = {field: rows[:, k].copy() for k, field in enumerate(FIELDS)}
        for field in ("id", "parent", "name", "run", "err"):
            out[field] = out[field].astype(np.int64)
        return out


def _span(tracer: Tracer, name: str, fn, measure=None):
    nid = tracer.name_id(name)
    record, stack, inner = tracer.records.extend, tracer.stack, tracer.inner

    def wrapper(*args, **kwargs):
        sid = next(tracer.next_id)
        parent = stack[-1]
        stack.append(sid)
        inner.append(0.0)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            t1 = perf_counter()
            stack.pop()
            record((sid, parent, nid, tracer.run_id, t0, t1, 1, 0.0, inner.pop()))
            raise
        t1 = perf_counter()
        stack.pop()
        size = 0.0 if measure is None else measure(tracer, args, result)
        record((sid, parent, nid, tracer.run_id, t0, t1, 0, size, inner.pop()))
        return result

    return wrapper


def _counter(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        counts = tracer.counts
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def _timed_counter(tracer: Tracer, fn, counter: str, measure, seconds: str):
    inner = tracer.inner

    def wrapper(*args):
        t0 = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - t0
        inner[-1] += elapsed
        counts = tracer.counts
        counts[counter] = counts.get(counter, 0) + measure(args)
        counts[seconds] = counts.get(seconds, 0.0) + elapsed
        return result

    return wrapper


def _wrap(tracer: Tracer, full_name: str, raw):
    """Wrapped replacement for a class or module attribute ``raw``."""
    if isinstance(raw, property):
        return property(_wrap(tracer, full_name, raw.fget), raw.fset, raw.fdel, raw.__doc__)
    if isinstance(raw, classmethod):
        return classmethod(_wrap(tracer, full_name, raw.__func__))
    if full_name in COUNTED:
        return _counter(tracer, COUNTED[full_name], raw)
    if full_name in TIMED:
        return _timed_counter(tracer, raw, *TIMED[full_name])
    return _span(tracer, full_name, raw, MEASURES.get(full_name))


def targets(layer: str, module) -> list[str]:
    """Qualified names traced in ``layer``: public functions plus ``EXTRA``."""
    public = [
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    ]
    return sorted(public) + list(EXTRA.get(layer, ()))


def instrument(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Install every wrapper; returns ``(owner, attribute, original)`` for ``restore``."""
    package = importlib.import_module("finitejj")
    modules = {layer: importlib.import_module(f"finitejj.{layer}") for layer in LAYERS}
    undo = []
    replaced = {}
    for layer, module in modules.items():
        for qualname in targets(layer, module):
            owner = module
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            wrapped = _wrap(tracer, f"{layer}.{qualname}", raw)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, raw))
            if owner is module:
                replaced[raw] = wrapped
    # Names imported elsewhere (``from .model import validity_min_pairs``)
    # still point at the original function object; rebind them too.
    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(module, attr, replaced[obj])
                undo.append((module, attr, obj))
    return undo


def restore(undo: list[tuple[object, str, object]]):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
