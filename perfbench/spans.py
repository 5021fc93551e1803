"""Spans around the public functions of each xxzdroplet module.

The tracer lives in the benchmark, outside the library: it replaces each
listed function with a timing wrapper at every module attribute that
holds it, so ``xxzdroplet.cli.build_reduced_kernel`` and
``xxzdroplet.operators.build_reduced_kernel`` both record an
``operators`` span.  Spans are kept in memory; counts are read from the
objects the calls return.  A listed name the package no longer has is
reported as unbound.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import asdict, dataclass, field

PACKAGE = "xxzdroplet"

# layer (module) -> public functions wrapped in it
LAYERS = {
    "sector_basis": ("enumerate_sector", "enumerate_gap_domain", "momentum_orbits"),
    "operators": (
        "build_sector_hamiltonian", "build_momentum_block",
        "build_reduced_kernel", "matvec",
    ),
    "brackets": (
        "enumerate_brackets", "build_R", "build_hw_matrix", "tl_matrix",
        "su_q_generators",
    ),
    "bethe": (
        "xi_factors", "bethe_energy", "minimum_energy", "alternate_closed_form",
        "bethe_vector", "certify_eigenpair",
    ),
    "spectra": (
        "dense_spectrum", "lanczos_lowest", "generalized_lowest",
        "spectral_radius", "pf_check", "wielandt_check", "fit_limit",
    ),
    "cli": (
        "main", "sector_records", "hw_records", "dispersion_records",
        "scan_records", "hw_gram_lowest", "records_to_csv", "records_to_json",
    ),
}
EMIT = ("records_to_csv", "records_to_json")
DENSE_METHODS = ("dense", "lanczos-dense-fallback", "generalized-cholesky")

MIB = 1024.0 * 1024.0


@dataclass
class Span:
    layer: str
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)


def _operator(obj):
    """The sparse operator inside a builder's return value, if any."""
    if isinstance(obj, tuple):
        obj = obj[0] if obj else None
    obj = getattr(obj, "op", obj)
    return obj if hasattr(obj, "nnz") and hasattr(obj, "dim") else None


def _dim(obj) -> int:
    if hasattr(obj, "dim"):
        return int(obj.dim)
    return int(getattr(obj, "shape", (0,))[0])


def _counts(layer: str, name: str, first, result) -> dict:
    if layer == "sector_basis":
        return {"states": len(result)}
    if layer == "operators":
        op = _operator(result)
        return {"rows": op.dim, "nnz": op.nnz} if op is not None else {}
    if layer == "brackets":
        if name == "build_R":
            return {"hw_states": int(result[0].shape[1])}
        if name == "build_hw_matrix":
            return {"hw_states": len(result[1])}
        if name == "enumerate_brackets":
            return {"hw_states": len(result)}
        return {}
    if layer == "bethe" and name == "certify_eigenpair":
        return {"certify": 1, "certified": int(bool(result.passed))}
    if layer == "spectra" and hasattr(result, "method"):
        dim = _dim(first)
        if result.method == "lanczos":
            itemsize = first.matrix.dtype.itemsize
            iterations = int(result.iterations or 0)
            return {
                "lanczos": 1,
                "iterations": iterations,
                "krylov_mib": iterations * dim * itemsize / MIB,
            }
        if result.method in DENSE_METHODS:
            return {"dense": 1, "dense_dim": dim}
    return {}


class Tracer:
    """Wraps the listed functions and records one span per call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unbound: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        modules = {
            layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        }
        namespaces = [
            mod for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for layer, names in LAYERS.items():
            for name in names:
                original = getattr(modules[layer], name, None)
                if not callable(original):
                    self.unbound.append(f"{layer}.{name}")
                    continue
                wrapped = self._wrap(layer, name, original)
                for mod in namespaces:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(layer, name, stack[-1] if stack else None, 0.0)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            first = args[0] if args else next(iter(kwargs.values()), None)
            try:
                span.counts = _counts(layer, name, first, result)
            except (AttributeError, TypeError, IndexError):
                # a return type the counts do not know; the span still times
                span.counts = {}
            return result

        return wrapper

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer self time, calls and counts from a list of span records.

    Self time is a span's duration minus its direct children's.  Calls
    and counts come from the outermost span of each layer only (a span
    whose parent lies in another layer), so nested calls inside one
    module are not counted twice.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
        m[f"{layer}.calls"] = 0
    totals: dict[str, float] = {}
    krylov = 0.0
    dense_dim = 0
    emit = 0.0
    for i, s in enumerate(spans):
        layer = s["layer"]
        m[f"{layer}.self_s"] += (s["end"] - s["start"]) - child[i]
        if layer == "cli" and s["name"] in EMIT:
            emit += s["end"] - s["start"]
        parent = s["parent"]
        if parent is not None and spans[parent]["layer"] == layer:
            continue
        m[f"{layer}.calls"] += 1
        if layer == "spectra" and s["error"] is not None:
            totals["spectra.failures"] = totals.get("spectra.failures", 0) + 1
        for key, value in s["counts"].items():
            if key == "krylov_mib":
                krylov = max(krylov, value)
            elif key == "dense_dim":
                dense_dim = max(dense_dim, value)
            else:
                totals[f"{layer}.{key}"] = totals.get(f"{layer}.{key}", 0) + value

    rows = totals.get("operators.rows", 0)
    certify = totals.get("bethe.certify", 0)
    m.update({
        "sector_basis.states": totals.get("sector_basis.states", 0),
        "operators.rows": rows,
        "operators.nnz": totals.get("operators.nnz", 0),
        "operators.us_per_row": 1e6 * m["operators.self_s"] / rows if rows else 0.0,
        "brackets.hw_states": totals.get("brackets.hw_states", 0),
        "bethe.certified_frac": (
            totals.get("bethe.certified", 0) / certify if certify else 0.0
        ),
        "spectra.dense_calls": totals.get("spectra.dense", 0),
        "spectra.lanczos_calls": totals.get("spectra.lanczos", 0),
        "spectra.lanczos_iterations": totals.get("spectra.iterations", 0),
        "spectra.dense_max_dim": dense_dim,
        "spectra.krylov_mib": krylov,
        "spectra.failures": totals.get("spectra.failures", 0),
        "cli.emit_s": emit,
    })
    return m
