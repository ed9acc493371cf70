"""Per-layer tracing of spherindex, applied from outside the package.

``Tracer.install`` wraps every public function of the eight layer modules
and every public method of their classes at each place it is bound: the
defining module, every module that imported the name (``from .linalg
import dot`` in ``index`` and the lazy imports inside functions, which read
the defining module at call time) and the class dictionary.  Each call
records a span (name, start, end, parent span, job id) in flat in-memory
arrays; ``uninstall`` puts every original binding back, so untimed and
timed code paths are the unwrapped program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array

PACKAGE = "spherindex"
LAYERS = ("cli", "datum", "index", "rootsys", "linalg", "restrict", "fans", "degeneration")
# private helpers wrapped as well, because a layer metric needs them:
# cli._load is the file read and JSON parse of every job
EXTRA = {"cli": ("_load",)}

# layer metrics that sum the self time of several functions
GROUPS = {
    "cli.parse": ("cli._load", "cli.parse_index", "cli.parse_datum", "cli.parse_fan"),
    "cli.emit": ("cli.emit", "cli.ser"),
    "restrict.checks": (
        "restrict.coweight_identity_check",
        "restrict.chamber_containment_check",
        "restrict.facet_inheritance_check",
        "restrict.predicates",
    ),
}


def _package_modules() -> list:
    importlib.import_module(f"{PACKAGE}.cli")  # imports every layer
    return [m for name, m in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def public_callables() -> dict[object, tuple[str, object, str]]:
    """Functions to wrap: original -> (span name, owner class or None, attr)."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and (not attr.startswith("_") or attr in EXTRA.get(layer, ())):
                out[obj] = (f"{layer}.{attr}", None, attr)
            elif inspect.isclass(obj):
                for mname, raw in vars(obj).items():
                    func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                    if not mname.startswith("_") and inspect.isfunction(func):
                        out[raw] = (f"{layer}.{obj.__name__}.{mname}", obj, mname)
    return out


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.job_id: array = array("i")
        self.returned: array = array("b")  # 1 when the call returned non-None
        self.job = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        job_id, returned, stack = self.job_id, self.returned, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            job_id.append(self.job)
            returned.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if result is not None:
                returned[idx] = 1
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = public_callables()
        wrapped = {}
        for raw, (name, owner, attr) in targets.items():
            if owner is None:
                wrapped[raw] = self._wrap(raw, name)
            else:
                kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
                fn = self._wrap(raw.__func__ if kind else raw, name)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, kind(fn) if kind else fn)
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per function: calls, self seconds and calls that returned a value."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        table = {name: {"calls": 0, "self_s": 0.0, "returned": 0} for name in self.names}
        for i in range(n):
            row = table[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["self_s"] += end[i] - start[i] - child[i]
            row["returned"] += self.returned[i]
        return table

    def write(self, path: str) -> None:
        """Spans as one JSON header line followed by the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self),
            "arrays": ["name_id:i", "start:d", "end:d", "parent:i", "job_id:i", "returned:b"],
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_id, self.start, self.end, self.parent, self.job_id, self.returned):
                arr.tofile(fh)


# functions whose call count and self time are layer metrics
FUNCTIONS = (
    "index.res_A",
    "index.split_subspace",
    "index.restricted_root_system",
    "rootsys.AmbientRootDatum.form",
    "rootsys.positive_roots_in_base_coords",
    "rootsys.generate_roots",
    "rootsys.classify",
    "linalg.find_feasible",
    "linalg.rref",
    "linalg.hermite_normal_form",
    "linalg.integer_kernel",
    "linalg.smith_normal_form",
    "fans.fan_validate",
    "fans.strata",
    "fans.is_complete_for",
    "fans.is_smooth",
    "datum.validate",
    "restrict.restrict_datum",
    "restrict.phi_k_res",
    "degeneration.build_degeneration",
    "degeneration.degeneration_fiber_data",
)


def layer_metrics(table: dict[str, dict[str, float]]) -> dict[str, float]:
    """Every per-layer metric the traced run prints, from a layer table."""

    def total(key, names):
        return sum(table.get(n, {}).get(key, 0) for n in names)

    groups = {name: (name,) for name in FUNCTIONS} | GROUPS
    out = {}
    for group, names in groups.items():
        out[f"{group}.calls"] = total("calls", names)
        out[f"{group}.self_s"] = total("self_s", names)
    feasible = table.get("linalg.find_feasible", {})
    # LPs that found a separator over LPs run; no LP run reads as 0
    out["linalg.find_feasible.feasible_ratio"] = (
        feasible["returned"] / feasible["calls"] if feasible.get("calls") else 0.0
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = total("self_s", [n for n in table if n.split(".")[0] == layer])
    out["trace.spans"] = total("calls", table)
    return out
