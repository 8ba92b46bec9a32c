"""Spans around the package's public calls, and the per-layer metrics they give.

``Tracer.install`` replaces the public functions of ``lie``, ``fusion``,
``modular``, ``currents``, ``groups`` and ``catfile`` with wrappers that
record one span per call: name, start, end, parent and a size.  The package
calls these functions through module attributes, so calls made inside the
package are traced too.  Spans are kept in flat arrays in memory and written
out by ``dump`` at the end of a run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from array import array
from time import perf_counter

MB = 1e6


def _n(args, result):
    return args[0].size


def _len(args, result):
    return len(result)


def _file_bytes(args, result):
    return os.path.getsize(args[0])


# (module, function, size of one call).  A size counts work done by the call.
WRAPPED = (
    ("lie", "weight_multiplicities", _len),
    ("lie", "fusion_coefficients", None),
    ("lie", "weyl_dimension", None),
    ("lie", "conformal_weight", None),
    ("lie", "quantum_dimension", None),
    ("modular", "build_wzw_data", None),
    ("modular", "validate", None),
    ("modular", "check_modular_grading", None),
    ("modular", "grading", None),
    ("fusion", "axiom_violation", _n),
    ("fusion", "invertibles", None),
    ("fusion", "fuse_permutation", None),
    ("catfile", "save_category", _file_bytes),
    ("catfile", "load_category", _file_bytes),
    ("currents", "profile", None),
    ("currents", "construct_autoeq", None),
    ("currents", "compose", None),
    ("currents", "commute_test", None),
    ("currents", "generated_group", None),
    ("groups", "close_under_composition", _len),
    ("groups", "isomorphism_type", None),
)

# metric -> spans whose self time it sums
SELF_TIME = {
    "lie.diagrams_s": ("lie.weight_multiplicities",),
    "lie.fold_s": ("lie.fusion_coefficients",),
    "lie.weyl_dimension_s": ("lie.weyl_dimension",),
    "lie.constants_s": ("lie.conformal_weight", "lie.quantum_dimension"),
    "fusion.axioms_s": ("fusion.axiom_violation",),
    "modular.checks_s": ("modular.validate", "modular.check_modular_grading"),
    "catfile.save_s": ("catfile.save_category",),
    "catfile.load_s": ("catfile.load_category",),
    "fusion.invertibles_s": ("fusion.invertibles",),
    "fusion.fuse_permutation_s": ("fusion.fuse_permutation",),
    "currents.profile_s": ("currents.profile",),
    "currents.construct_s": ("currents.construct_autoeq",),
    "currents.compose_s": ("currents.compose",),
    "currents.commute_s": ("currents.commute_test",),
    "currents.group_s": ("currents.generated_group",),
    "modular.grading_s": ("modular.grading",),
    "groups.closure_s": ("groups.close_under_composition",),
    "groups.iso_type_s": ("groups.isomorphism_type",),
}
# metric -> span whose calls it counts
CALLS = {
    "lie.fold.pairs": "lie.fusion_coefficients",
    "lie.weyl_dimension.calls": "lie.weyl_dimension",
    "fusion.axioms.calls": "fusion.axiom_violation",
    "fusion.fuse_permutation.calls": "fusion.fuse_permutation",
    "currents.autoeqs": "currents.construct_autoeq",
    "currents.compose.calls": "currents.compose",
    "currents.commute.calls": "currents.commute_test",
}
# metric -> span whose sizes it sums
SIZES = {
    "catfile.bytes_written": "catfile.save_category",
    "catfile.bytes_read": "catfile.load_category",
    "groups.elements": "groups.close_under_composition",
}

UNITS = {
    **{name: "s" for name in SELF_TIME},
    "modular.build_s": "s",
    **{name: "count" for name in CALLS},
    "lie.diagrams.misses": "count",
    "lie.diagrams.weights": "count",
    "lie.fold.terms": "count",
    "fusion.axioms.mb": "MB",
    "catfile.bytes_written": "bytes",
    "catfile.bytes_read": "bytes",
    "groups.elements": "count",
}


class Tracer:
    """Records spans; ``install``/``uninstall`` put the wrappers in and out."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.size = array("q")
        self.missed = array("b")     # 1 when a cached function computed its result
        self._open: list[int] = [-1]
        self._saved: list[tuple] = []

    def enter(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._open[-1])
        self.size.append(0)
        self.missed.append(0)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(perf_counter())
        return i

    def leave(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, size=None):
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            i = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(i)
            if cache_info:
                self.missed[i] = cache_info().misses != misses
            if size is not None:
                self.size[i] = size(args, result)
            return result
        return traced

    def install(self, modules) -> None:
        """Wrap the functions in WRAPPED, given the package's modules."""
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for mod_name, fn_name, size in WRAPPED:
            mod = by_name.get(mod_name)
            fn = getattr(mod, fn_name, None)
            if fn is None:  # its metrics read 0 rather than the run failing
                print(f"warning: {mod_name}.{fn_name} not found, not traced", file=sys.stderr)
                continue
            self._saved.append((mod, fn_name, fn))
            setattr(mod, fn_name, self.wrap(f"{mod_name}.{fn_name}", fn, size))

    def uninstall(self) -> None:
        while self._saved:
            mod, fn_name, fn = self._saved.pop()
            setattr(mod, fn_name, fn)

    def metrics(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded in [lo, hi)."""
        self_time = [self.end[i] - self.start[i] for i in range(lo, hi)]
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                self_time[p - lo] -= self.end[i] - self.start[i]
        out = {name: 0 if unit in ("count", "bytes") else 0.0 for name, unit in UNITS.items()}
        by_name = {name: metric for metric, names in SELF_TIME.items() for name in names}
        calls = {span: metric for metric, span in CALLS.items()}
        sizes = {span: metric for metric, span in SIZES.items()}
        for i in range(lo, hi):
            name = self.names[i]
            if name in by_name:
                out[by_name[name]] += self_time[i - lo]
            if name in calls:
                out[calls[name]] += 1
            if name in sizes:
                out[sizes[name]] += self.size[i]
            if name == "modular.build_wzw_data":
                out["modular.build_s"] += self.end[i] - self.start[i]
            elif name == "lie.weight_multiplicities":
                out["lie.diagrams.misses"] += self.missed[i]
                out["lie.diagrams.weights"] += self.size[i] * self.missed[i]
                p = self.parent[i]
                if p >= 0 and self.names[p] == "lie.fusion_coefficients":
                    out["lie.fold.terms"] += self.size[i]
            elif name == "fusion.axiom_violation":
                out["fusion.axioms.mb"] = max(out["fusion.axioms.mb"],
                                              2 * 8 * self.size[i] ** 4 / MB)
        return out

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent, size, missed]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "size", "missed"],
                       "spans": [[self.names[i], self.start[i], self.end[i], self.parent[i],
                                  self.size[i], self.missed[i]] for i in range(len(self.names))]},
                      fh, separators=(",", ":"))
