"""Span tracing of the cohodist package from outside, for the traced run.

:meth:`Tracer.install` wraps the public functions of each package module
(plus the few private kernels that other modules call directly, so their
time is charged to the right layer) and rebinds every module attribute
that refers to them, so a call through ``distance.maps_equal`` or
``cupring.cohomology`` is traced like a call through ``homology``.

Each call records a span: site (layer and function), parent span, start,
end and query.  Spans are kept in flat arrays in memory and written out
when the run ends; :func:`layer_metrics` turns them into per-layer self
times.  A layer's self time is the duration of its spans minus the time
covered by their child spans.

Layers are the package modules.  ``exactalg`` is split by backend:
``exactalg.gf2`` (bitset kernels), ``exactalg.field`` (``FieldSpan`` and
the dense field kernels, Q included) and ``exactalg.z`` (Smith normal
form and the integer kernels).  Ring-generic entry points are charged to
the backend of the ring they were called with.

The counters are recorded at the same wrapped boundaries, see
:data:`COUNTERS`.
"""

import functools
import inspect
import os
import pickle
import sys
import time
from array import array

MODULES = ("complexes", "exactalg", "homology", "cupring", "distance",
           "fileio", "cli")

LAYERS = ("complexes", "exactalg.gf2", "exactalg.field", "exactalg.z",
          "homology", "cupring", "distance", "fileio", "cli")

# module-level functions left unwrapped: per-label or per-ring-object
# helpers whose calls are too many and too small to time one by one
SKIP = {"label_key", "GF", "ring_from_code"}

# private kernels called across module boundaries or through ring dispatch
PRIVATE = {
    "exactalg": ("_gf2_quotient", "_field_quotient", "_z_quotient",
                 "_z_solve_with_snf", "_field_rank", "_field_kernel",
                 "_field_solve", "_field_image", "_z_kernel", "_z_image",
                 "_z_solve"),
}

# public methods that do the work of their layer
METHODS = {
    "complexes": {"SimplicialComplex": ("__init__",),
                  "Subcomplex": ("__init__",),
                  "SimplicialMap": ("__init__",)},
    "exactalg": {"Matrix": ("__mul__",),
                 "FieldSpan": ("add", "express", "contains"),
                 "Gf2Span": ("add", "express", "contains"),
                 "Presentation": ("coordinates",),
                 "Hom": ("compose", "is_iso")},
    "homology": {"GradedHom": ("is_iso",)},
    "cupring": {"CohomologyClass": ("coordinates",)},
}

# counter name -> what it counts
COUNTERS = {
    "distance.piece_evals": "calls of equality_obstruction (one per piece evaluated)",
    "distance.piece_passes": "piece evaluations with obstruction 0",
    "distance.covers_verified": "calls of verify",
    "complexes.complexes_built": "SimplicialComplex constructions",
    "complexes.simplices_built": "simplices over all constructed complexes",
    "exactalg.snf_calls": "calls of smith_normal_form",
    "exactalg.snf_cells": "sum of m*n over Smith normal form inputs",
    "exactalg.matmul_calls": "dense Matrix products",
    "exactalg.coordinates_calls": "Presentation.coordinates calls",
    "homology.chain_calls": "calls of chain_complex",
    "homology.chain_hits": "chain_complex calls returning an object seen before",
    "homology.module_calls": "calls of cohomology/homology",
    "homology.module_hits": "cohomology/homology calls returning an object seen before",
    "homology.map_checks": "calls of maps_equal and equality_obstruction",
    "homology.cochain_images": "calls of pullback_cochain and pushforward_chain",
    "cupring.cup_calls": "calls of cup",
    "cupring.cup_nonzero": "cup products that are nonzero classes",
    "fileio.bytes_read": "bytes of the files read by read_complex/read_cover/read_map",
}


def ring_layer(ring):
    if ring.kind == "Z":
        return "exactalg.z"
    if ring.kind == "GF" and ring.p == 2:
        return "exactalg.gf2"
    return "exactalg.field"


def _exactalg_layer(qualname):
    """Layer of an exactalg function: fixed by name, or by its ring argument."""
    base = qualname.split(".")[-1]
    if qualname.startswith("Gf2Span") or "gf2" in base:
        return "exactalg.gf2"
    if qualname.startswith("FieldSpan") or base.startswith("_field"):
        return "exactalg.field"
    if base == "smith_normal_form" or base.startswith("_z_"):
        return "exactalg.z"

    def by_ring(args):
        for a in args:
            ring = getattr(a, "ring", None)
            if ring is None and hasattr(a, "source"):
                ring = getattr(a.source, "ring", None)
            if ring is None and hasattr(a, "kind"):
                ring = a
            if ring is not None:
                return ring_layer(ring)
        return "exactalg.field"
    return by_ring


class Tracer:
    """Records spans and counters for every wrapped call."""

    def __init__(self):
        self.sites = []           # site id -> (layer, function)
        self._site_ids = {}
        self.site = array("i")    # per span: site id
        self.parent = array("i")  # per span: parent span index, -1 at top
        self.query = array("i")   # per span: query index
        self.start = array("d")
        self.end = array("d")
        self.queries = []         # query index -> query name
        self._query_id = -1
        self._stack = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.piece_evals_by_query = {}
        self._seen = set()
        self._keep = []           # keeps seen objects alive so ids stay unique
        self._cups = []
        self._undo = []

    # -- queries

    def begin_query(self, name):
        self.queries.append(name)
        self._query_id = len(self.queries) - 1
        self.piece_evals_by_query[name] = 0

    def end_query(self):
        self._query_id = -1

    # -- spans

    def _site_id(self, layer, qualname):
        key = (layer, qualname)
        sid = self._site_ids.get(key)
        if sid is None:
            sid = self._site_ids[key] = len(self.sites)
            self.sites.append(key)
        return sid

    def wrap(self, fn, layer, qualname, after=None):
        """``fn`` timed as a span; ``layer`` is a name or a function of args."""
        clock = time.perf_counter
        stack = self._stack
        fixed = None if callable(layer) else self._site_id(layer, qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = fixed if fixed is not None else tracer._site_id(layer(args), qualname)
            idx = len(tracer.start)
            tracer.site.append(sid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.query.append(tracer._query_id)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counting hooks, run after the span has ended

    def _count(self, name, n=1):
        self.counters[name] += n

    def _seen_before(self, obj):
        if id(obj) in self._seen:
            return True
        self._seen.add(id(obj))
        self._keep.append(obj)
        return False

    def _hooks(self):
        c = self._count

        def piece_eval(args, result):
            c("distance.piece_evals")
            c("homology.map_checks")
            if result == 0:
                c("distance.piece_passes")
            if self._query_id >= 0:
                self.piece_evals_by_query[self.queries[self._query_id]] += 1

        def chain(args, result):
            c("homology.chain_calls")
            if self._seen_before(result):
                c("homology.chain_hits")

        def module(args, result):
            c("homology.module_calls")
            if self._seen_before(result):
                c("homology.module_hits")

        def cup(args, result):
            c("cupring.cup_calls")
            self._cups.append(result)

        def snf(args, result):
            c("exactalg.snf_calls")
            c("exactalg.snf_cells", args[0].nrows * args[0].ncols)

        def built(args, result):
            c("complexes.complexes_built")
            c("complexes.simplices_built", len(args[0].simplices))

        def read(args, result):
            c("fileio.bytes_read", os.path.getsize(args[0]))

        return {
            ("distance", "verify"): lambda a, r: c("distance.covers_verified"),
            ("homology", "equality_obstruction"): piece_eval,
            ("homology", "maps_equal"): lambda a, r: c("homology.map_checks"),
            ("homology", "chain_complex"): chain,
            ("homology", "cohomology"): module,
            ("homology", "homology"): module,
            ("homology", "pullback_cochain"): lambda a, r: c("homology.cochain_images"),
            ("homology", "pushforward_chain"): lambda a, r: c("homology.cochain_images"),
            ("cupring", "cup"): cup,
            ("exactalg", "smith_normal_form"): snf,
            ("exactalg", "Matrix.__mul__"): lambda a, r: c("exactalg.matmul_calls"),
            ("exactalg", "Presentation.coordinates"):
                lambda a, r: c("exactalg.coordinates_calls"),
            ("complexes", "SimplicialComplex.__init__"): built,
            ("fileio", "read_complex"): read,
            ("fileio", "read_cover"): read,
            ("fileio", "read_map"): read,
        }

    # -- installing

    def install(self):
        """Wrap the package's functions and rebind every reference to them."""
        hooks = self._hooks()
        replaced = {}
        for short in MODULES:
            mod = sys.modules[f"cohodist.{short}"]
            names = [n for n, f in vars(mod).items()
                     if inspect.isfunction(f) and f.__module__ == mod.__name__
                     and not n.startswith("_") and n not in SKIP]
            names += PRIVATE.get(short, ())
            for name in names:
                fn = getattr(mod, name)
                layer = _exactalg_layer(name) if short == "exactalg" else short
                replaced[id(fn)] = (fn, self.wrap(fn, layer, name,
                                                  hooks.get((short, name))))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = vars(cls)[meth]
                    qualname = f"{cls_name}.{meth}"
                    layer = _exactalg_layer(qualname) if short == "exactalg" else short
                    self._undo.append((cls, meth, fn))
                    setattr(cls, meth, self.wrap(fn, layer, qualname,
                                                 hooks.get((short, qualname))))
        package_modules = [mod for name, mod in list(sys.modules.items())
                           if name == "cohodist" or name.startswith("cohodist.")]
        for mod in package_modules:
            for attr, value in list(vars(mod).items()):
                pair = replaced.get(id(value))
                if pair is not None and pair[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, pair[1])

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []

    def finish(self):
        """Stop tracing, then settle the counters that need finished results."""
        self.uninstall()
        self.counters["cupring.cup_nonzero"] = sum(
            1 for product in self._cups if not product.is_zero())
        self._cups = []

    def dump(self, path):
        with open(path, "wb") as fh:
            pickle.dump({
                "sites": self.sites,
                "site": self.site, "parent": self.parent, "query": self.query,
                "start": self.start, "end": self.end,
                "queries": self.queries,
                "counters": self.counters,
                "piece_evals_by_query": self.piece_evals_by_query,
            }, fh, protocol=pickle.HIGHEST_PROTOCOL)


# ---------------------------------------------------------------------------
# aggregation, in the driver


def load(path):
    """Spans written by :meth:`Tracer.dump` of a child this benchmark started."""
    with open(path, "rb") as fh:
        return pickle.load(fh)


def self_times(trace):
    """Self time per layer, in seconds."""
    start, end, parent, site = trace["start"], trace["end"], trace["parent"], trace["site"]
    covered = [0.0] * len(start)
    for i in range(len(start)):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
    out = dict.fromkeys(LAYERS, 0.0)
    layer_of = [layer for layer, _ in trace["sites"]]
    for i in range(len(start)):
        out[layer_of[site[i]]] += end[i] - start[i] - covered[i]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace):
    """The per-layer metrics of one traced pass, by name, as (value, unit)."""
    c = trace["counters"]
    s = self_times(trace)
    return {
        "distance.piece_evals": (c["distance.piece_evals"], "count"),
        "distance.piece_pass_ratio": (_ratio(c["distance.piece_passes"],
                                             c["distance.piece_evals"]), "ratio"),
        "distance.covers_verified": (c["distance.covers_verified"], "count"),
        "distance.self_s": (s["distance"], "s"),
        "complexes.complexes_built": (c["complexes.complexes_built"], "count"),
        "complexes.simplices_built": (c["complexes.simplices_built"], "count"),
        "complexes.self_s": (s["complexes"], "s"),
        "exactalg.field.self_s": (s["exactalg.field"], "s"),
        "exactalg.z.self_s": (s["exactalg.z"], "s"),
        "exactalg.gf2.self_s": (s["exactalg.gf2"], "s"),
        "exactalg.snf_calls": (c["exactalg.snf_calls"], "count"),
        "exactalg.snf_cells": (c["exactalg.snf_cells"], "count"),
        "exactalg.matmul_calls": (c["exactalg.matmul_calls"], "count"),
        "exactalg.coordinates_calls": (c["exactalg.coordinates_calls"], "count"),
        "homology.self_s": (s["homology"], "s"),
        "homology.modules_built": (c["homology.module_calls"]
                                   - c["homology.module_hits"], "count"),
        "homology.module_hit_ratio": (_ratio(c["homology.module_hits"],
                                             c["homology.module_calls"]), "ratio"),
        "homology.chain_hit_ratio": (_ratio(c["homology.chain_hits"],
                                            c["homology.chain_calls"]), "ratio"),
        "homology.map_checks": (c["homology.map_checks"], "count"),
        "homology.cochain_images": (c["homology.cochain_images"], "count"),
        "cupring.self_s": (s["cupring"], "s"),
        "cupring.cup_calls": (c["cupring.cup_calls"], "count"),
        "cupring.nonzero_ratio": (_ratio(c["cupring.cup_nonzero"],
                                         c["cupring.cup_calls"]), "ratio"),
        "cli.self_s": (s["cli"], "s"),
        "fileio.self_s": (s["fileio"], "s"),
        "fileio.bytes_read": (c["fileio.bytes_read"], "count"),
    }
