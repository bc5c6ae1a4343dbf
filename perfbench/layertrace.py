"""Per-layer tracing of qnetcap, done by wrapping its functions at run time.

The program is not edited.  ``Tracer.install`` rebinds each traced name in
every qnetcap module that binds it, because the modules import each
other's functions by name at import time (``qnetcap.entropic.partial_trace``
is ``qnetcap.qstate.partial_trace``, ``qnetcap.regions.linprog`` is scipy's).
``uninstall`` puts every original back, so untraced passes run the
unmodified program.

A span records name, start, end and the index of the span that caused it.
Spans stay in memory and are written out at the end of a run.  A span's
self time is its duration minus the durations of its child spans.
Counters are incremented at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

MODULES = ("qstate", "entropic", "channels", "regions", "network", "bosonic", "codesim")

# span name -> (defining module, attribute path)
SPANS = {
    "qstate.partial_trace": ("qstate", "partial_trace"),
    "entropic.entropy": ("entropic", "LabeledCqState.entropy"),
    "network.hsw_capacity": ("network", "hsw_capacity"),
    "network.vsi_check": ("network", "vsi_check"),
    "network.mac_region_union": ("network", "mac_region_union"),
    "regions.fm_project": ("regions", "fm_project"),
    "regions.linprog": ("regions", "linprog"),
    "regions.boundary_sample": ("regions", "boundary_sample"),
    "channels.povm": ("channels", "Povm.__init__"),
    "codesim.projector_set": ("codesim", "projector_set"),
    "codesim.square_root_measurement": ("codesim", "square_root_measurement"),
    "codesim.exact_error": ("codesim", "exact_error"),
    "codesim.hn_diagnostic": ("codesim", "hn_diagnostic"),
}
# every public entry point of the closed-form bosonic layer shares one span
BOSONIC = ("c_homodyne", "c_heterodyne", "c_holevo", "bosonic_vsi",
           "bosonic_si", "bosonic_hk_region", "params_from_json")
# counter name -> (defining module, attribute paths); one count per call
CALL_COUNTERS = {
    "qstate.density_matrix.calls": ("qstate", ("DensityMatrix.__init__",)),
    "entropic.cmi.calls": ("entropic", ("conditional_mutual_information",)),
    "network.holevo_evals": ("entropic", ("holevo_information",)),
    "network.state_builds": ("network", (
        "p2p_state", "mac_state", "cts_state", "hk_state", "cmg_state",
        "superposition_state", "marton_state", "relay_state")),
}
# modules whose numpy eigensolves are counted as "<module>.eigensolves"
EIG_MODULES = ("qstate", "entropic", "channels")
COMPLEX_BYTES = 16


class _Proxy:
    """Stands in for a module: given attributes override, the rest forward."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.spans = []
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            self.self_s[name] += dur - frame[1]
            if parent is not None:
                parent[1] += dur
            self.spans[frame[0]] = (name, t0, t1, parent[0] if parent else -1)

    def take(self):
        """Counters and raw self times since the last call; both are reset."""
        counts, self_s = dict(self.counts), dict(self.self_s)
        self.counts.clear()
        self.self_s.clear()
        return counts, self_s

    def merge(self, doc):
        """Fold in the counters, self times and spans a traced child wrote;
        the child's top-level spans become children of the current span."""
        for k, v in doc["counts"].items():
            self.counts[k] += v
        for k, v in doc["self_s"].items():
            self.self_s[k] += v
        base = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        for name, t0, t1, p in doc["spans"]:
            self.spans.append((name, t0, t1, p + base if p >= 0 else parent))

    def dump(self):
        counts, self_s = self.take()
        return {"counts": counts, "self_s": self_s, "spans": self.spans}

    def _span_wrapper(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _grid_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for point in fn(*args, **kwargs):
                self.counts["network.grid_points"] += 1
                yield point

        return wrapper

    def _minimize_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            self.counts["network.nelder_mead_evals"] += int(res.nfev)
            return res

        return wrapper

    def _after_projectors(self, projs):
        mats = 1 + len(projs.conditional)
        self.counts["codesim.dense_bytes"] += mats * projs.average.size * COMPLEX_BYTES

    def _after_srm(self, povm):
        self.counts["codesim.s_rank"] += int(povm.info["s_rank"])
        self.counts["codesim.dense_bytes"] += sum(
            e.size * COMPLEX_BYTES for e in povm.elements
        )

    # -- patching ----------------------------------------------------------

    def _set(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _patch(self, mods, module, path, make):
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(mods[module], owner_name)
            self._set(owner, attr, make(getattr(owner, attr)))
            return
        original = getattr(mods[module], attr)
        wrapped = make(original)
        for mod in mods.values():
            if getattr(mod, attr, None) is original:
                self._set(mod, attr, wrapped)

    def install(self):
        mods = {m: importlib.import_module("qnetcap." + m) for m in MODULES}
        after = {
            "codesim.projector_set": self._after_projectors,
            "codesim.square_root_measurement": self._after_srm,
        }
        for name, (module, path) in SPANS.items():
            self._patch(mods, module, path,
                        lambda fn, n=name: self._span_wrapper(n, fn, after.get(n)))
        for fn_name in BOSONIC:
            self._patch(mods, "bosonic", fn_name,
                        lambda fn: self._span_wrapper("bosonic", fn))
        for name, (module, paths) in CALL_COUNTERS.items():
            for path in paths:
                self._patch(mods, module, path,
                            lambda fn, n=name: self._count_wrapper(n, fn))
        self._patch(mods, "network", "simplex_grid", self._grid_wrapper)
        self._patch(mods, "network", "minimize", self._minimize_wrapper)
        for module in EIG_MODULES:
            np_real = mods[module].np
            counted = {
                f: self._count_wrapper(module + ".eigensolves", getattr(np_real.linalg, f))
                for f in ("eigvalsh", "eigh")
            }
            linalg = _Proxy(np_real.linalg, **counted)
            self._set(mods[module], "np", _Proxy(np_real, linalg=linalg))

    def uninstall(self):
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)
