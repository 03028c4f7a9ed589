"""Span recorder for the traced run.

The tracer wraps public zenopath functions at the names each layer calls
through (module attributes), records one span per call (name, layer, start,
end, parent) and a few argument-derived annotations, and restores every
patched attribute on exit.  Nothing inside `src/` is modified on disk; the
patches live only in the benchmark process (or in one traced CLI child).

Spans stay in memory and are reduced to per-layer metrics by `layer_metrics`.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager

LAYERS = ("cli", "qcore", "halfline", "histories", "arrival")

# Wrapped in addition to the names zenopath.cli imports from each layer.
EXTRA_NAMES = {
    "qcore": ("zeno_product", "evolve", "pdx_assemble",
              "decoherence_functional", "zeno_limit_richardson",
              "restricted_limit"),
    "halfline": ("halfline_eigensystem", "restricted_propagate",
                 "line_pdx_terms", "grid_zeno_product",
                 "spectral_evolve_line"),
    "histories": ("restricted_propagate", "spectral_evolve_line",
                  "class_amplitudes", "direct_sum_evolve",
                  "beta_condition_scan"),
    "arrival": ("kijowski_density", "current_density_at_origin",
                "converged_density"),
}


def _layer_of(fn) -> str | None:
    mod = getattr(fn, "__module__", "") or ""
    if not mod.startswith("zenopath."):
        return None
    layer = mod.split(".")[1]
    return layer if layer in LAYERS else None


class Tracer:
    """In-memory spans plus the eigensystem cache counters."""

    def __init__(self):
        # span: [name, layer, start, end, parent_index, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.active = False      # wrappers record only while an op runs
        self.eig_hits = 0
        self.eig_misses = 0
        self.eig_held_bytes = 0
        self.eig_peak_bytes = 0

    # -- recording -------------------------------------------------------
    def _open(self, name: str, layer: str, attrs: dict | None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent,
                           attrs or {}])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        idx = self._open(name, layer, attrs)
        try:
            yield self.spans[idx][5]
        finally:
            self._close(idx)

    def reset_eig_cache(self) -> None:
        """The harness cleared the eigensystem cache: nothing is held."""
        self.eig_held_bytes = 0

    # -- wrapping --------------------------------------------------------
    def _wrap(self, fn, via: str):
        layer = _layer_of(fn)
        base = f"{layer}.{fn.__name__}"
        tracer = self

        if fn.__name__ == "halfline_eigensystem":
            info = getattr(fn, "cache_info", None)

            @functools.wraps(fn)
            def eig_wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                before = info().misses if info else None
                idx = tracer._open(base, layer, {"via": via})
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                missed = before is None or info().misses > before
                if missed:
                    tracer.eig_misses += 1
                    tracer.eig_held_bytes += sum(int(a.nbytes) for a in out)
                    tracer.eig_peak_bytes = max(tracer.eig_peak_bytes,
                                                tracer.eig_held_bytes)
                else:
                    tracer.eig_hits += 1
                return out

            for attr in ("cache_info", "cache_clear"):
                if hasattr(fn, attr):
                    setattr(eig_wrapper, attr, getattr(fn, attr))
            return eig_wrapper

        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name, attrs = base, {"via": via}
            if fn.__name__ in ("restricted_propagate",
                               "kijowski_density",
                               "current_density_at_origin"):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                if fn.__name__ == "restricted_propagate":
                    name = f"{base}.{a['method']}"
                else:
                    attrs["n_t"] = len(a["t_grid"])
                    attrs["n_p"] = int(a["state"].p.size)
            idx = tracer._open(name, layer, attrs)
            try:
                out = fn(*args, **kwargs)
                if fn.__name__ == "converged_density":
                    attrs["kept"] = int(out.t.size)
                return out
            finally:
                tracer._close(idx)

        return wrapper

    def _patch(self, module, attr: str, via: str) -> None:
        fn = getattr(module, attr, None)
        if fn is None or not callable(fn) or inspect.isclass(fn):
            return
        if _layer_of(fn) is None:
            return
        self._patched.append((module, attr, fn))
        setattr(module, attr, self._wrap(fn, via))

    def install(self) -> None:
        """Patch the call-through names of every layer."""
        import zenopath.cli as cli
        modules = {"cli": cli}
        for layer in LAYERS[1:]:
            modules[layer] = __import__(f"zenopath.{layer}",
                                        fromlist=["_"])
        for attr, obj in list(vars(cli).items()):
            if inspect.isfunction(obj) and _layer_of(obj) not in (None, "cli"):
                self._patch(cli, attr, "cli")
        for layer, names in EXTRA_NAMES.items():
            for attr in names:
                self._patch(modules[layer], attr, layer)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- serialisation (for traced CLI children) -------------------------
    def dump(self) -> dict:
        return {"spans": self.spans, "eig_hits": self.eig_hits,
                "eig_misses": self.eig_misses,
                "eig_peak_bytes": self.eig_peak_bytes}

    def merge(self, doc: dict) -> None:
        offset = len(self.spans)
        for name, layer, start, end, parent, attrs in doc["spans"]:
            self.spans.append([name, layer, start, end,
                               parent + offset if parent >= 0 else -1, attrs])
        self.eig_hits += doc["eig_hits"]
        self.eig_misses += doc["eig_misses"]
        self.eig_peak_bytes = max(self.eig_peak_bytes, doc["eig_peak_bytes"])


def _ancestors(spans, idx):
    parent = spans[idx][4]
    while parent >= 0:
        yield spans[parent]
        parent = spans[parent][4]


def layer_metrics(tracer: Tracer, n_ops: int, rows: int) -> dict[str, float]:
    """Reduce spans to the per-layer metrics.

    Times are seconds per traced op (outermost span of each name only, so a
    recursive or re-entrant call is not counted twice); counts are totals
    over the traced op list.
    """
    spans = tracer.spans
    per_op = 1.0 / max(n_ops, 1)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child_time[s[4]] += s[3] - s[2]

    def outer(name):
        return [s for i, s in enumerate(spans)
                if s[0] == name and all(a[0] != name
                                        for a in _ancestors(spans, i))]

    def secs(name):
        return sum(s[3] - s[2] for s in outer(name)) * per_op

    def count(name, via=None):
        return sum(1 for s in spans if s[0] == name
                   and (via is None or s[5].get("via") in via))

    m: dict[str, float] = {}
    for part in ("config", "compute", "render", "write"):
        m[f"cli.{part}_s"] = secs(f"cli.{part}")
    # a traced CLI process has one cli.main span; what it spends outside
    # config, compute and render is its write
    m["cli.write_s"] += sum(s[3] - s[2] - child_time[i]
                            for i, s in enumerate(spans)
                            if s[0] == "cli.main") * per_op

    m["qcore.zeno_product_s"] = secs("qcore.zeno_product")
    m["qcore.zeno_product_calls"] = count("qcore.zeno_product")
    m["qcore.pdx_assemble_s"] = secs("qcore.pdx_assemble")
    m["qcore.pdx_assemble_calls"] = count("qcore.pdx_assemble")
    m["qcore.decoherence_functional_s"] = secs("qcore.decoherence_functional")
    m["qcore.evolve_calls"] = count("qcore.evolve")

    m["halfline.eigensystem_s"] = secs("halfline.halfline_eigensystem")
    m["halfline.eig_cache_misses"] = tracer.eig_misses
    m["halfline.eig_cache_hits"] = tracer.eig_hits
    m["halfline.eig_cache_bytes"] = tracer.eig_peak_bytes
    m["halfline.restricted_propagate_s.eig"] = secs(
        "halfline.restricted_propagate.eig")
    m["halfline.restricted_propagate_s.images"] = secs(
        "halfline.restricted_propagate.images")
    m["halfline.line_pdx_terms_s"] = secs("halfline.line_pdx_terms")
    m["halfline.grid_zeno_product_s"] = secs("halfline.grid_zeno_product")
    m["halfline.spectral_evolve_line_calls"] = count(
        "halfline.spectral_evolve_line")

    dse_calls = count("histories.direct_sum_evolve")
    free_calls = count("halfline.spectral_evolve_line",
                       via=("cli", "histories"))
    m["histories.class_amplitudes_s"] = secs("histories.class_amplitudes")
    m["histories.direct_sum_evolve_s"] = secs("histories.direct_sum_evolve")
    m["histories.direct_sum_evolve_calls"] = dse_calls
    m["histories.rows"] = rows
    m["histories.evolutions_per_row"] = ((dse_calls + free_calls) / rows
                                         if rows else 0.0)
    m["histories.beta_condition_scan_s"] = secs(
        "histories.beta_condition_scan")

    rounds = [s for i, s in enumerate(spans)
              if s[0] == "arrival.kijowski_density"
              and any(a[0] == "arrival.converged_density"
                      for a in _ancestors(spans, i))]
    evaluated = sum(s[5]["n_t"] for s in rounds)
    kept = sum(s[5].get("kept", 0) for s in spans
               if s[0] == "arrival.converged_density")
    phase = sum(s[5]["n_t"] * s[5]["n_p"] * 2 for s in spans
                if s[0] in ("arrival.kijowski_density",
                            "arrival.current_density_at_origin"))
    m["arrival.converged_density_s"] = secs("arrival.converged_density")
    m["arrival.kijowski_density_s"] = secs("arrival.kijowski_density")
    m["arrival.current_density_s"] = secs("arrival.current_density_at_origin")
    m["arrival.widen_rounds"] = len(rounds)
    m["arrival.samples_evaluated"] = evaluated
    m["arrival.samples_kept"] = kept
    m["arrival.useful_sample_ratio"] = kept / evaluated if evaluated else 0.0
    m["arrival.phase_entries"] = phase

    self_time = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        self_time[s[1]] += (s[3] - s[2]) - child_time[i]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer] * per_op
    return m
