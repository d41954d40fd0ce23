"""Per-layer spans and counters, recorded around the public calls of dforge.

Everything is installed from the benchmark's files: each target below is
replaced by a wrapper at every binding of it in the dforge modules (a name
imported into another module, such as `cli`'s `degree`, is wrapped there
too) or on its class.  A wrapper records one span: name, start, end and
parent span.  Spans are kept in flat arrays in memory and written out when
the run ends.  A span's self time is its duration minus the time covered by
its child spans.  End-to-end figures come only from untraced runs.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

# (module, class or None, attribute, metric label)
TARGETS = [
    ("fields", "PolyA", "__mul__", "PolyA.mul"),
    ("fields", "PolyA", "__divmod__", "PolyA.divmod"),
    ("fields", "PolyA", "gcd", "PolyA.gcd"),
    ("fields", "RatFunc", "make", "RatFunc.make"),
    ("extfield", "ExtFieldElem", "__mul__", "ExtFieldElem.mul"),
    ("extfield", "ExtFieldElem", "inverse", "ExtFieldElem.inverse"),
    ("extfield", "ExtFieldElem", "frob", "ExtFieldElem.frob"),
    ("skew", "SkewPoly", "__mul__", "SkewPoly.mul"),
    ("skew", None, "right_divmod", "right_divmod"),
    ("skew", None, "right_gcd", "right_gcd"),
    ("skew", None, "lclm", "lclm"),
    ("ideals", None, "factor_ideal", "factor_ideal"),
    ("ideals", None, "divisors_in_degree_order", "divisors_in_degree_order"),
    ("drinfeld", None, "certify_non_cm", "certify_non_cm"),
    ("drinfeld", None, "intertwiner_closure", "intertwiner_closure"),
    ("drinfeld", None, "linearized_roots_in_Q", "linearized_roots_in_Q"),
    ("isogeny", None, "verify_isogeny", "verify_isogeny"),
    ("isogeny", "Isogeny", "degree_parts", "Isogeny.degree_parts"),
    ("isogeny", None, "dual", "dual"),
    ("isogeny", None, "project_p", "project_p"),
    ("isogeny", None, "find_isogenies", "find_isogenies"),
    ("moduli", None, "al_apply", "al_apply"),
    ("moduli", None, "star_orbit", "star_orbit"),
    ("trees", None, "validate_orbit", "validate_orbit"),
    ("trees", None, "reconstruct_subtree", "reconstruct_subtree"),
    ("trees", None, "tree_center", "tree_center"),
    ("trees", None, "classify", "classify"),
    ("trees", None, "minimality_check", "minimality_check"),
    ("textform", None, "parse_skew", "parse_skew"),
    ("textform", None, "skew_to_text", "skew_to_text"),
    ("cli", None, "main", "main"),
]

# Spans that only feed derived counters; they get no metrics of their own.
_CACHE_CALL = ("drinfeld", "CertificateCache", "__call__", "CertificateCache.call")


class Tracer:
    def __init__(self):
        self.labels = [f"{m}.{lab}" for m, _, _, lab in TARGETS + [_CACHE_CALL]]
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.coeff_products = 0
        self.generator_calls = {}
        self.yielded = 0

    def reset(self):
        """Forget every span and counter, keeping the wrappers installed."""
        for buf in (self.names, self.parents, self.starts, self.ends):
            del buf[:]
        self.stack[:] = [-1]
        self.coeff_products = 0
        self.generator_calls = dict.fromkeys(self.generator_calls, 0)
        self.yielded = 0

    # -- wrappers ----------------------------------------------------------------

    def _span_wrapper(self, idx, fn, on_call=None):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            i = len(names)
            names.append(idx)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator_wrapper(self, idx, fn):
        """Calls count generator creations; each resumption is one span."""
        step = self._span_wrapper(idx, next)
        self.generator_calls[idx] = 0
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.generator_calls[idx] += 1
            return tracer._drive(step, fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def _drive(self, step, it):
        while True:
            try:
                value = step(it)
            except StopIteration:
                return
            self.yielded += 1
            yield value

    def _count_products(self, args):
        a, b = args[0], args[1]
        self.coeff_products += len(a.array) * (len(b.array) if hasattr(b, "array") else 1)

    # -- installation --------------------------------------------------------------

    def install(self):
        """Wrap every target at its class or at every module binding."""
        targets = TARGETS + [_CACHE_CALL]
        for modname, _, _, _ in targets:
            importlib.import_module(f"dforge.{modname}")
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "dforge" or n.startswith("dforge.")]
        for idx, (modname, clsname, attr, label) in enumerate(targets):
            mod = sys.modules[f"dforge.{modname}"]
            if clsname is not None:
                cls = getattr(mod, clsname)
                raw = cls.__dict__[attr]
                on_call = self._count_products if label == "PolyA.mul" else None
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._span_wrapper(idx, raw.__func__)))
                else:
                    setattr(cls, attr, self._span_wrapper(idx, raw, on_call))
                continue
            orig = getattr(mod, attr)
            if inspect.isgeneratorfunction(orig):
                wrapped = self._generator_wrapper(idx, orig)
            else:
                wrapped = self._span_wrapper(idx, orig)
            bound = 0
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"no binding of dforge.{modname}.{attr}")

    # -- results -------------------------------------------------------------------

    def _arrays(self):
        names = np.frombuffer(self.names, dtype=np.int32) if len(self.names) else np.zeros(0, np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32) if len(self.parents) else np.zeros(0, np.int32)
        starts = np.frombuffer(self.starts) if len(self.starts) else np.zeros(0)
        ends = np.frombuffer(self.ends) if len(self.ends) else np.zeros(0)
        return names, parents, starts, ends

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        names, parents, starts, ends = self._arrays()
        n_labels = len(self.labels)
        dur = ends - starts
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_time = dur - covered
        calls = np.bincount(names, minlength=n_labels)
        self_s = np.bincount(names, weights=self_time, minlength=n_labels)
        total_s = np.bincount(names, weights=dur, minlength=n_labels)
        out = {}
        for idx, (mod, _, _, label) in enumerate(TARGETS):
            count = self.generator_calls.get(idx, int(calls[idx]))
            out[f"{mod}.{label}.calls"] = (int(count), "count")
            out[f"{mod}.{label}.self_s"] = (float(self_s[idx]), "s")
        certify = [i for i, t in enumerate(TARGETS) if t[3] == "certify_non_cm"][0]
        cache = len(TARGETS)
        out["fields.PolyA.mul.coeff_products"] = (self.coeff_products, "count")
        out["ideals.divisors_in_degree_order.yielded"] = (self.yielded, "count")
        out["drinfeld.certify_non_cm.total_s"] = (float(total_s[certify]), "s")
        certify_parents = parents[(names == certify) & has_parent]
        missed = np.unique(certify_parents[names[certify_parents] == cache])
        cache_calls = int(calls[cache])
        out["drinfeld.CertificateCache.hits"] = (cache_calls - len(missed), "count")
        out["drinfeld.CertificateCache.misses"] = (len(missed), "count")
        return out

    def write(self, path):
        names, parents, starts, ends = self._arrays()
        np.savez(path, name=names, parent=parents, start=starts, end=ends,
                 labels=np.array(json.dumps(self.labels)))
