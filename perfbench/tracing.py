"""Per-layer tracing of the program from outside.

For the traced phase only, each layer function is replaced by a wrapper at
its definition and at every ``biquadric`` module namespace that imported it;
methods are wrapped on their class.  No file of the program changes.  Each
wrapper counts calls and adds its span's self time (the span's duration minus
the spans it caused) to totals kept in memory.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# The layers the per-layer metrics are named after: (name, module, attribute).
LAYERS = (
    ("scalars.nf_mul", "biquadric.scalars", "NumberFieldElement.__mul__"),
    ("scalars.nf_inverse", "biquadric.scalars", "NumberFieldElement.inverse"),
    ("factorizer.bihomogeneous_factor", "biquadric.factorizer", "bihomogeneous_factor"),
    ("factorizer.sympy_factor_list", "sympy", "factor_list"),
    ("singularity.singular_locus", "biquadric.singularity", "singular_locus"),
    ("fibration.binform_roots", "biquadric.fibration", "BinForm.roots"),
    ("singularity.classify_local", "biquadric.singularity", "classify_local"),
    ("classifier.check_semistability_conditions", "biquadric.classifier",
     "check_semistability_conditions"),
    ("classifier.check_stability_conditions", "biquadric.classifier",
     "check_stability_conditions"),
    ("classifier.classify_reducible", "biquadric.classifier", "classify_reducible"),
    ("classifier.normalize_frame", "biquadric.classifier", "normalize_frame"),
    ("fibration.contracted_sections", "biquadric.fibration", "contracted_sections"),
    ("fibration.phi_sigma_constant", "biquadric.fibration", "phi_sigma_constant"),
    ("classifier.cert_verify", "biquadric.classifier", "Certificate.verify"),
    ("oneps.mu", "biquadric.oneps", "mu"),
    ("boundary.minimal_orbit_limit", "biquadric.boundary", "minimal_orbit_limit"),
    ("boundary.stratum_of", "biquadric.boundary", "stratum_of"),
    ("bipoly.act", "biquadric.bipoly", "act"),
    ("weightlp.find_destabilizing_weight", "biquadric.weightlp",
     "find_destabilizing_weight"),
)

# The rest of an operation, traced so that self times add up to it.  The
# operation's own span, ROOT, keeps what no other span covers.
GLUE = (
    ("bipoly.parse", "biquadric.bipoly", "parse"),
    ("classifier.classify", "biquadric.classifier", "classify"),
    ("classifier.random_destabilize_search", "biquadric.classifier",
     "random_destabilize_search"),
)
ROOT = "cli.run"

SEARCH = "classifier.random_destabilize_search"
WEIGHT_LP = "weightlp.find_destabilizing_weight"


class Tracer:
    """Finds where each layer is bound, wraps it there while installed, and
    aggregates what the wrappers record.  A layer the program no longer has
    raises LookupError, so that a change that moves or renames a layer
    updates LAYERS rather than reading as a layer never called."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        # One [name, time spent in child spans] entry per open span.
        self._stack = []
        self.nf_degree_max = 0
        self.isolated_points = 0
        self.lp_feasible = 0
        self.search_trials = 0
        self.search_hits = 0
        self._observe = self._observers()
        # (namespace, key, original, wrapper) for every site a layer is bound at.
        self._sites = []
        self._find_sites()

    def wrap(self, name, fn):
        """``fn`` with a span named ``name`` around each call."""
        calls, self_s, stack = self.calls, self.self_s, self._stack
        observe = self._observe.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[name] += dt - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dt
            if observe is not None:
                observe(parent, args, kwargs, result)
            return result

        return traced

    def _observers(self):
        """Per-layer hooks that read a call's arguments or result."""
        def nf_mul(_parent, args, _kwargs, _result):
            self.nf_degree_max = max(self.nf_degree_max, len(args[0].modulus) - 1)

        def singular_locus(_parent, _args, _kwargs, result):
            self.isolated_points += len(result.isolated_points)

        def weight_lp(parent, args, kwargs, result):
            self.lp_feasible += result is not None
            strict = kwargs.get("strict", args[1] if len(args) > 1 else None)
            # Each trial of the search first asks for a strict weight.
            if parent == SEARCH and strict:
                self.search_trials += 1

        def search(_parent, _args, _kwargs, result):
            self.search_hits += result is not None

        return {
            "scalars.nf_mul": nf_mul,
            "singularity.singular_locus": singular_locus,
            WEIGHT_LP: weight_lp,
            SEARCH: search,
        }

    def _find_sites(self):
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("biquadric")]
        for name, module_name, attr in LAYERS + GLUE:
            owner = sys.modules.get(module_name)
            *class_path, fn_name = attr.split(".")
            for part in class_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, fn_name, None)
            if original is None:
                raise LookupError(f"layer {name}: {module_name}.{attr} not found")
            wrapper = self.wrap(name, original)
            # A class attribute and its aliases (``__rmul__ = __mul__``), or
            # a function and every module global bound to it.
            namespaces = [owner]
            if not class_path:
                namespaces += [m for m in modules if m is not owner]
            for ns in namespaces:
                for key, value in vars(ns).items():
                    if value is original:
                        self._sites.append((ns, key, original, wrapper))

    def install(self):
        """Bind every layer's wrapper in place of the layer."""
        for ns, key, _original, wrapper in self._sites:
            setattr(ns, key, wrapper)

    def uninstall(self):
        for ns, key, original, _wrapper in self._sites:
            setattr(ns, key, original)

    def layer_metrics(self, ops: int, op_total_s: float, scale: float) -> dict:
        """Per-operation calls and self time of every span, plus the ratios.

        Self times are multiplied by ``scale``; ``op_total_s`` is the traced
        operations' unscaled time.
        """
        out = {}
        for name, _module, _attr in LAYERS + GLUE + ((ROOT, None, None),):
            out[f"{name}.calls"] = (self.calls[name] / ops, "count")
            out[f"{name}.self_ms"] = (1000 * scale * self.self_s[name] / ops, "ms")
        out["scalars.nf_degree_max"] = (self.nf_degree_max, "count")
        out["singularity.isolated_points.count"] = (self.isolated_points / ops, "count")
        lp_calls = self.calls[WEIGHT_LP]
        out["weightlp.feasible_frac"] = (
            self.lp_feasible / lp_calls if lp_calls else 0.0, "ratio")
        out["classifier.search_trials_per_hit"] = (
            self.search_trials / self.search_hits if self.search_hits else 0.0, "count")
        covered = sum(self.self_s[name] for name, _m, _a in LAYERS)
        out["trace.covered_frac"] = (covered / op_total_s, "ratio")
        return out
