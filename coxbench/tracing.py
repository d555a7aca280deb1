"""Tracing from outside the library.

Each traced function is replaced by a wrapper in every ``coxtools.*``
namespace (and class) that holds the same object, so calls made through
imported names are seen too.  Spans are aggregated in memory per name:
calls, total time and self time (total minus the time of spans nested
directly inside).  Hot leaves are counted, not spanned.  ``restore``
puts every original object back.
"""

import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); a dotted attribute is a class method
SPANS = [
    ("cli", "main", "cli.main"), ("cli", "emit", "cli.emit"),
    ("quotients", "close_group", "quotients.close_group"),
    ("quotients", "quotient_report", "quotients.quotient_report"),
    ("quotients", "reynolds_invariants", "quotients.reynolds_invariants"),
    ("quotients", "pseudoreflections", "quotients.pseudoreflections"),
    *[("intlinalg", f, f"intlinalg.{f}") for f in
      ("rank", "solve", "nullspace", "inverse_frac", "snf", "hnf", "det_int",
       "lattice_coords", "saturation_basis")],
    ("cones", "Cone.__init__", "cones.Cone"),
    ("cones", "hilbert_basis", "cones.hilbert_basis"),
    ("cones", "cone_contains", "cones.cone_contains"),
    *[("monoids", f, f"monoids.{f}") for f in
      ("is_saturated", "divisor_theory", "verify_divisor_axioms", "extend_embedding")],
    ("toric", "cox_data", "toric.cox_data"), ("toric", "verify_lift", "toric.verify_lift"),
    *[("polynomials", f, f"polynomials.{f}") for f in
      ("parse_poly", "substitute", "compose_chain", "jacobian", "poly_det")],
    *[("gradings", f, f"gradings.{f}") for f in
      ("elementary_shear", "check_normalizes", "wildness_certificate",
       "search_tame_decomposition")],
]
COUNTS = [
    ("quotients", "c_mul", "quotients.c_mul"),
    ("cyclotomic", "CycloNum.__mul__", "cyclotomic.mul"),
    ("cyclotomic", "CycloNum.__add__", "cyclotomic.add"),
    ("cyclotomic", "CycloNum.inverse", "cyclotomic.inverse"),
    ("polynomials", "Poly.__mul__", "polynomials.mul"),
]
LAYERS = ("cli", "quotients", "intlinalg", "cones", "monoids", "toric", "polynomials", "gradings")
WRAPPED = "__coxbench_wrapped__"


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stack = []                 # child time accumulated per open span
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])   # name -> calls, total, self
        self.counts = Counter()
        self.open = Counter()           # name -> open spans of that name
        self.installed = []             # (namespace, attribute, original)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        stack, spans, open_ = self.stack, self.spans, self.open
        post = POST.get(name)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if name == "intlinalg.det_int" and open_["cones.hilbert_basis"]:
                self.counts["cones.hilbert_basis.det_int"] += 1
            frame = [0.0]
            stack.append(frame)
            open_[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                open_[name] -= 1
                stack.pop()
                s = spans[name]
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if post:
                self.counts[post[0]] += post[1](result)
            return result

        setattr(wrapper, WRAPPED, True)
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, WRAPPED, True)
        return wrapper

    # -- install / restore ----------------------------------------------------

    def install(self, lib):
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "coxtools" or n.startswith("coxtools.")]
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for module, attr, name in table:
                mod = getattr(lib, module)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    wrapper = make(name, orig)
                    # aliases such as __rmul__ = __mul__ share the object
                    for key, value in list(cls.__dict__.items()):
                        if value is orig:
                            self.installed.append((cls, key, orig))
                            setattr(cls, key, wrapper)
                    continue
                orig = getattr(mod, attr)
                wrapper = make(name, orig)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is orig:
                            self.installed.append((ns, key, orig))
                            setattr(ns, key, wrapper)

    def restore(self):
        for ns, key, orig in reversed(self.installed):
            setattr(ns, key, orig)
        self.installed.clear()

    # -- results --------------------------------------------------------------

    def metrics(self, op_seconds, rounds):
        """Per-layer metrics from the aggregated spans and counts of
        ``rounds`` traced rounds: times and counts per round, shares of
        the operation time ``op_seconds``."""
        out = {}
        for module, attr, name in SPANS:
            calls, _total, self_s = self.spans.get(name, (0, 0.0, 0.0))
            out[f"{name}.self_s"] = (self_s / rounds, "s/round")
            if module == "intlinalg":
                out[f"{name}.calls"] = (calls / rounds, "count/round")
        for _module, _attr, name in COUNTS:
            out[f"{name}.calls"] = (self.counts[name] / rounds, "count/round")
        for name in ("cones.cone_contains", "polynomials.substitute"):
            out[f"{name}.calls"] = (self.spans[name][0] / rounds, "count/round")
        elements = self.counts["quotients.group_elements"]
        out["quotients.group_elements"] = (elements / rounds, "count/round")
        out["quotients.c_mul_per_element"] = (
            self.counts["quotients.c_mul"] / elements if elements else 0.0, "ratio")
        hb_calls = self.spans["cones.hilbert_basis"][0]
        out["cones.hilbert_basis.elements"] = (
            self.counts["cones.hilbert_basis.elements"] / rounds, "count/round")
        out["cones.hilbert_basis.subsets_per_call"] = (
            self.counts["cones.hilbert_basis.det_int"] / hb_calls if hb_calls else 0.0, "ratio")
        out["polynomials.terms_out"] = (self.counts["polynomials.terms_out"] / rounds, "count/round")
        covered = 0.0
        for layer in LAYERS:
            busy = sum(s[2] for n, s in self.spans.items() if n.startswith(layer + "."))
            share = busy / op_seconds
            covered += share
            out[f"layer.{layer}.share"] = (share, "ratio")
        out["layer.unattributed.share"] = (max(0.0, 1.0 - covered), "ratio")
        return out


POST = {
    "quotients.close_group": ("quotients.group_elements", lambda g: g.order),
    "cones.hilbert_basis": ("cones.hilbert_basis.elements", len),
    "polynomials.compose_chain": ("polynomials.terms_out",
                                  lambda m: sum(len(p.terms) for p in m.images)),
}


def wrapped_objects():
    """Names in any coxtools namespace or class that hold a wrapper."""
    found = []
    for n, mod in list(sys.modules.items()):
        if n != "coxtools" and not n.startswith("coxtools."):
            continue
        for key, value in vars(mod).items():
            if getattr(value, WRAPPED, False):
                found.append(f"{n}.{key}")
            if isinstance(value, type) and value.__module__ == n:
                found += [f"{n}.{key}.{k}" for k, v in vars(value).items()
                          if getattr(v, WRAPPED, False)]
    return found
