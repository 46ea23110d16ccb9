"""Per-layer tracing from outside the program.

install() wraps public functions and methods of bssvm with recorders: a
span (name, start, end, parent span, job) at each layer boundary, and
counters where a call is too frequent for a span of its own.  Wrapping
replaces the function object wherever a module holds it, so calls through
`from x import f` names are seen too.  Spans stay in memory and are written
out when the run ends.  Work a counter needs that is not part of the call
(the feasibility test of path leaves) runs in after_job(), outside every
timed span.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

from bssvm.exact import count_roots_open, squarefree_part, sturm_isolate, UniPoly
from bssvm.symbolic import as_unipoly

# (module, attribute, span name): layer boundaries recorded as spans.
SPANNED = [
    ("bssvm.machine.interp", "run_concrete", "machine.interp"),
    ("bssvm.symbolic.shadow", "shadow_trace", "symbolic.shadow"),
    ("bssvm.symbolic.shadow", "field_boundary_check", "symbolic.shadow.boundary_check"),
    ("bssvm.symbolic.certify", "epsilon_certificate", "symbolic.certify.epsilon"),
    ("bssvm.symbolic.certify", "verify_neighborhood", "symbolic.certify.verify"),
    ("bssvm.symbolic.paths", "explore_paths", "symbolic.paths"),
    ("bssvm.symbolic.paths", "boundary_report", "symbolic.paths.boundary"),
    ("bssvm.witness.counterexample", "build_counterexample", "witness"),
    ("bssvm.cli", "main", "cli"),
    ("bssvm.exact.numberfield", "minimal_polynomial", "exact.numberfield.minpoly"),
    ("bssvm.stdlib.programs", "stdlib_program", "stdlib.build"),
    ("bssvm.machine.parser", "parse_program", "machine.parser.parse"),
] + [("bssvm.serialize", f"{kind}_to_json", "serialize")
     for kind in ("trace", "shadow", "tree", "certificate", "witness", "cantor")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [id, parent, name, job, start, end]
        self.stack: list[int] = []
        self.job = None
        self.time = defaultdict(float)    # span name -> inclusive seconds
        self.count = defaultdict(int)
        self.max_coeff_bits = 0
        self.pending_trees: list = []
        self.feasible_cache: dict = {}
        self._depth = defaultdict(int)
        self._gc_start = 0.0

    # -- spans -------------------------------------------------------------

    def begin_job(self, name: str) -> None:
        self.job = name
        self._open("job")

    def end_job(self) -> None:
        self._close()
        self.job = None

    def _open(self, name: str) -> None:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, parent, name, self.job, perf_counter(), None])
        self.stack.append(sid)

    def _close(self) -> float:
        span = self.spans[self.stack.pop()]
        span[5] = perf_counter()
        return span[5] - span[4]

    def spanned(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.time[name] += self._close()
                self.count[name] += 1
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    def timed(self, name: str, fn, after=None):
        """Count and time the outermost calls, without a span per call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = self._depth
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[name] -= 1
                if depth[name] == 0:
                    self.time[name] += perf_counter() - t0
                    self.count[name] += 1
            if after is not None and depth[name] == 0:
                after(result, args, kwargs)
            return result
        return wrapper

    # -- counters taken from results ----------------------------------------

    def _after_run(self, out, args, kwargs):
        result, trace = out
        self.count["interp.steps"] += result.steps
        self.count["interp.records"] += len(trace.steps)

    def _after_shadow(self, strace, args, kwargs):
        self.count["shadow.steps"] += strace.steps_executed

    def _after_boundary_check(self, report, args, kwargs):
        self.count["shadow.cells_checked"] += report.cells_checked

    def _after_epsilon(self, cert, args, kwargs):
        self.count["certify.halvings"] += cert.epsilon.denominator.bit_length() - 1

    def _after_verify(self, report, args, kwargs):
        self.count["certify.samples"] += len(report.samples)

    def _after_tree(self, tree, args, kwargs):
        self.count["paths.leaves"] += len(tree.leaves)
        self.count["paths.branch_nodes"] += sum(
            1 for node in tree.nodes.values() if node[0] == "branch")
        self.pending_trees.append(tree)

    def _after_gcd(self, g, args, kwargs):
        if not g.is_constant():
            self.count["multipoly.gcd_useful"] += 1

    def _after_emit(self, result, args, kwargs):
        if args[0].format == "json":
            self.count["serialize.json_printed"] += 1

    def after_job(self) -> None:
        """Work for counters that must stay outside the timed spans."""
        for tree in self.pending_trees:
            if tree.arity != 1:
                continue   # the cell test is one-variable
            key = (tree.program, tree.depth_budget)
            if key not in self.feasible_cache:
                self.feasible_cache[key] = sum(
                    1 for leaf in tree.leaves if leaf_feasible(leaf.condition))
            self.count["paths.leaves_tested"] += len(tree.leaves)
            self.count["paths.leaves_feasible"] += self.feasible_cache[key]
        self.pending_trees.clear()

    def _gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.time["gc"] += perf_counter() - self._gc_start
            self.count["gc"] += 1

    # -- installing ----------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        from bssvm import cli
        from bssvm.exact import multipoly, numberfield

        after = {"machine.interp": self._after_run, "symbolic.shadow": self._after_shadow,
                 "symbolic.shadow.boundary_check": self._after_boundary_check,
                 "symbolic.certify.epsilon": self._after_epsilon,
                 "symbolic.certify.verify": self._after_verify,
                 "symbolic.paths": self._after_tree}
        swaps = {}
        for module, attr, name in SPANNED:
            fn = getattr(sys.modules[module], attr)
            swaps[fn] = self.spanned(name, fn, after.get(name))
        swaps[multipoly.mp_gcd] = self.timed("multipoly.gcd", multipoly.mp_gcd,
                                             self._after_gcd)
        swaps[cli.emit] = self.timed("cli.emit", cli.emit, self._after_emit)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "bssvm" or n.startswith("bssvm.")] + list(extra_modules)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and not isinstance(value, type) and value in swaps:
                    setattr(module, attr, swaps[value])

        rf_init = multipoly.RationalFunction.__init__

        @functools.wraps(rf_init)
        def rf_constructed(rf, *args, **kwargs):
            rf_init(rf, *args, **kwargs)
            self.count["multipoly.rf"] += 1
            for poly in (rf.num, rf.den):
                for c in poly.terms.values():
                    if isinstance(c, Fraction):
                        bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                        if bits > self.max_coeff_bits:
                            self.max_coeff_bits = bits

        multipoly.RationalFunction.__init__ = rf_constructed
        field = numberfield.NumberField
        field.__init__ = self.spanned("exact.numberfield.field_build", field.__init__)
        field.refine = self.timed("sturm.refine", field.refine)
        numberfield.AlgebraicNumber.sign = self.timed(
            "numberfield.sign", numberfield.AlgebraicNumber.sign)
        gc.callbacks.append(self._gc)

    def uninstall_gc(self) -> None:
        gc.callbacks.remove(self._gc)

    # -- reporting -----------------------------------------------------------

    def layer_metrics(self, rounds: int, build_s: float, parse_s: float) -> dict:
        t, c = self.time, self.count
        per = 1 / rounds
        gcd_calls = c["multipoly.gcd"]
        leaves = c["paths.leaves"]
        values = {
            "machine.interp.runs": c["machine.interp"] * per,
            "machine.interp.steps": c["interp.steps"] * per,
            "machine.interp.s": t["machine.interp"] * per,
            "machine.interp.steps_per_s": _ratio(c["interp.steps"], t["machine.interp"]),
            "machine.interp.trace_records": c["interp.records"] * per,
            "python.gc.collections": c["gc"] * per,
            "python.gc.pause_s": t["gc"] * per,
            "symbolic.shadow.runs": c["symbolic.shadow"] * per,
            "symbolic.shadow.steps": c["shadow.steps"] * per,
            "symbolic.shadow.s": t["symbolic.shadow"] * per,
            "symbolic.shadow.boundary_check_s": t["symbolic.shadow.boundary_check"] * per,
            "symbolic.shadow.cells_checked": c["shadow.cells_checked"] * per,
            "exact.multipoly.rf_constructed": c["multipoly.rf"] * per,
            "exact.multipoly.gcd_calls": gcd_calls * per,
            "exact.multipoly.gcd_s": t["multipoly.gcd"] * per,
            "exact.multipoly.gcd_useful_ratio": _ratio(c["multipoly.gcd_useful"], gcd_calls),
            "exact.multipoly.max_coeff_bits": self.max_coeff_bits,
            "symbolic.certify.certificates": c["symbolic.certify.epsilon"] * per,
            "symbolic.certify.epsilon_s": t["symbolic.certify.epsilon"] * per,
            "symbolic.certify.halvings": c["certify.halvings"] * per,
            "symbolic.certify.verify_s": t["symbolic.certify.verify"] * per,
            "symbolic.certify.samples": c["certify.samples"] * per,
            "symbolic.paths.trees": c["symbolic.paths"] * per,
            "symbolic.paths.s": t["symbolic.paths"] * per,
            "symbolic.paths.leaves": leaves * per,
            "symbolic.paths.branch_nodes": c["paths.branch_nodes"] * per,
            "symbolic.paths.leaves_feasible": c["paths.leaves_feasible"] * per,
            "symbolic.paths.feasible_ratio": _ratio(c["paths.leaves_feasible"],
                                                    c["paths.leaves_tested"]),
            "symbolic.paths.boundary_s": t["symbolic.paths.boundary"] * per,
            "exact.numberfield.fields_built": c["exact.numberfield.field_build"] * per,
            "exact.numberfield.field_build_s": t["exact.numberfield.field_build"] * per,
            "exact.numberfield.sign_calls": c["numberfield.sign"] * per,
            "exact.numberfield.sign_s": t["numberfield.sign"] * per,
            "exact.sturm.refine_steps": c["sturm.refine"] * per,
            "exact.numberfield.minpoly_s": t["exact.numberfield.minpoly"] * per,
            "witness.pipelines": c["witness"] * per,
            "witness.s": t["witness"] * per,
            "cli.commands": c["cli"] * per,
            "cli.s": t["cli"] * per,
            "serialize.json_built": c["serialize"] * per,
            "serialize.json_printed": c["serialize.json_printed"] * per,
            "serialize.serialize_s": t["serialize"] * per,
            "stdlib.build_s": build_s,
            "machine.parser.parse_s": parse_s,
        }
        return values

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, job, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "job": job, "start": start, "end": end}) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# -- exact feasibility of one-variable path conditions ------------------------


def _sign_at_root(g: UniPoly, p: UniPoly, lo: Fraction, hi: Fraction) -> int:
    """Sign of g at the single root of squarefree p in (lo, hi)."""
    if count_roots_open(g.gcd(p), lo, hi) == 1:
        return 0
    while count_roots_open(g, lo, hi) > 0:
        mid = (lo + hi) / 2
        while p.eval_fraction(mid) == 0 or g.eval_fraction(mid) == 0:
            mid = (lo + mid) / 2
        if (p.eval_fraction(lo) > 0) == (p.eval_fraction(mid) > 0):
            lo = mid
        else:
            hi = mid
    v = g.eval_fraction(lo)
    return (v > 0) - (v < 0)


def leaf_feasible(condition) -> bool:
    """Does some real x meet every sign constraint of the condition?  Exact
    one-variable cell test: the signs only change at real roots of the
    numerators and denominators, so it is enough to try one rational point
    per open cell between roots and every root itself."""
    cons = [(as_unipoly(f.num), as_unipoly(f.den), s) for f, s in condition.constraints]
    polys = [q for num, den, _ in cons for q in (num, den) if q.degree > 0]
    if all(q.degree == 1 for q in polys):
        # rational roots: try each root, a point between neighbours, and
        # one point beyond either end
        points = sorted({-q.coeff(0) / q.coeff(1) for q in polys}) or [Fraction(0)]
        samples = ([points[0] - 1, points[-1] + 1] + points
                   + [(a + b) / 2 for a, b in zip(points, points[1:])])
        roots = []
    else:
        product = UniPoly([1])
        for q in polys:
            product = product * q
        p = squarefree_part(product)
        roots = sturm_isolate(p)
        samples = [roots[0][0]] + [hi for _, hi in roots] if roots else [Fraction(0)]

    def meets(signs_of) -> bool:
        for num, den, s in cons:
            d = signs_of(den)
            if d == 0 or signs_of(num) * d != s:
                return False
        return True

    for x in samples:
        if meets(lambda q: (q.eval_fraction(x) > 0) - (q.eval_fraction(x) < 0)):
            return True
    for lo, hi in roots:
        if meets(lambda q: _sign_at_root(q, p, lo, hi) if q.degree > 0
                 else (q.coeff(0) > 0) - (q.coeff(0) < 0)):
            return True
    return False
