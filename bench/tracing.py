"""Per-layer tracing for one benchmark pass, installed from outside the
package.

Spans wrap the public entry points of each exactlie module; counters wrap
the high-frequency kernels (Scalar arithmetic, PolyMatrix products and
the g2 bracket), where a span per call would cost more than the call.
Every wrapper is installed under each name a caller looks the function up
by: several modules bind functions with ``from .x import f``, so patching
only the defining module would record nothing for those callers.

Spans are kept in memory as (metric, layer, parent, start, end) and
reduced once, at the end of the pass: a span's self time is its duration
minus the durations of its direct children, and a metric's time counts
only its outermost spans, so recursion is not counted twice.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional

HOOK_NS = range(2, 8)
LAYERS = (
    "cli", "g2", "dualpair", "slicegeom", "liealg", "elim", "polymat",
    "mpoly", "f4", "classify",
)

CHECK, HOOK, IDEAL = "check", "hook-scaling", "ideal-membership"
ALL = (CHECK, HOOK, IDEAL)

# Per-layer metric -> the workloads on which it must record at least one
# call.  The end-to-end metric each should move is verify_s on these
# workloads; a layer missing from this map for a workload is predicted not
# to move it.  A traced pass fails when an expected metric records nothing,
# so a renamed or bypassed entry point cannot silently drop out.
EXPECTED: Dict[str, tuple] = {
    "cli.self_s": (CHECK,),
    "cli.checks": (CHECK,),
    "g2.jacobi_s": (CHECK,),
    "g2.embedding_s": (CHECK,),
    "g2.bracket_calls": (CHECK,),
    "g2.slice_invariants_s": (CHECK, IDEAL),
    "g2.certificates_s": (CHECK, IDEAL),
    "g2.self_s": (CHECK, IDEAL),
    "dualpair.commutant_s": (CHECK,),
    "dualpair.witness_s": (CHECK,),
    "dualpair.pf_locus_s": (CHECK,),
    "dualpair.moment_s": (CHECK,),
    "dualpair.self_s": (CHECK,),
    **{f"slicegeom.pipeline_n{n}_s": (CHECK, HOOK) if n <= 5 else (HOOK,) for n in HOOK_NS},
    **{f"slicegeom.factorization_n{n}_s": (CHECK, HOOK) if n <= 5 else (HOOK,) for n in HOOK_NS},
    "slicegeom.normalize_s": (CHECK, HOOK),
    "slicegeom.self_s": (CHECK, HOOK),
    "liealg.hook_slice_s": (CHECK, HOOK),
    "liealg.self_s": (CHECK, HOOK),
    "elim.triangular_s": (CHECK, HOOK),
    "elim.membership_s": (CHECK, IDEAL),
    "elim.membership_calls": (CHECK, IDEAL),
    "elim.certificate_yield": (CHECK, IDEAL),
    "elim.ansatz_rows": (CHECK, IDEAL),
    "elim.ansatz_cols": (CHECK, IDEAL),
    "elim.self_s": ALL,
    "polymat.charpoly_s": ALL,
    "polymat.charpoly_calls": ALL,
    "polymat.rref_s": ALL,
    "polymat.rref_calls": ALL,
    "polymat.solve_calls": (CHECK, IDEAL),
    "polymat.rref_per_solve": (CHECK, IDEAL),
    "polymat.pfaffian_s": (CHECK,),
    "polymat.matmul_calls": ALL,
    "polymat.self_s": ALL,
    "mpoly.mul_calls": ALL,
    "mpoly.mul_s": ALL,
    "mpoly.mul_terms_out": ALL,
    "mpoly.substitute_calls": ALL,
    "mpoly.substitute_s": ALL,
    "mpoly.self_s": ALL,
    "scalar.mul_calls": ALL,
    "scalar.add_calls": ALL,
    "scalar.sqrt2_ops": (),
    "scalar.sqrt2_share": ALL,
    "f4.total_s": (CHECK,),
    "f4.self_s": (CHECK,),
    "classify.total_s": (CHECK,),
    "classify.self_s": (CHECK,),
}

# Metrics predicted to read zero on a workload: hook-scaling bypasses g2
# entirely, so any g2 change is predicted not to move it.
FORBIDDEN: Dict[str, tuple] = {
    m: (HOOK,) for m in EXPECTED if m.startswith("g2.")
}

# Span entry points per layer: (module, function name, metric).  A metric
# of None means the span only contributes to its layer's self time.
SPANS = (
    ("cli", "main", None),
    ("g2", "jacobi_full", "g2.jacobi_s"),
    ("g2", "embedding_homomorphism_full", "g2.embedding_s"),
    ("g2", "slice_invariants", "g2.slice_invariants_s"),
    ("g2", "singular_locus_certificates", "g2.certificates_s"),
    ("g2", "slice_structure_check", None),
    ("g2", "chi6_identity_scan", None),
    ("g2", "g2_hypersurface", None),
    ("g2", "example_f", None),
    ("g2", "s3_invariant_model", None),
    ("g2", "invariant_form", None),
    ("g2", "chi_crosscheck", None),
    ("dualpair", "commutant_check", "dualpair.commutant_s"),
    ("dualpair", "kp_find_element", "dualpair.witness_s"),
    ("dualpair", "pfaffian_locus_check", "dualpair.pf_locus_s"),
    ("dualpair", "moment_identity_check", "dualpair.moment_s"),
    ("dualpair", "equivariance_check", None),
    ("dualpair", "rank_chain_check", None),
    ("slicegeom", "hook_pipeline", "slicegeom.pipeline_n{}_s"),
    ("slicegeom", "hook_factorization", "slicegeom.factorization_n{}_s"),
    ("slicegeom", "normalize_to_hook_form", "slicegeom.normalize_s"),
    ("liealg", "hook_slice", "liealg.hook_slice_s"),
    ("liealg", "jm_triple", None),
    ("elim", "eliminate_triangular", "elim.triangular_s"),
    ("elim", "ideal_membership_bounded", "elim.membership_s"),
    ("polymat", "charpoly", "polymat.charpoly_s"),
    ("polymat", "charpoly_coefficients", "polymat.charpoly_s"),
    ("polymat", "rref", "polymat.rref_s"),
    ("polymat", "solve_linear", "polymat.solve_s"),
    ("polymat", "nullspace", None),
    ("polymat", "pfaffian", "polymat.pfaffian_s"),
    ("mpoly", "MPoly.__mul__", "mpoly.mul_s"),
    ("mpoly", "MPoly.substitute", "mpoly.substitute_s"),
    ("f4", "f4_roots", "f4.total_s"),
    ("f4", "f4_grading", "f4.total_s"),
    ("f4", "f4_betti_subsubregular", "f4.total_s"),
    ("f4", "f4_invariant_hyperplanes", "f4.total_s"),
    ("classify", "exception_set_matches", "classify.total_s"),
    ("classify", "enumerate_orbits", "classify.total_s"),
    ("classify", "monotonicity_check", "classify.total_s"),
    ("classify", "dominance_axioms_check", "classify.total_s"),
    ("classify", "classify", "classify.total_s"),
)


class Tracer:
    """Spans and counters for one pass; install() once, report() at the end."""

    def __init__(self):
        # closed and open spans: [metric, layer, parent index, start, end]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.depth: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        # Scalar [mul, add, ops with a nonzero sqrt2 part], kept in a list
        # so the hot wrappers update it without attribute lookups
        self.scalar = [0, 0, 0]
        # span indices of solve_linear calls that returned a solution
        self.solved = set()

    # ---- installation ----

    def install(self) -> None:
        import exactlie.cli  # noqa: F401  (loads every module to be patched)

        mods = [m for k, m in sys.modules.items() if k == "exactlie" or k.startswith("exactlie.")]
        for module, name, metric in SPANS:
            owner, attr = _resolve(f"exactlie.{module}", name)
            orig = getattr(owner, attr)
            _replace(mods, owner, orig, self._span(module, metric, orig, name))
        self._install_counters(mods)

    def _install_counters(self, mods) -> None:
        from exactlie import cli, g2
        from exactlie.polymat import PolyMatrix
        from exactlie.scalar import Scalar

        counts = self.counts
        sc = self.scalar

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] = counts.get(key, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        _replace(mods, cli, cli._check, counted("cli.checks", cli._check))
        _replace(mods, g2, g2.g2_bracket, counted("g2.bracket_calls", g2.g2_bracket))

        matmul = PolyMatrix.__mul__

        def matmul_counted(self, other):
            if isinstance(other, PolyMatrix):
                counts["polymat.matmul_calls"] = counts.get("polymat.matmul_calls", 0) + 1
            return matmul(self, other)

        _replace(mods, PolyMatrix, matmul, matmul_counted)

        def scalar_op(fn, slot):
            def wrapper(self, other):
                sc[slot] += 1
                if self.r1 or (type(other) is Scalar and other.r1):
                    sc[2] += 1
                return fn(self, other)
            return wrapper

        # __rmul__/__radd__ are the same function objects, so _replace
        # wraps both names at once; __rsub__ and __truediv__ go through
        # __sub__ and __mul__ and are counted there.
        _replace(mods, Scalar, Scalar.__mul__, scalar_op(Scalar.__mul__, 0))
        _replace(mods, Scalar, Scalar.__add__, scalar_op(Scalar.__add__, 1))
        _replace(mods, Scalar, Scalar.__sub__, scalar_op(Scalar.__sub__, 1))

    def _span(self, layer: str, metric: Optional[str], fn: Callable, name: str) -> Callable:
        spans, stack, depth = self.spans, self.stack, self.depth
        clock = time.perf_counter
        per_n = metric is not None and "{}" in metric
        key = metric or f"{layer}.{name}"
        after = _AFTER.get(key)

        def wrapper(*args, **kwargs):
            m = key.format(args[0] if args else kwargs.get("n")) if per_n else key
            idx = len(spans)
            rec = [m, layer, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(rec)
            stack.append(idx)
            depth[m] = depth.get(m, 0) + 1
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, result)
                return result
            finally:
                depth[m] -= 1
                stack.pop()
                rec[4] = clock()
                if depth[m]:
                    rec[0] = None  # nested in a span of the same metric

        wrapper.__wrapped__ = fn
        return wrapper

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # ---- reduction ----

    def report(self):
        """(metrics, bases): every per-layer metric of this pass, and for
        each the count that must be nonzero wherever it is expected (its
        calls, or the base of a ratio)."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[2] >= 0:
                child[rec[2]] += rec[4] - rec[3]
        self_s = dict.fromkeys(LAYERS, 0.0)
        layer_spans = dict.fromkeys(LAYERS, 0)
        total: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        rref_in_solve = 0
        for i, (metric, layer, parent, start, end) in enumerate(self.spans):
            self_s[layer] += (end - start) - child[i]
            layer_spans[layer] += 1
            if metric is None:
                continue
            total[metric] = total.get(metric, 0.0) + (end - start)
            calls[metric] = calls.get(metric, 0) + 1
            if metric == "polymat.rref_s" and self._enclosing(parent, "polymat.solve_s") in self.solved:
                rref_in_solve += 1

        c = self.counts
        mul, add, sqrt2 = self.scalar
        solves = calls.get("polymat.solve_s", 0)
        searches = calls.get("elim.membership_s", 0)
        counters = {
            "cli.checks": c.get("cli.checks", 0),
            "g2.bracket_calls": c.get("g2.bracket_calls", 0),
            "elim.membership_calls": searches,
            "elim.ansatz_rows": c.get("elim.ansatz_rows", 0),
            "elim.ansatz_cols": c.get("elim.ansatz_cols", 0),
            "polymat.charpoly_calls": calls.get("polymat.charpoly_s", 0),
            "polymat.rref_calls": calls.get("polymat.rref_s", 0),
            "polymat.solve_calls": solves,
            "polymat.matmul_calls": c.get("polymat.matmul_calls", 0),
            "mpoly.mul_calls": calls.get("mpoly.mul_s", 0),
            "mpoly.mul_terms_out": c.get("mpoly.mul_terms_out", 0),
            "mpoly.substitute_calls": calls.get("mpoly.substitute_s", 0),
            "scalar.mul_calls": mul,
            "scalar.add_calls": add,
            "scalar.sqrt2_ops": sqrt2,
        }
        ratios = {
            "elim.certificate_yield": (c.get("elim.certificates", 0), searches),
            "polymat.rref_per_solve": (rref_in_solve, len(self.solved)),
            "scalar.sqrt2_share": (sqrt2, mul + add),
        }
        metrics: Dict[str, float] = {}
        bases: Dict[str, int] = {}
        for metric in EXPECTED:
            if metric in counters:
                metrics[metric] = bases[metric] = counters[metric]
            elif metric in ratios:
                num, den = ratios[metric]
                metrics[metric] = num / den if den else 0.0
                bases[metric] = den
            elif metric.endswith(".self_s"):
                layer = metric.split(".")[0]
                metrics[metric] = self_s[layer]
                bases[metric] = layer_spans[layer]
            else:
                metrics[metric] = total.get(metric, 0.0)
                bases[metric] = calls.get(metric, 0)
        return metrics, bases

    def _enclosing(self, idx: int, metric: str) -> int:
        """Index of the innermost open span of ``metric`` at span idx, or -1."""
        while idx >= 0 and self.spans[idx][0] != metric:
            idx = self.spans[idx][2]
        return idx


def _after_membership(tracer: Tracer, args, result) -> None:
    if result is not None:
        tracer.add("elim.certificates", 1)


def _after_solve(tracer: Tracer, args, result) -> None:
    if result is not None:
        tracer.solved.add(tracer.stack[-1])
    if tracer.depth.get("elim.membership_s"):
        tracer.add("elim.ansatz_rows", args[0].nrows)
        tracer.add("elim.ansatz_cols", args[0].ncols)


def _after_mul(tracer: Tracer, args, result) -> None:
    tracer.add("mpoly.mul_terms_out", len(result.terms))


_AFTER = {
    "elim.membership_s": _after_membership,
    "polymat.solve_s": _after_solve,
    "mpoly.mul_s": _after_mul,
}


def _resolve(module_name: str, name: str):
    owner = sys.modules[module_name]
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _replace(modules, owner, orig, new) -> None:
    """Put ``new`` wherever ``orig`` is bound: on its owner (every alias
    there, e.g. ``__rmul__ = __mul__``) and in every module namespace."""
    for space in [owner, *modules]:
        for attr, value in list(vars(space).items()):
            if value is orig:
                setattr(space, attr, new)
