"""Per-layer tracing by wrapping simplexconn's public functions from outside.

Each wrapped function is rebound on its defining module or class and under
every name in every simplexconn module that imported it by name, so no call
escapes the trace. A span wrapper counts calls and records self time: its
span minus the spans of the wrapped calls nested inside it. A count wrapper
only counts calls, for functions too hot to time one by one.
"""

import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "simplexconn"

# (module, attribute, metric prefix); a dotted attribute names a method.
SPANS = [
    ("exact_arith", "hyp_terminating", "exact_arith.hyp_terminating"),
    ("exact_arith", "hyp_with_prefactor", "exact_arith.hyp_with_prefactor"),
    ("multipoly", "SparsePoly.__mul__", "multipoly.SparsePoly.mul"),
    ("multipoly", "SparsePoly.subst", "multipoly.SparsePoly.subst"),
    ("multipoly", "substitute_homogeneous", "multipoly.substitute_homogeneous"),
    ("simplex", "jacobi_simplex_basis", "simplex.jacobi_simplex_basis"),
    ("simplex", "Permutation.act_vars", "simplex.act_vars"),
    ("simplex", "inner_product_simplex", "simplex.inner_product_simplex"),
    ("simplex", "norm_A", "simplex.norm_A"),
    ("connection", "gram_connection", "connection.gram_connection"),
    ("connection", "ConnMatrix.matmul", "connection.matmul"),
    ("connection", "normalize", "connection.normalize"),
    ("connection", "verify_row_orthogonality", "connection.verify"),
    ("connection", "verify_column_orthogonality", "connection.verify"),
    ("connection", "verify_inverse_identity", "connection.verify"),
    ("connection", "verify_convolution", "connection.verify"),
    ("closed_forms", "connection_matrix", "closed_forms.connection_matrix"),
    ("closed_forms", "cc_3d_matrix", "closed_forms.cc_3d_matrix"),
    ("closed_forms", "cc_cyclic_hat", "closed_forms.cc_cyclic_hat"),
    ("racah", "racah_multi", "racah.racah_multi"),
    ("racah", "racah_second", "racah.racah_second"),
    ("racah", "racah_weight_multi", "racah.racah_weight_multi"),
    ("racah", "racah_second_norm_sq", "racah.racah_second_norm_sq"),
    ("racah", "racah_norm_1d", "racah.racah_norm_1d"),
    ("discrete", "hahn_connection", "discrete.hahn_connection"),
    ("discrete", "kraw_connection", "discrete.kraw_connection"),
    ("cli", "main", "cli.main"),
    ("cli", "emit", "cli.emit"),
]

COUNTS = [
    ("exact_arith", "pochhammer", "exact_arith.pochhammer"),
    ("simplex", "simplex_moment", "simplex.simplex_moment"),
    ("connection", "ConnMatrix.entry", "connection.entry"),
    ("closed_forms", "cc_2d_entry", "closed_forms.cc_2d_entry"),
    ("discrete", "hahn_multi", "discrete.hahn_multi"),
    ("discrete", "kraw_multi", "discrete.kraw_multi"),
]


def _series_terms(top):
    """Terms summed by hyp_terminating: one more than its termination order."""
    orders = [-int(a.numerator) for a in top if a.denominator == 1 and a.numerator <= 0]
    return min(orders) + 1 if orders else 0


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def rebind(owner, attr, replacement):
    """Replace owner.attr, and every by-name import of it in the package.

    Returns the (namespace, name, original) triples that undo() restores.
    """
    original = getattr(owner, attr)
    undo = [(owner, attr, original)]
    setattr(owner, attr, replacement)
    if isinstance(owner, type):
        return undo
    for module in _package_modules():
        for name, value in list(vars(module).items()):
            if value is original and module is not owner:
                undo.append((module, name, original))
                setattr(module, name, replacement)
    return undo


def undo(triples):
    for namespace, name, original in reversed(triples):
        setattr(namespace, name, original)


def resolve(module_name, attr):
    """(owner, attribute) for 'func' or 'Class.method' in a package module."""
    owner = sys.modules[f"{PACKAGE}.{module_name}"]
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


class Tracer:
    """Counts and self times of wrapped calls, kept in memory."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self._stack = []
        self._undo = []
        self._seen_gram = {}
        self._cm_depth = 0

    def begin_round(self):
        self.counts.clear()
        self.self_s.clear()

    def begin_op(self):
        """Start of one operation: cache hits are counted within it."""
        self._seen_gram = {}

    def install(self):
        for module_name, attr, metric in SPANS:
            owner, name = resolve(module_name, attr)
            self._undo += rebind(owner, name, self._span(metric, getattr(owner, name)))
        for module_name, attr, metric in COUNTS:
            owner, name = resolve(module_name, attr)
            self._undo += rebind(owner, name, self._count(metric, getattr(owner, name)))

    def uninstall(self):
        undo(self._undo)
        self._undo = []

    def _count(self, metric, fn):
        counts = self.counts
        key = metric + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _span(self, metric, fn):
        counts, self_s, stack = self.counts, self.self_s, self._stack
        before = getattr(self, "_before_" + metric.replace(".", "_"), None)
        after = getattr(self, "_after_" + metric.replace(".", "_"), None)
        calls = metric + ".calls"
        own = metric + ".self_s"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            token = before(args, kwargs) if before else None
            stack.append(0.0)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span = perf_counter() - start
                nested = stack.pop()
                self_s[own] += span - nested
                if stack:
                    stack[-1] += span
                if after:
                    after(token, result)

        wrapper.__wrapped__ = fn
        return wrapper

    # Derived counts, named after the metric they extend.

    def _before_exact_arith_hyp_terminating(self, args, kwargs):
        self.counts["exact_arith.hyp_terminating.terms"] += _series_terms(args[0])

    def _before_exact_arith_hyp_with_prefactor(self, args, kwargs):
        self.counts["exact_arith.hyp_with_prefactor.terms"] += args[2] + 1

    def _before_multipoly_SparsePoly_mul(self, args, kwargs):
        a, b = args
        if hasattr(b, "terms"):
            self.counts["multipoly.SparsePoly.mul.term_products"] += len(a.terms) * len(b.terms)

    def _after_connection_gram_connection(self, token, result):
        if result is None:
            return
        if id(result) in self._seen_gram:
            self.counts["connection.gram_connection.cache_hits"] += 1
        else:
            self._seen_gram[id(result)] = result

    def _before_closed_forms_connection_matrix(self, args, kwargs):
        self._cm_depth += 1
        method = kwargs.get("method", args[3] if len(args) > 3 else "closed")
        if self._cm_depth == 1 and method != "gram":
            return self.counts["connection.gram_connection.calls"]
        return None

    def _after_closed_forms_connection_matrix(self, gram_calls_before, result):
        self._cm_depth -= 1
        if gram_calls_before is not None:
            self.counts["closed_forms.closed_requests"] += 1
            if self.counts["connection.gram_connection.calls"] > gram_calls_before:
                self.counts["closed_forms.gram_fallbacks"] += 1
