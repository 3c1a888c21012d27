"""Per-layer tracing of the monogamy package, applied from outside.

The tracer wraps public functions of each module and records one span
per call. Spans nest on a stack: when a span closes, its duration is
added to its parent's child time, so a span's self time is its duration
minus the time its child spans cover. Totals are aggregated per span
name as calls arrive, which keeps memory flat however many calls a pass
makes.

Wrappers replace every binding of a function inside the package, so
callers that imported a name (extendibility.lambda_max, graphs.embed_pair,
the check lists in checks) resolve the wrapper too.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Module-level functions wrapped as spans, named "<module>.<function>".
# Tiny helpers called per partition or per box (check_partition, content,
# size, ...) are left out: wrapping them would cost more than they do.
FUNCTION_SPANS = {
    "partitions": (
        "mn_character", "enumerate_sym_irreps", "enumerate_brauer_irreps", "sym_dim", "gl_dim",
    ),
    "diagrams": (
        "embed_pair", "young_symmetrizer", "matrix_rep", "compose", "all_diagrams",
        "jm_sum_sym", "jm_sum_brauer", "pair_operators", "projectors",
    ),
    "graphs": (
        "edge_average_hamiltonian", "embed_pair_operator", "is_flip_invariant",
        "perfect_matchings", "make_family", "graph_from_json",
    ),
    "spectral": ("lambda_max", "sym_eigen", "joint_spectrum"),
    "extendibility": (
        "p_avg_numeric", "iso_dual_numeric", "cycle_werner_value", "reduced_state",
        "trace_product", "werner_primal_certificate", "matching_lower_bound_state",
        "isotropic_dual_minimax", "iso_affine_family", "okada_easy_pairs", "q0_dual_value",
        "q0_affine_family", "minimize_max_affine", "brauer_is_separable", "brauer_is_ppt",
        "conjecture_probe", "p_w_complete", "p_b_complete", "p_iso_prime", "p_iso",
        "p_iso_bipartite", "asymptotic_limit",
    ),
    "cli": ("main",),
    "budget": ("check_budget",),
}

# SiteOperator methods wrapped as spans, named "diagrams.<span>". Aliases in
# the class (__rmul__ is __mul__) are rebound with the method they alias.
METHOD_SPANS = {
    "site_add": ("__add__",),
    "site_sub": ("__sub__",),
    "site_scale": ("__mul__", "__truediv__", "__neg__"),
    "matmul": ("__matmul__",),
    "densify": ("to_dense", "to_coo"),
    "is_symmetric": ("is_symmetric",),
}

# The verify suite's checks, in run order; each is a span "checks.<name>".
CHECK_NAMES = (
    "dual_solvers_exact", "brauer_composition", "jm_spectra", "joint_spectrum_easy_pairs",
    "ppt_region", "conjecture_probe", "asymptotics", "oracle_closed_forms",
    "primal_certificates", "matching_states", "iso_dual_numeric", "cycle_values", "bipartite",
)

LAYERS = ("partitions", "diagrams", "graphs", "spectral", "extendibility", "checks", "cli", "budget")

# Spans whose self time is exact operator assembly, and those that solve for eigenvalues.
ASSEMBLY_SPANS = (
    "graphs.edge_average_hamiltonian", "graphs.embed_pair_operator", "diagrams.embed_pair",
    "diagrams.site_add", "diagrams.site_scale",
)
EIGENSOLVE_SPANS = (
    "spectral.lambda_max", "spectral.sym_eigen", "spectral.joint_spectrum",
    "extendibility.iso_dual_numeric",
)


class Tracer:
    """Span aggregation with self-time subtraction on a call stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.oracle_values: list[tuple] = []
        self.missing: list[str] = []
        self._names: list[str] = []
        self._child_s: list[float] = []

    @property
    def parent(self) -> str | None:
        """Name of the innermost open span."""
        return self._names[-1] if self._names else None

    def wrap(self, name: str, fn, hook=None):
        """Return fn recorded as span `name`; hook(tracer, args, result) runs after it closes."""
        def traced(*args, **kwargs):
            self._names.append(name)
            self._child_s.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(name, start)
                self.errors[name] += 1
                raise
            self._close(name, start)
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _close(self, name: str, start: float):
        duration = self.clock() - start
        self._names.pop()
        child = self._child_s.pop()
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if self._child_s:
            self._child_s[-1] += duration

    def is_open(self, name: str) -> bool:
        return name in self._names

    def count(self, key: str, amount: float = 1):
        self.counters[key] += amount

    def attributed_s(self) -> float:
        """Sum of all self times: wall time covered by at least one span."""
        return sum(self.self_s.values())


# ---------------------------------------------------------------------------
# hooks that turn call arguments and results into counters

def _hook_hamiltonian(tr: Tracer, args, result):
    tr.count("graphs.edge_average_hamiltonian.nnz_out", len(result.data))


def _hook_site_add(tr: Tracer, args, result):
    # __add__ copies the left operand's dict and merges the right one in
    copied = len(args[0].data) + len(args[1].data)
    tr.count("diagrams.site_add.entries_copied", copied)
    if tr.is_open("graphs.edge_average_hamiltonian"):
        tr.count("edge_sum.entries_copied", copied)


def _hook_densify(tr: Tracer, args, result):
    op = args[0]
    if isinstance(result, tuple):  # to_coo: int64 rows and cols, float64 values
        tr.count("diagrams.densify.bytes", 24 * len(op.data))
    else:  # to_dense: dim x dim float64
        tr.count("diagrams.densify.bytes", 8 * op.dim * op.dim)


def _hook_mn_character(tr: Tracer, args, result):
    if tr.parent == "diagrams.young_symmetrizer":
        tr.count("young_symmetrizer.characters")
        if result == 0:
            tr.count("young_symmetrizer.zero_characters")


def _hook_minimax(tr: Tracer, args, result):
    tr.count("extendibility.affine_branches", len(args[0]))


def _hook_oracle(kind):
    def hook(tr: Tracer, args, result):
        tr.oracle_values.append((kind, args, result))
    return hook


HOOKS = {
    "graphs.edge_average_hamiltonian": _hook_hamiltonian,
    "diagrams.site_add": _hook_site_add,
    "diagrams.densify": _hook_densify,
    "partitions.mn_character": _hook_mn_character,
    "extendibility.minimize_max_affine": _hook_minimax,
    "extendibility.p_avg_numeric": _hook_oracle("p_avg_numeric"),
    "extendibility.iso_dual_numeric": _hook_oracle("iso_dual_numeric"),
}


# ---------------------------------------------------------------------------
# installation

def _rebind(modules, original, replacement):
    """Point every binding of `original` in the given namespaces at `replacement`."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if item is original:
                        value[i] = replacement


def wrap_methods(tracer: Tracer, cls, layer: str, method_spans: dict):
    """Wrap methods of cls as spans "<layer>.<span>", rebinding their aliases too."""
    for span, methods in method_spans.items():
        full = f"{layer}.{span}"
        for meth in methods:
            fn = cls.__dict__.get(meth)
            if fn is None:
                tracer.missing.append(f"{full} ({meth})")
                continue
            wrapped = tracer.wrap(full, fn, HOOKS.get(full))
            for alias, value in list(cls.__dict__.items()):
                if value is fn:
                    setattr(cls, alias, wrapped)


def install(tracer: Tracer, package) -> Tracer:
    """Wrap the package's layers and the numpy/scipy solver entry points."""
    import importlib

    import numpy as np
    import scipy.sparse.linalg

    names = ("budget", "partitions", "diagrams", "graphs", "spectral", "extendibility", "checks", "cli")
    mods = {n: importlib.import_module(f"{package.__name__}.{n}") for n in names}
    namespaces = [package, *mods.values()]

    def wrap_function(layer, attr, span):
        fn = getattr(mods[layer], attr, None)
        if fn is None:
            tracer.missing.append(span)
            return
        _rebind(namespaces, fn, tracer.wrap(span, fn, HOOKS.get(span)))

    for layer, attrs in FUNCTION_SPANS.items():
        for attr in attrs:
            wrap_function(layer, attr, f"{layer}.{attr}")
    for check in CHECK_NAMES:
        wrap_function("checks", f"check_{check}", f"checks.{check}")

    wrap_methods(tracer, mods["diagrams"].SiteOperator, "diagrams", METHOD_SPANS)

    # solver entry points are counted, not timed, so solver time stays in the calling span
    def counted(fn, key):
        def call(*args, **kwargs):
            tracer.count(key)
            if key.endswith("sparse") and tracer.parent == "spectral.lambda_max":
                tracer.count("spectral.lambda_max.sparse_calls")
            return fn(*args, **kwargs)
        return call

    np.linalg.eigh = counted(np.linalg.eigh, "spectral.solver_calls.dense")
    np.linalg.eigvalsh = counted(np.linalg.eigvalsh, "spectral.solver_calls.dense")
    scipy.sparse.linalg.eigsh = counted(scipy.sparse.linalg.eigsh, "spectral.solver_calls.sparse")
    return tracer


# ---------------------------------------------------------------------------
# per-layer metrics

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    m: dict[str, tuple[float, str]] = {}

    def calls(span):
        m[f"{span}.calls"] = (tr.calls[span], "count")

    def self_s(span):
        m[f"{span}.self_s"] = (tr.self_s[span], "s")

    def counter(key, unit="count"):
        m[key] = (tr.counters[key], unit)

    # exact assembly
    ham = "graphs.edge_average_hamiltonian"
    calls(ham)
    self_s(ham)
    counter(f"{ham}.nnz_out")
    m[f"{ham}.useful_ratio"] = (
        _ratio(tr.counters[f"{ham}.nnz_out"], tr.counters["edge_sum.entries_copied"]), "ratio"
    )
    for span in ("diagrams.embed_pair", "diagrams.site_add"):
        calls(span)
        self_s(span)
    counter("diagrams.site_add.entries_copied")
    self_s("diagrams.site_scale")
    self_s("diagrams.is_symmetric")
    # densify
    calls("diagrams.densify")
    self_s("diagrams.densify")
    counter("diagrams.densify.bytes", "B")
    # eigensolve
    calls("spectral.lambda_max")
    self_s("spectral.lambda_max")
    counter("spectral.lambda_max.sparse_calls")
    self_s("spectral.sym_eigen")
    self_s("spectral.joint_spectrum")
    counter("spectral.solver_calls.dense")
    counter("spectral.solver_calls.sparse")
    self_s("extendibility.iso_dual_numeric")
    # exact certificate route
    ys = "diagrams.young_symmetrizer"
    calls(ys)
    self_s(ys)
    m[f"{ys}.zero_char_ratio"] = (
        _ratio(tr.counters["young_symmetrizer.zero_characters"],
               tr.counters["young_symmetrizer.characters"]), "ratio"
    )
    calls("partitions.mn_character")
    self_s("partitions.mn_character")
    for span in ("extendibility.reduced_state", "extendibility.trace_product",
                 "extendibility.matching_lower_bound_state"):
        self_s(span)
    calls("diagrams.matmul")
    self_s("diagrams.matmul")
    self_s("graphs.perfect_matchings")
    # affine minimax
    self_s("partitions.enumerate_sym_irreps")
    self_s("partitions.enumerate_brauer_irreps")
    self_s("extendibility.iso_affine_family")
    counter("extendibility.affine_branches")
    calls("extendibility.minimize_max_affine")
    self_s("extendibility.minimize_max_affine")
    # suite and front end
    for check in CHECK_NAMES:
        m[f"checks.{check}.wall_s"] = (tr.total_s[f"checks.{check}"], "s")
    self_s("cli.main")
    calls("budget.check_budget")
    m["budget.refusals"] = (tr.errors["budget.check_budget"], "count")
    # whole layers and the assembly / eigensolve split
    for layer in LAYERS:
        total = sum(v for k, v in tr.self_s.items() if k.split(".", 1)[0] == layer)
        m[f"{layer}.self_s"] = (total, "s")
    m["split.assembly_self_s"] = (sum(tr.self_s[s] for s in ASSEMBLY_SPANS), "s")
    m["split.eigensolve_self_s"] = (sum(tr.self_s[s] for s in EIGENSOLVE_SPANS), "s")
    return m


# Names of every metric layer_metrics returns, plus those run.py and worker.py add.
RUN_LAYER_METRICS = ("trace.overhead_s", "trace.unattributed_s", "gate.err_over_tol")


def per_layer_names() -> list[str]:
    return list(layer_metrics(Tracer())) + list(RUN_LAYER_METRICS)
