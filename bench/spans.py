"""Per-layer spans for the stci benchmark, recorded from outside the package.

``Tracer.install`` replaces every public function of the ``stci`` modules
with a timing wrapper at every place its name is bound: ``from .x import
y`` copies the name into the importing module, so wrapping only the home
module would miss those calls.  A few methods are wrapped on their class.
Each call appends one span (name, parent, start, end, request, attribute)
to flat arrays; ``uninstall`` puts the originals back.  ``layer_metrics``
derives the per-layer counts, self times and ratios from the spans.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from time import perf_counter

import numpy as np

MODULES = (
    "parser", "core", "decomposition", "homology", "linfeas", "invariants",
    "verification", "cli",
)

# Methods wrapped on their class, by module and class name.
METHODS = {
    ("core", "MonomialIdeal"): (
        "__add__", "__mul__", "__pow__", "__and__", "colon", "colon_ideal",
        "saturate", "radical", "bracket_power",
    ),
    ("homology", "ChainComplex"): ("homology_ranks",),
}

CHECKERS = {
    "chain": "verification.check_chain",
    "dg-dichotomy": "verification.check_dg_dichotomy",
    "squarefree-cm": "verification.check_squarefree_cm",
    "frobenius": "verification.check_frobenius",
}


def _nnz(args, result) -> int:
    m = args[0]
    if hasattr(m, "nnz"):
        return m.nnz
    return int(np.count_nonzero(np.asarray(m)))


def _mu(args, result) -> int:
    return result.mu


# Attribute recorded on a span, computed from the call's arguments and result.
ATTRIBUTES = {
    "homology.rank": _nnz,
    "homology.lcm_lattice": lambda args, result: len(result),
    "homology.reduced_homology_ranks": lambda args, result: int(any(result.values())),
    "linfeas.feasible_point": lambda args, result: int(result is not None),
}


class Tracer:
    """Span recorder; not thread-safe, as the benchmark is single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attr = array("q")
        self.current_request = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, span_name: str, fn):
        name_id = len(self.names)
        self.names.append(span_name)
        attr = ATTRIBUTES.get(span_name)
        if attr is None and span_name.startswith("core.MonomialIdeal."):
            attr = _mu
        t = self

        def traced(*args, **kwargs):
            k = len(t.start)
            t.name.append(name_id)
            t.parent.append(t._stack[-1])
            t.request.append(t.current_request)
            t.attr.append(0)
            t.end.append(0.0)
            t._stack.append(k)
            t.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t.end[k] = perf_counter()
                t._stack.pop()
            if attr is not None:
                t.attr[k] = attr(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap the public functions and METHODS of the stci modules."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [sys.modules["stci"]] + [sys.modules[f"stci.{m}"] for m in MODULES]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr_name, obj in list(vars(mod).items()):
                if (
                    not isinstance(obj, types.FunctionType)
                    or attr_name.startswith("_")
                    or obj.__name__.startswith("_")
                    or not obj.__module__.startswith("stci.")
                ):
                    continue
                home = obj.__module__.rsplit(".", 1)[1]
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(f"{home}.{obj.__name__}", obj)
                self._restore.append((mod, attr_name, obj))
                setattr(mod, attr_name, wrappers[id(obj)])
        for (home, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules[f"stci.{home}"], cls_name)
            for m in methods:
                original = cls.__dict__[m]
                self._restore.append((cls, m, original))
                setattr(cls, m, self._wrap(f"{home}.{cls_name}.{m}", original))

    def uninstall(self) -> None:
        for owner, attr_name, original in reversed(self._restore):
            setattr(owner, attr_name, original)
        self._restore.clear()

    def save(self, path) -> None:
        """Write the spans as a NumPy archive (one array per field)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            attr=np.frombuffer(self.attr, dtype=np.int64),
        )

    # -- derived metrics ---------------------------------------------------

    def layer_metrics(self, scale: list[float]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit).  Self times are
        multiplied by ``scale[request]``, the speed scale of the call they
        belong to.  Ratios with no calls behind them read 0."""
        n = len(self.start)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        attr = np.frombuffer(self.attr, dtype=np.int64)
        request = np.frombuffer(self.request, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=n)
        child_count = np.bincount(parent[has_parent], minlength=n)
        # request -1 (outside any call) picks the appended 1.0
        self_time = (dur - child_time) * np.append(scale, 1.0)[request]
        ids = {s: i for i, s in enumerate(self.names)}
        no_id = -1

        def mask(span_name: str) -> np.ndarray:
            return name == ids.get(span_name, no_id)

        def calls(span_name: str) -> int:
            return int(mask(span_name).sum())

        def self_s(span_name: str) -> float:
            return float(self_time[mask(span_name)].sum())

        def ratio(num: float, den: float) -> float:
            return float(num) / den if den else 0.0

        module_of = np.array([s.split(".", 1)[0] for s in self.names] or [""])
        span_module = module_of[name] if n else np.array([], dtype=str)

        def module_self(module: str) -> float:
            return float(self_time[span_module == module].sum())

        out: dict[str, tuple[float, str]] = {}

        def put(key: str, value, unit: str) -> None:
            out[key] = (value, unit)

        # core
        mul, pow_ = "core.MonomialIdeal.__mul__", "core.MonomialIdeal.__pow__"
        put("core.mul.calls", calls(mul), "count")
        put("core.mul.self_s", self_s(mul), "s")
        put("core.pow.self_s", self_s(pow_), "s")
        in_core = span_module == "core"
        parent_in_core = np.zeros(n, dtype=bool)
        parent_in_core[has_parent] = in_core[parent[has_parent]]
        top_core = in_core & ~parent_in_core
        put("core.gens_out", int(attr[top_core].sum()), "count")
        # decomposition
        for fn in ("minimal_primes", "irreducible_decomposition"):
            put(f"decomposition.{fn}.calls", calls(f"decomposition.{fn}"), "count")
            put(f"decomposition.{fn}.self_s", self_s(f"decomposition.{fn}"), "s")
        # homology
        for fn in ("lcm_lattice", "upper_koszul_complex", "reduced_homology_ranks",
                   "rank", "taylor_homology", "local_cohomology_nonvanishing"):
            put(f"homology.{fn}.calls", calls(f"homology.{fn}"), "count")
            put(f"homology.{fn}.self_s", self_s(f"homology.{fn}"), "s")
        put("homology.lattice_points",
            int(attr[mask("homology.lcm_lattice")].sum()), "count")
        rhr = mask("homology.reduced_homology_ranks")
        put("homology.homology_nonzero_ratio",
            ratio(attr[rhr].sum(), rhr.sum()), "ratio")
        rank = mask("homology.rank")
        put("homology.rank.nnz", int(attr[rank].sum()), "count")
        hr = mask("homology.ChainComplex.homology_ranks")
        rank_under_hr = rank & has_parent
        rank_under_hr[rank_under_hr] = hr[parent[rank_under_hr]]
        put("homology.rank.per_homology",
            ratio(rank_under_hr.sum(), hr.sum()), "ratio")
        # linfeas
        fp = mask("linfeas.feasible_point")
        put("linfeas.feasible_point.calls", int(fp.sum()), "count")
        put("linfeas.feasible_point.self_s", self_s("linfeas.feasible_point"), "s")
        put("linfeas.feasible_ratio", ratio(attr[fp].sum(), fp.sum()), "ratio")
        spread_id = ids.get("invariants.analytic_spread", no_id)
        under_spread = 0
        for k in np.flatnonzero(fp):
            p = parent[k]
            while p >= 0 and name[p] != spread_id:
                p = parent[p]
            under_spread += int(p >= 0)
        put("linfeas.calls_per_spread",
            ratio(under_spread, calls("invariants.analytic_spread")), "ratio")
        # invariants
        betti = mask("invariants.betti_numbers")
        put("invariants.betti_numbers.calls", int(betti.sum()), "count")
        put("invariants.betti_cache_hit_ratio",
            ratio((betti & (child_count == 0)).sum(), betti.sum()), "ratio")
        dispatch = {"split": 0, "taylor": 0, "lattice": 0}
        child_names: dict[int, set[str]] = {}
        for k in np.flatnonzero(has_parent & betti[np.maximum(parent, 0)]):
            child_names.setdefault(int(parent[k]), set()).add(self.names[name[k]])
        for children in child_names.values():
            if "homology.taylor_homology" in children:
                dispatch["taylor"] += 1
            elif children & {"homology.koszul_betti_totals", "homology.koszul_betti"}:
                dispatch["lattice"] += 1
            elif "invariants.betti_numbers" in children:
                dispatch["split"] += 1
        for key, value in dispatch.items():
            put(f"invariants.dispatch.{key}", value, "count")
        for fn in ("analytic_spread", "schmitt_vogel_upper", "min_depth_powers"):
            put(f"invariants.{fn}.self_s", self_s(f"invariants.{fn}"), "s")
        depth = mask("invariants.depth") & has_parent
        depth[depth] = mask("invariants.min_depth_powers")[parent[depth]]
        put("invariants.powers_examined", int(depth.sum()), "count")
        # parser, verification, cli
        put("parser.self_s", module_self("parser"), "s")
        for checker, span_name in CHECKERS.items():
            put(f"verification.{checker}.self_s", self_s(span_name), "s")
        put("cli.main.calls", calls("cli.main"), "count")
        put("cli.self_s", module_self("cli"), "s")
        put("trace.spans", n, "count")
        return out
