"""Span tracer for one benchmark job, installed from outside the package.

fusionkit modules bind each other's functions by name (``from .repspace
import cached_module``), so wrapping a function only where it is defined
would miss most calls. ``install`` therefore replaces every module-level
binding of each traced function across all loaded ``fusionkit`` modules, and
wraps the ``RationalMatrix`` and ``DiskCache`` methods on their classes.

Each call records one span (name, start, end, parent span, job id). Spans
stay in memory until ``summary`` folds them into per-layer calls, self time
(duration minus the time covered by child spans) and counts such as
``linalg.matmul.scalar_mults``. Count hooks run outside the span they
count, so they never inflate that layer's self time; the little time they
take falls to the enclosing span and shows in ``trace.overhead_s``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# span name -> (module, attribute); "Class.method" attributes are wrapped on the class
TRACED = {
    "rootdata.build_root_system": ("fusionkit.rootdata", "build_root_system"),
    "rootdata.weyl_elements": ("fusionkit.rootdata", "weyl_elements"),
    "multiplicity.weyl_dimension": ("fusionkit.multiplicity", "weyl_dimension"),
    "multiplicity.weight_diagram": ("fusionkit.multiplicity", "weight_diagram"),
    "multiplicity.freudenthal_diagram": ("fusionkit.multiplicity", "freudenthal_diagram"),
    "repspace.build_module": ("fusionkit.repspace", "build_module"),
    "repspace.build_theta_operators": ("fusionkit.repspace", "build_theta_operators"),
    "repspace.cached_module": ("fusionkit.repspace", "cached_module"),
    "repspace.operator_power_block": ("fusionkit.repspace", "operator_power_block"),
    "linalg.matmul": ("fusionkit.linalg", "RationalMatrix.__matmul__"),
    "linalg.rank": ("fusionkit.linalg", "RationalMatrix.rank"),
    "linalg.kernel": ("fusionkit.linalg", "RationalMatrix.kernel"),
    "linalg.inverse": ("fusionkit.linalg", "RationalMatrix.inverse"),
    "tensor.tensor_decompose": ("fusionkit.tensor", "tensor_decompose"),
    "tensor.tensor_multiplicity": ("fusionkit.tensor", "tensor_multiplicity"),
    "fusion.fusion_coefficient": ("fusionkit.fusion", "fusion_coefficient"),
    "fusion.walton_dimension": ("fusionkit.fusion", "walton_dimension"),
    "fusion.kac_walton_coefficient": ("fusionkit.fusion", "kac_walton_coefficient"),
    "fusion.affine_fold": ("fusionkit.fusion", "affine_fold"),
    "fusion.fz_dimension": ("fusionkit.fusion", "fz_dimension"),
    "cache.load_table": ("fusionkit.cache", "DiskCache.load_table"),
    "cache.store_table": ("fusionkit.cache", "DiskCache.store_table"),
    "cli.main": ("fusionkit.cli", "main"),
}

# Counts that combine across jobs by maximum; every other count is summed.
MAX_COUNTS = {
    "repspace.build_module.max_dim",
    "repspace.build_module.max_mult",
    "linalg.rank.max_rows",
    "linalg.rank.max_cols",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index, job id); parents precede children
        self.stack: list[int] = []
        self.job_id = 0
        self.enabled = True
        self.counts: dict[str, int] = defaultdict(int)
        self._seen: dict[int, object] = {}  # objects already returned by a memoising call

    def _first_return(self, obj) -> bool:
        """True the first time a memoising call hands out this object."""
        if id(obj) in self._seen:
            return False
        self._seen[id(obj)] = obj
        return True

    def wrap(self, name: str, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job_id)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Calls, self time per span name, the counts, and the time of top-level spans."""
        spans = self.spans
        covered = [0.0] * len(spans)
        in_root_system = [False] * len(spans)
        computed = set()  # fusion_coefficient spans that reached walton_dimension
        counts = dict(self.counts)
        counts["linalg.outside_build_root_system"] = 0
        layers: dict[str, dict] = {}
        top_s = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                covered[parent] += end - start
                in_root_system[i] = in_root_system[parent]
                if name == "fusion.walton_dimension" and spans[parent][0] == "fusion.fusion_coefficient":
                    computed.add(parent)
            else:
                top_s += end - start
            if name == "rootdata.build_root_system":
                in_root_system[i] = True
            elif name.startswith("linalg.") and not in_root_system[i]:
                counts["linalg.outside_build_root_system"] += 1
        for (name, start, end, _, _), child_s in zip(spans, covered):
            layer = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            layer["calls"] += 1
            layer["self_s"] += end - start - child_s
        fc_calls = layers.get("fusion.fusion_coefficient", {"calls": 0})["calls"]
        counts["fusion.fusion_coefficient.zeros"] = fc_calls - len(computed)
        return {"layers": layers, "counts": counts, "top_s": top_s}


# -- count hooks ---------------------------------------------------------------

def _after_weight_diagram(tr, args, kwargs, result):
    if not tr._first_return(result):
        tr.counts["multiplicity.weight_diagram.hits"] += 1


def _after_weyl_elements(tr, args, kwargs, result):
    if tr._first_return(result):
        tr.counts["rootdata.weyl_elements.elements"] += len(result)


def _after_build_module(tr, args, kwargs, result):
    c = tr.counts
    dim = result.dimension
    c["repspace.build_module.dim_sum"] += dim
    c["repspace.build_module.max_dim"] = max(c["repspace.build_module.max_dim"], dim)
    mult = max(result.diagram.table.values())
    c["repspace.build_module.max_mult"] = max(c["repspace.build_module.max_mult"], mult)


def _after_cached_module(tr, args, kwargs, result):
    if not tr._first_return(result):
        tr.counts["repspace.cached_module.hits"] += 1


def _before_power_block(tr, args, kwargs):
    p = args[2] if len(args) > 2 else kwargs["p"]
    tr.counts["repspace.operator_power_block.power_sum"] += p


def _before_matmul(tr, args, kwargs):
    a, b = args
    tr.counts["linalg.matmul.scalar_mults"] += a.rows * a.cols * b.cols


def _before_rank(tr, args, kwargs):
    m = args[0]
    c = tr.counts
    c["linalg.rank.max_rows"] = max(c["linalg.rank.max_rows"], m.rows)
    c["linalg.rank.max_cols"] = max(c["linalg.rank.max_cols"], m.cols)


def _before_tensor_multiplicity(tr, args, kwargs):
    tr.counts["tensor.tensor_multiplicity.weyl_terms"] += args[0].weyl_order


def _table_bytes(cache, rs, level) -> int:
    from fusionkit.cache import table_key

    path = cache._path(table_key(str(rs.cartan_type), level))
    return path.stat().st_size if path.exists() else 0


def _after_load_table(tr, args, kwargs, result):
    if result is not None:
        cache, rs, level = args
        tr.counts["cache.load_table.hits"] += 1
        tr.counts["cache.load_table.bytes"] += _table_bytes(cache, rs, level)


def _after_store_table(tr, args, kwargs, result):
    cache, rs, table = args
    tr.counts["cache.store_table.bytes"] += _table_bytes(cache, rs, table.level)


HOOKS = {
    "multiplicity.weight_diagram": (None, _after_weight_diagram),
    "rootdata.weyl_elements": (None, _after_weyl_elements),
    "repspace.build_module": (None, _after_build_module),
    "repspace.cached_module": (None, _after_cached_module),
    "repspace.operator_power_block": (_before_power_block, None),
    "linalg.matmul": (_before_matmul, None),
    "linalg.rank": (_before_rank, None),
    "tensor.tensor_multiplicity": (_before_tensor_multiplicity, None),
    "cache.load_table": (None, _after_load_table),
    "cache.store_table": (None, _after_store_table),
}


def install(tracer: Tracer) -> None:
    """Wrap every traced function at each of its import sites."""
    import fusionkit.cache  # noqa: F401  (loads every module that binds a traced name)
    import fusionkit.cli  # noqa: F401
    import fusionkit.verify  # noqa: F401

    modules = [m for n, m in sys.modules.items() if n == "fusionkit" or n.startswith("fusionkit.")]
    for name, (module_name, attr) in TRACED.items():
        before, after = HOOKS.get(name, (None, None))
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), before, after))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, before, after)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
