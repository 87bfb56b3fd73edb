"""The benchmark under perfbench/ traces mgsim functions by name.

`perfbench/run.py --trace 1` wraps every (module, attr) pair listed in
`perfbench/metrics.py`'s SPANS and fails if one is missing, and
`perfbench/workloads.py` warms the `fields` caches by name, so a rename in
the package must not slip past the test suite.  The files are parsed, not
imported: they import perfbench's own helpers by bare module name.
"""

import ast
import importlib
from pathlib import Path

METRICS = Path(__file__).resolve().parent.parent / "perfbench" / "metrics.py"


def _spans():
    tree = ast.parse(METRICS.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["SPANS"]):
            return [(pair.elts[0].id, pair.elts[1].value)
                    for pair in node.value.elts]
    raise AssertionError(f"no SPANS list in {METRICS}")


def test_traced_spans_resolve():
    spans = _spans()
    assert len(spans) >= 20
    for module, attr in spans:
        mod = importlib.import_module(f"mgsim.{module}")
        assert callable(getattr(mod, attr, None)), f"mgsim.{module}.{attr}"


WORKLOADS = METRICS.with_name("workloads.py")


def _fields_references():
    """Every attribute name read off ``fields`` in perfbench/workloads.py."""
    tree = ast.parse(WORKLOADS.read_text())
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "fields"}


def test_workload_fields_names_resolve():
    # the workloads warm the grid caches by name before they time anything
    names = _fields_references()
    assert {"wavenumbers", "ksq_array", "dealias_mask", "mode_weights",
            "multiplier_arrays", "plane_mask"} <= names
    fields = importlib.import_module("mgsim.fields")
    for name in sorted(names):
        assert callable(getattr(fields, name, None)), f"mgsim.fields.{name}"
    # perfbench reads the multiplier cache's hit ratio from cache_info()
    assert callable(getattr(fields.multiplier_arrays, "cache_info", None))
