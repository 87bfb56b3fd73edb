"""The benchmark under perfbench/ traces mgsim functions by name.

`perfbench/run.py --trace 1` wraps every (module, attr) pair listed in
`perfbench/metrics.py`'s SPANS and fails if one is missing, so a rename in
the package must not slip past the test suite.  The file is parsed, not
imported: it imports perfbench's own helpers by bare module name.
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
