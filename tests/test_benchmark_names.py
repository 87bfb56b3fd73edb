"""The benchmark under perfbench/ traces mgsim functions by name.

`perfbench/run.py --trace 1` wraps every (module, attr) pair listed in
`perfbench/metrics.py`'s SPANS and fails if one is missing, and
`perfbench/workloads.py` warms the `fields` caches by name, and the
record's callees in `RECORD_CALLEES` are timed where `run` looks them up, and
its solver workloads are timed through every lookup site of `solver.run`, so
a rename or a bypassed lookup in the package must not slip past the test
suite.  The files are parsed, not
imported: they import perfbench's own helpers by bare module name.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

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


def _record_callees():
    """perfbench's RECORD_CALLEES, which it builds as ``NORMS + (...)``."""
    scope = {}
    for node in ast.parse(METRICS.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None)
                in ("NORMS", "RECORD_CALLEES")):
            expr = compile(ast.Expression(node.value), str(METRICS), "eval")
            scope[node.targets[0].id] = eval(expr, {"__builtins__": {}},
                                             scope)
    return scope["RECORD_CALLEES"]


def test_record_calls_every_traced_callee_through_solver(monkeypatch):
    # perfbench times `run`'s record by its edges to these callees, which it
    # wraps where `run` looks them up: in mgsim.solver's namespace
    from mgsim.fields import Grid, PlaneSpec, cosine_mode, sine_vertical
    from mgsim.symbol import PhysParams
    import mgsim.solver as solver

    callees = _record_callees()
    assert len(callees) == 6
    calls = dict.fromkeys(callees, 0)
    for name in callees:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"mgsim.{module}"), attr)
        assert getattr(solver, attr) is fn, f"mgsim.solver.{attr}"

        def counted(*args, name=name, fn=fn, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(solver, attr, counted)
    grid = Grid(16, 16, 16)
    background = sine_vertical(grid, 1)
    config = solver.SolverConfig(
        dt=0.01, t_end=0.05, record_every=1, plane=PlaneSpec(1, 1),
        source=solver.SourceSpec("steady_balance"))
    solver.run(background + cosine_mode(grid, (1, 1, 1), 1e-3),
               PhysParams(eps_kappa=0.05), config, reference=background)
    # six records; l2_norm twice per record, for the state and the reference
    assert calls == {name: 12 if name == "fields.l2_norm" else 6
                     for name in callees}


@pytest.mark.parametrize("drive", [
    lambda ex, par: ex.instability(par(eps_kappa=0.01), box=2, n=32,
                                   t_end=0.1, record_every=5, fit_start=0.0),
    lambda ex, par: ex.plane_demo(n=16, dt=0.05, t_end=0.5, record_every=2),
], ids=["instability", "plane_demo"])
def test_solver_workloads_call_run_through_a_lookup_site(monkeypatch, drive):
    # perfbench wraps every module attribute of mgsim that is solver.run,
    # reads each call's config (third argument or keyword) and the times of
    # the diagnostics it returns, and takes throughput as a median over
    # those calls: the function a solver workload times must make one or more
    import mgsim.experiments as experiments
    import mgsim.solver as solver
    from mgsim.fields import SpectralField
    from mgsim.symbol import PhysParams

    run, calls = solver.run, []

    def logged(*args, **kwargs):
        out = run(*args, **kwargs)
        calls.append((args[2] if len(args) > 2 else kwargs["config"], out))
        return out

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mgsim":
            for attr, value in list(vars(module).items()):
                if value is run:
                    monkeypatch.setattr(module, attr, logged)
    drive(experiments, PhysParams)
    assert calls
    for config, out in calls:
        assert isinstance(config, solver.SolverConfig)
        final, diag = out
        assert isinstance(final, SpectralField)
        assert isinstance(diag, solver.Diagnostics)
        assert round(diag.times[-1] / config.dt) > 0
