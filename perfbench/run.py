"""mgsim benchmark: one workload per process, every output gated by an oracle.

Run from the repository root:

    python3 perfbench/run.py --workload instability_48 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # all four, one process each

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it give the inputs, machine facts, computed transform
costs, gate results and every metric with its unit.  See README.md.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported (here or in
# the import-timing interpreters, which inherit this environment).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ["instability_48", "plane_24", "linearized_48", "eigen_box"]
IMPORT_REPEATS = 3
SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import mgsim.experiments; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds():
    """Median time to import mgsim in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def machine_facts():
    import numpy
    import scipy

    facts = {"nproc": os.cpu_count(),
             "cpus_usable": len(os.sched_getaffinity(0)),
             "cpu_model": None, "l2_bytes": None, "l3_bytes": None,
             "python": platform.python_version(),
             "numpy": numpy.__version__, "scipy": scipy.__version__,
             "src_lines": sum(len(p.read_text().splitlines())
                              for p in sorted(SRC.rglob("*.py")))}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()  # e.g. "4096K"
        except OSError:
            continue
        if level in ("2", "3") and size:
            scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1])
            facts[f"l{level}_bytes"] = (int(size[:-1]) * scale if scale
                                        else int(size))
    return facts


def clear_caches():
    """Empty every lru cache in mgsim so the next set-up starts cold."""
    for name, mod in list(sys.modules.items()):
        if name == "mgsim" or name.startswith("mgsim."):
            for val in list(vars(mod).values()):
                if callable(getattr(val, "cache_clear", None)):
                    val.cache_clear()


class Rep:
    """One timed operation: its output, wall time, runs and layer numbers.

    ``scale`` turns its measured seconds into seconds at the calibration
    kernel's reference speed (see calibration.py).
    """

    def __init__(self, traced, wall, out, runs, layers):
        self.traced, self.wall, self.out = traced, wall, out
        self.runs, self.layers = runs, layers
        self.scale = None
        self.outcome = None


def one_rep(wl, state, traced):
    from mgsim import solver

    import metrics
    from spans import Patches

    patches = Patches()
    probe = metrics.LayerProbe() if traced else None
    try:
        if probe is not None:
            probe.install(patches)
        log = metrics.RunLog(probe.tracer if probe else None)
        patches.wrap(solver, "run", log.make)
        info0 = metrics.MULTIPLIER_CACHE.cache_info()
        t0 = time.perf_counter()
        out = wl.op(state)
        wall = time.perf_counter() - t0
        info1 = metrics.MULTIPLIER_CACHE.cache_info()
    finally:
        patches.restore()
    layers = None
    if probe is not None:
        hits = info1.hits - info0.hits
        lookups = hits + info1.misses - info0.misses
        layers = probe.values(log.entries, hits / lookups if lookups else 0.0)
    return Rep(traced, wall, out, log.entries, layers)


def measure(wl, state, seconds, trace):
    """Repeat the operation until another one would pass ``seconds``.

    With tracing, untraced and traced repetitions alternate and at least
    one of each is made.
    """
    reps = []
    start = time.perf_counter()
    kernel = calibration.kernel_seconds()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = one_rep(wl, state, traced)
        before, kernel = kernel, calibration.kernel_seconds()
        rep.scale = calibration.scale(before, kernel)
        reps.append(rep)
        if trace and len(reps) < 2:
            continue
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r.wall for r in reps) > seconds:
            return reps


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(args):
    if not (SRC / "mgsim" / "__init__.py").is_file():
        print(f"error: no mgsim package under {SRC}; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    kernel0 = calibration.kernel_seconds()
    import_s = import_seconds()
    import_scale = calibration.scale(kernel0, calibration.kernel_seconds())
    sys.path.insert(0, str(SRC))
    import mgsim

    if Path(mgsim.__file__).resolve().parent != (SRC / "mgsim").resolve():
        print(f"error: imported mgsim from {mgsim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import metrics
    import selftest
    from workloads import WORKLOADS

    problems = selftest.run_selftest()
    if problems:
        for p in problems:
            print(f"error: benchmark self-test: {p}", file=sys.stderr)
        return 3

    wl = WORKLOADS[args.workload](args.seed)
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("inputs " + json.dumps(wl.describe()))
    print("machine " + json.dumps(machine_facts()))
    for shape in wl.grid_shapes:
        cost = metrics.transform_cost(shape)
        print(f"transform cost (computed, not measured) on "
              f"{'x'.join(map(str, shape))}: {cost['flops']:.4g} flop, "
              f"{cost['bytes']} bytes per forward or inverse")

    oracle, oracle_failures = wl.oracle()

    setups = []
    state = None
    kernel0 = calibration.kernel_seconds()
    for _ in range(SETUP_REPEATS):
        clear_caches()
        t0 = time.perf_counter()
        state = wl.setup()
        setups.append(time.perf_counter() - t0)
    setup_scale = calibration.scale(kernel0, calibration.kernel_seconds())
    setup_raw = import_s + statistics.median(setups)
    setup_s = (import_s * import_scale
               + statistics.median(setups) * setup_scale)

    reps = measure(wl, state, args.seconds, bool(args.trace))

    # attempted and failed count the operations of one repetition, so that
    # they depend on the seed alone, not on how many repetitions fit in the
    # run.  Every repetition is gated, and one whose counts differ from the
    # first's makes the run incorrect.
    messages = list(oracle_failures)
    wrong = bool(oracle_failures)
    for rep in reps:
        rep.outcome = wl.gate(rep.out, oracle)
        wrong |= rep.outcome.wrong
        messages.extend(m for m in rep.outcome.messages if m not in messages)
    attempted, failed = reps[0].outcome.attempted, reps[0].outcome.failed
    for i, rep in enumerate(reps[1:], start=2):
        if (rep.outcome.attempted, rep.outcome.failed) != (attempted, failed):
            wrong = True
            messages.append(
                f"repetition {i} gave {rep.outcome.failed} failed of "
                f"{rep.outcome.attempted}, repetition 1 {failed} of "
                f"{attempted}: the same inputs gave different outcomes")
    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    walls = [r.wall for r in plain]
    rates = [x for r in plain for x in wl.throughput(r)]
    e2e = {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.wall * r.scale for r in plain),
        "throughput": statistics.median(
            x / r.scale for r in plain for x in wl.throughput(r)),
        "solved_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }

    print(f"repetitions: {len(plain)} untraced, {len(traced)} traced; "
          f"operations attempted {attempted}, failed {failed}, "
          f"failed_ratio {failed / attempted:.6g} "
          f"(base: {wl.operation} of one repetition; all "
          f"{len(reps)} gave these counts)")
    print(f"as measured, before scaling to the reference speed: setup "
          f"{setup_raw:.6g} s; {len(walls)} operations, wall median "
          f"{statistics.median(walls):.6g} s (fastest {min(walls):.6g} s); "
          f"{len(rates)} throughput samples, median "
          f"{statistics.median(rates):.6g}/s; speed scale median "
          f"{statistics.median(r.scale for r in reps):.4g}")
    for m in messages:
        print(f"gate: {m}")
    for name, unit, _, _, meaning in metrics.END_TO_END:
        print(f"{name} = {fmt(e2e[name])} {unit}  [{meaning}]")

    if args.trace:
        seconds = {n for n, u, _, _ in metrics.PER_LAYER if u == "s"}
        layers = {key: statistics.median(
            r.layers[key] * (r.scale if key in seconds else 1.0)
            for r in traced) for key in traced[0].layers}
        layers["tracing.overhead_s"] = statistics.median(
            r.wall * r.scale for r in traced) - e2e["wall_s"]
        runs = [e for r in traced for e in r.runs]
        missed, formula = metrics.transform_count_checks(runs)
        if runs:
            print("transform counts: wrappers "
                  + ("missed calls" if missed else "saw every call")
                  + "; formula 24S+10R / 4S+R (nonlinear), 4S+R / 4S "
                  "(linearized): "
                  + ("differs" if formula else f"matches on {len(runs)} runs"))
        for m in missed + formula:
            print(f"transform counts: {m}")
        wrong |= bool(missed)
        for name, unit, _, meaning in metrics.PER_LAYER:
            print(f"{name} = {fmt(layers[name])} {unit}  [{meaning}]")
        chosen = {n: (layers[n], u) for n, u, _, _ in metrics.PER_LAYER}
    else:
        chosen = {n: (e2e[n], u) for n, u, _, _, _ in metrics.END_TO_END}
    print("gate: FAIL (an output contradicts the oracle or the trace)" if wrong
          else "gate: PASS (no output contradicts the oracle)")

    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": u}
                          for n, (v, u) in chosen.items()}}
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Every workload in its own process, then a summary table."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"  {line}")
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            print(f"{name}: exited with code {proc.returncode}")
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        cells = ", ".join(f"{k} = {fmt(v['value'])} {v['unit']}"
                          for k, v in res["metrics"].items())
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}: {cells}")
    if status:
        return status
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()}}), flush=True)
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
