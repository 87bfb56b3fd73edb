"""Self-test of the benchmark's gates: each must fail on a known-bad input.

Every benchmark run calls ``run_selftest`` before measuring and refuses to
report if any check here fails.  To run it alone, from the repository root:

    python3 perfbench/selftest.py
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
PERTURBATION = 1e-8  # relative; 10x the sigma* gate tolerance
SHALLOW_DEPTH = 8


def run_selftest():
    """Returns a list of problems; empty when every gate behaves."""
    from mgsim.symbol import PhysParams

    import gates
    import metrics

    problems = []
    params = PhysParams(eps_kappa=0.0)
    probes = gates.box_corners(32) + [(24, 7)]

    # A converged oracle passes the depth check; a too-shallow one fails it.
    if gates.convergence_failures(params, probes):
        problems.append(f"oracle at depth {gates.ORACLE_DEPTH} not converged")
    if not gates.convergence_failures(params, probes, depth=SHALLOW_DEPTH):
        problems.append(f"depth-{SHALLOW_DEPTH} oracle passed the depth check")

    # The eigen table gate: exact table passes, a perturbed sigma* is wrong,
    # a dropped unstable mode is missing.
    oracle = gates.oracle_sigmas(params, gates.box_modes(3))
    table = [(k1, k2, s) for (k1, k2), s in oracle.items()]
    if gates.table_gate(table, oracle) != ([], []):
        problems.append("oracle table did not pass the table gate")
    k1, k2, s = table[4]
    bent = table[:4] + [(k1, k2, s * (1.0 + PERTURBATION))] + table[5:]
    if gates.table_gate(bent, oracle)[0] != [(k1, k2)]:
        problems.append("perturbed sigma* passed the table gate")
    if gates.table_gate(table[1:], oracle)[1] != [table[0][:2]]:
        problems.append("dropped unstable mode was not reported missing")

    # The instability and linearized gates reject a perturbed sigma*.
    best = max(oracle, key=oracle.get)
    sigma = oracle[best]
    report = SimpleNamespace(k1=best[0], k2=best[1], sigma_star=sigma,
                             fitted_rate=sigma, r_squared=1.0)
    if gates.instability_gate(report, oracle, seed=1):
        problems.append("exact instability report failed its gate")
    report.sigma_star = sigma * (1.0 + PERTURBATION)
    if not gates.instability_gate(report, oracle, seed=1):
        problems.append("perturbed sigma* passed the instability gate")
    if gates.linearized_gate(sigma, sigma, sigma):
        problems.append("exact linearized rate failed its gate")
    if not gates.linearized_gate(sigma, sigma * (1.0 + PERTURBATION), sigma):
        problems.append("perturbed linearized rate passed its gate")

    problems.extend(_benchmark_json_problems(metrics))
    return problems


def _benchmark_json_problems(metrics):
    """BENCHMARK.json must list exactly the metrics this code reports."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return [f"{path.name} is missing"]
    spec = json.loads(path.read_text())
    out = []
    e2e = [{"name": n, "unit": u, "better": b, "bound": bound}
           for n, u, b, bound, _ in metrics.END_TO_END]
    layers = [{"name": n, "unit": u, "better": b}
              for n, u, b, _ in metrics.PER_LAYER]
    if spec.get("end_to_end") != e2e:
        out.append("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    if spec.get("per_layer") != layers:
        out.append("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    found = run_selftest()
    for problem in found:
        print(f"FAIL: {problem}")
    print("selftest: " + ("FAIL" if found else "PASS"))
    sys.exit(1 if found else 0)
