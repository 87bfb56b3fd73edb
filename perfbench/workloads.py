"""The four benchmark workloads: inputs from a seed, set-up, timed operation, gate.

Seed 0 is the acceptance-criterion configuration of each workload.  Other
seeds perturb physical inputs by a few per cent (never a size, a box or a
step count), so each run does the same amount of work, every gate stays
valid and the dominant layer stays the same.  See README.md for why each
workload was chosen and which layers it stresses or bypasses.

Every call into mgsim goes through a module attribute (``solver.run``,
not a name bound at import time), so the tracer's wrappers see it.
"""

import random
from dataclasses import dataclass

import numpy as np

from mgsim import eigen, experiments, fields, solver
from mgsim.symbol import PhysParams

import gates


@dataclass
class Outcome:
    """Gate result of one timed operation."""

    attempted: int
    failed: int
    wrong: bool  # the program returned a value the oracle contradicts
    messages: list


def _jitter(rng, seed, base, rel):
    """base at seed 0, else base * (1 + U(-rel, rel))."""
    return base if seed == 0 else base * (1.0 + rng.uniform(-rel, rel))


def _log_scale(rng, seed, base):
    """base at seed 0, else base * 2^U(-1, 1)."""
    return base if seed == 0 else base * 2.0 ** rng.uniform(-1.0, 1.0)


def _warm_grid(grid, n2, plane=None):
    """Fill the grid's lru caches and make the first pair of transforms."""
    for cached in (fields.wavenumbers, fields.ksq_array, fields.dealias_mask,
                   fields.mode_weights):
        cached(grid)
    fields.multiplier_arrays(grid, n2)
    if plane is not None:
        fields.plane_mask(grid, plane)
    fields.inverse(grid, fields.forward(grid, np.zeros(grid.shape)))


class _SolverWorkload:
    operation = "solver.run calls"

    def throughput(self, rep):
        """IF-RK4 steps per second spent inside solver.run, one per run call."""
        return [e["steps"] / e["wall"] for e in rep.runs]


class Instability(_SolverWorkload):
    name = "instability_48"
    grid_shapes = [(48, 48, 48)]
    BOX, N, DT, T_END, RECORD_EVERY = 12, 48, 0.01, 0.5, 20

    def __init__(self, seed):
        rng = random.Random(seed)
        self.seed = seed
        self.eps_kappa = _jitter(rng, seed, 0.01, 0.03)
        self.seed_rel = _log_scale(rng, seed, 1e-6)
        self.params = PhysParams(eps_kappa=self.eps_kappa)

    def describe(self):
        return {"eps_kappa": self.eps_kappa, "seed_rel": self.seed_rel,
                "box": self.BOX, "n": self.N, "dt": self.DT,
                "t_end": self.T_END, "record_every": self.RECORD_EVERY}

    def oracle(self):
        table = gates.oracle_sigmas(self.params, gates.box_modes(self.BOX))
        probes = gates.box_corners(self.BOX) + [max(table, key=table.get)]
        return table, gates.convergence_failures(self.params, probes)

    def setup(self):
        _warm_grid(fields.Grid(self.N, self.N, self.N), self.params.n2)

    def op(self, state):
        return experiments.instability(
            self.params, box=self.BOX, n=self.N, dt=self.DT, t_end=self.T_END,
            seed_rel=self.seed_rel, fit_start=0.0,
            record_every=self.RECORD_EVERY)

    def gate(self, report, oracle):
        msgs = gates.instability_gate(report, oracle, self.seed)
        return Outcome(1, int(bool(msgs)), bool(msgs), msgs)


class Plane(_SolverWorkload):
    name = "plane_24"
    grid_shapes = [(24, 24, 24)]
    PLANE, GAMMAS, CONTROL = (1, 1), (0.3, 0.5, 0.8), (1, 2, 1)
    N, DT, T_END = 24, 0.01, 3.0

    def __init__(self, seed):
        rng = random.Random(seed)
        self.seed = seed
        self.eps_kappa = _jitter(rng, seed, 0.02, 0.05)
        self.seed_amp = _log_scale(rng, seed, 1e-4)

    def describe(self):
        return {"eps_kappa": self.eps_kappa, "seed_amplitude": self.seed_amp,
                "plane": "1/1", "gammas": list(self.GAMMAS),
                "control_mode": list(self.CONTROL), "n": self.N,
                "dt": self.DT, "t_end": self.T_END}

    def oracle(self):
        params = PhysParams(eps_kappa=self.eps_kappa, gamma=self.GAMMAS[0])
        mode = self.CONTROL[:2]
        sigma = gates.oracle_sigmas(params, [mode])[mode]
        return sigma, gates.convergence_failures(params, [mode])

    def setup(self):
        _warm_grid(fields.Grid(self.N, self.N, self.N), 1.0,
                   fields.PlaneSpec(*self.PLANE))

    def op(self, state):
        return experiments.plane_demo(
            plane=fields.PlaneSpec(*self.PLANE), gammas=self.GAMMAS,
            eps_kappa=self.eps_kappa, n=self.N, dt=self.DT, t_end=self.T_END,
            seed=self.seed_amp, control_mode=self.CONTROL)

    def gate(self, report, sigma_control):
        per_run = gates.plane_gate(report, sigma_control)
        msgs = [m for run_msgs in per_run for m in run_msgs]
        return Outcome(len(per_run), sum(bool(m) for m in per_run),
                       bool(msgs), msgs)


class Linearized(_SolverWorkload):
    name = "linearized_48"
    grid_shapes = [(48, 48, 48)]
    MODE, N, DT, T_END, RECORD_EVERY = (6, 4), 48, 0.01, 2.0, 20

    def __init__(self, seed):
        rng = random.Random(seed)
        self.seed = seed
        self.eps_kappa = _jitter(rng, seed, 0.01, 0.03)
        self.amplitude = _log_scale(rng, seed, 1.0)
        self.params = PhysParams(eps_kappa=self.eps_kappa)

    def describe(self):
        return {"eps_kappa": self.eps_kappa, "amplitude": self.amplitude,
                "mode": list(self.MODE), "n": self.N, "dt": self.DT,
                "t_end": self.T_END, "record_every": self.RECORD_EVERY}

    def oracle(self):
        sigma = gates.oracle_sigmas(self.params, [self.MODE])[self.MODE]
        return sigma, gates.convergence_failures(self.params, [self.MODE])

    def setup(self):
        grid = fields.Grid(self.N, self.N, self.N)
        _warm_grid(grid, self.params.n2)
        config = solver.SolverConfig(dt=self.DT, t_end=self.T_END,
                                     record_every=self.RECORD_EVERY,
                                     linearized=True)
        return grid, config

    def op(self, state):
        grid, config = state
        sol = eigen.solve_sigma_star(*self.MODE, self.params)
        phi = eigen.assemble_eigenfunction(sol, grid) * self.amplitude
        _, diag = solver.run(phi, self.params, config)
        rate, _ = solver.growth_rate_fit(diag, 0.0, self.T_END, "l2")
        return sol.sigma_star, rate

    def gate(self, out, sigma):
        msgs = gates.linearized_gate(*out, sigma)
        return Outcome(1, int(bool(msgs)), bool(msgs), msgs)


class EigenBox:
    name = "eigen_box"
    operation = "box modes"
    grid_shapes = []
    BOX = 32

    def __init__(self, seed):
        rng = random.Random(seed)
        self.seed = seed
        self.n2 = _jitter(rng, seed, 1.0, 0.02)
        self.params = PhysParams(n2=self.n2, eps_kappa=0.0)

    def describe(self):
        return {"n2": self.n2, "eps_kappa": 0.0, "box": self.BOX}

    def oracle(self):
        probes = gates.box_corners(self.BOX) + [(24, 7)]
        table = gates.oracle_sigmas(self.params, gates.box_modes(self.BOX))
        return table, gates.convergence_failures(self.params, probes)

    def setup(self):
        eigen.closed_form_bounds(1, 1, self.params)
        eigen.solve_sigma_star(1, 1, self.params)

    def op(self, state):
        return eigen.optimize_growth(self.params, box=self.BOX)

    def throughput(self, rep):
        """Modes resolved correctly per second of optimize_growth."""
        return [(rep.outcome.attempted - rep.outcome.failed) / rep.wall]

    def gate(self, result, oracle):
        wrong, missing = gates.table_gate(result.table, oracle)
        msgs = []
        if wrong:
            msgs.append(f"{len(wrong)} tabulated modes contradict the oracle, "
                        f"first {wrong[:5]}")
        if missing:
            msgs.append(f"{len(missing)} of {len(oracle)} modes are unstable "
                        f"by the oracle but missing from the table, "
                        f"first {missing[:5]}")
        return Outcome(len(oracle), len(wrong) + len(missing), bool(wrong),
                       msgs)


WORKLOADS = {cls.name: cls for cls in (Instability, Plane, Linearized,
                                       EigenBox)}
