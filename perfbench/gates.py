"""Independent oracles and the gates that check mgsim's outputs against them.

The oracle for every growth rate is ``eigen.dense_sigma_star``: the largest
eigenvalue of the truncated recursion from a dense symmetric-definite
eigensolver, which shares no code path with the continued-fraction root
finder it checks.  Before an oracle value is trusted, its truncation depth
is shown to be converged: sigma* at depth d and 2d must agree to
``CONVERGED_REL`` on a set of probe modes (the corners of the box).

Every gate returns a list of failure messages; an empty list is a pass.
Gates compare against oracle values computed for the inputs of the run,
never against frozen numbers, except for the criterion-09 argmax, which
is checked in addition when the seed is 0.
"""

from mgsim import eigen

ORACLE_DEPTH = 128
CONVERGED_REL = 1e-12

EIGEN_REL = 1e-9  # tabulated or reported sigma* against the oracle
INSTABILITY_FIT_REL = 1e-4  # nonlinear fitted rate against sigma*
INSTABILITY_MIN_R2 = 0.9999
PLANE_CONTROL_REL = 0.15  # control arm fitted rate against sigma*(1,2)
LINEARIZED_FIT_REL = 1e-9  # linearized fitted rate against sigma*


def rel_err(value, ref):
    return abs(value - ref) / abs(ref)


def box_corners(box):
    return [(1, 1), (1, box), (box, 1), (box, box)]


def convergence_failures(params, probes, depth=ORACLE_DEPTH):
    """Probe modes whose oracle sigma* moves between depth and 2*depth."""
    out = []
    for k1, k2 in probes:
        a = eigen.dense_sigma_star(k1, k2, params, depth)
        b = eigen.dense_sigma_star(k1, k2, params, 2 * depth)
        if not abs(a - b) <= CONVERGED_REL * max(abs(a), abs(b)):
            out.append(f"oracle not converged at depth {depth} on mode "
                       f"({k1},{k2}): {a!r} vs {b!r} at depth {2 * depth}")
    return out


def oracle_sigmas(params, modes, depth=ORACLE_DEPTH):
    return {(k1, k2): eigen.dense_sigma_star(k1, k2, params, depth)
            for k1, k2 in modes}


def box_modes(box):
    return [(k1, k2) for k1 in range(1, box + 1) for k2 in range(1, box + 1)]


def table_gate(table, oracle):
    """Check an ``optimize_growth`` table against oracle sigma* over its box.

    Returns (wrong, missing).  A tabulated mode is wrong when its sigma*
    differs from the oracle by more than ``EIGEN_REL`` or when the oracle
    says it is stable.  An unstable oracle mode absent from the table is
    missing: a failed operation, but not a wrong value.
    """
    got = {(row[0], row[1]): row[2] for row in table}
    wrong, missing = [], []
    for mode, ref in oracle.items():
        if mode in got:
            if ref <= 0.0 or rel_err(got[mode], ref) > EIGEN_REL:
                wrong.append(mode)
        elif ref > 0.0:
            missing.append(mode)
    wrong.extend(mode for mode in got if mode not in oracle)
    return wrong, missing


def instability_gate(report, oracle, seed):
    """Criterion-09 checks on one ``experiments.instability`` report."""
    best = max(oracle, key=oracle.get)
    sigma = oracle[best]
    out = []
    if (report.k1, report.k2) != best:
        out.append(f"argmax ({report.k1},{report.k2}) != oracle argmax {best}")
    if seed == 0 and best != (9, 4):
        out.append(f"oracle argmax {best} != criterion-09 argmax (9, 4)")
    if rel_err(report.sigma_star, sigma) > EIGEN_REL:
        out.append(f"reported sigma* {report.sigma_star!r} != oracle {sigma!r}")
    if rel_err(report.fitted_rate, sigma) > INSTABILITY_FIT_REL:
        out.append(f"fitted rate {report.fitted_rate!r} off sigma* {sigma!r} "
                   f"by rel {rel_err(report.fitted_rate, sigma):.3g}")
    if not report.r_squared > INSTABILITY_MIN_R2:
        out.append(f"fit r^2 {report.r_squared!r} <= {INSTABILITY_MIN_R2}")
    return out


def plane_gate(report, sigma_control):
    """Criterion-12 checks: one failure list per run call (arms, control)."""
    per_run = []
    for arm in report.arms:
        per_run.append([] if arm.off_plane_max == 0.0 else [
            f"restricted arm gamma={arm.gamma} leaked off the plane: "
            f"off_plane_max = {arm.off_plane_max!r}"])
    control = []
    if rel_err(report.control_sigma_ref, sigma_control) > EIGEN_REL:
        control.append(f"control sigma* {report.control_sigma_ref!r} != "
                       f"oracle {sigma_control!r}")
    if rel_err(report.control_rate, sigma_control) > PLANE_CONTROL_REL:
        control.append(f"control rate {report.control_rate!r} off sigma* "
                       f"{sigma_control!r} by rel "
                       f"{rel_err(report.control_rate, sigma_control):.3g}")
    per_run.append(control)
    return per_run


def linearized_gate(sigma_solved, rate, sigma):
    out = []
    if rel_err(sigma_solved, sigma) > EIGEN_REL:
        out.append(f"solved sigma* {sigma_solved!r} != oracle {sigma!r}")
    if rel_err(rate, sigma) > LINEARIZED_FIT_REL:
        out.append(f"linearized rate {rate!r} off sigma* {sigma!r} by rel "
                   f"{rel_err(rate, sigma):.3g}")
    return out
