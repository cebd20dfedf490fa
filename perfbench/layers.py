"""Per-layer metrics computed from a traced run's summary.

A layer is a weakforce module. Span keys are "<module>.<function>" (plus the
"action.objective" and "action.precond" callbacks), so a layer's self time is
the summed self time of its keys. Which end-to-end metric each of these
should move, on which workload, is written down in README.md.
"""

from __future__ import annotations

LAYERS = (
    "cli", "fileio", "metric", "hyperbolic", "validators", "action",
    "optimize", "dynamics", "configspace", "presets", "seeding",
)
STATUSES = (
    "converged", "inner-not-converged", "line-search-failure", "transversality-miss",
    "degenerate-endpoints", "boundary-time-floor", "bracket-failure",
)
SUITES = ("run_norm_suite", "run_ray_suite", "run_perturbation_suite", "run_all_suites")


def _calls(stats, key):
    return stats.get(key, (0, 0.0, 0.0))[0]


def _incl(stats, *keys):
    return sum(stats.get(k, (0, 0.0, 0.0))[1] for k in keys)


def _self(stats, *keys):
    return sum(stats.get(k, (0, 0.0, 0.0))[2] for k in keys)


def layer_self(stats, layer):
    return sum(v[2] for k, v in stats.items() if k.split(".", 1)[0] == layer)


def _ratio(num, den):
    return num / den if den else 0.0


def from_trace(summary: dict, traced_wall_s: float) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for one traced workload execution."""
    s = summary["stats"]
    c = summary["counters"]
    kernel = tuple(f"dynamics.{k}" for k in ("potential", "potential_gradient",
                                            "potential_hessian_vec"))
    m: dict[str, tuple[float, str]] = {}
    for key in kernel + ("configspace.pair_indices", "configspace.min_separation",
                         "configspace.weighted_norm", "validators.check_norm_bounds",
                         "validators.check_ray_estimates",
                         "validators.check_perturbation_estimates",
                         "validators.sample_shape"):
        m[f"{key}.calls"] = (_calls(s, key), "count")
        m[f"{key}.s"] = (_incl(s, key), "s")
    m["dynamics.configs_evaluated"] = (c.get("configs", 0), "count")
    m["dynamics.ns_per_pair_config"] = (
        1e9 * _ratio(_incl(s, *kernel), c.get("pair_configs", 0)), "ns")

    iterations = c.get("lbfgs_iterations", 0)
    m["optimize.lbfgs.calls"] = (_calls(s, "optimize.lbfgs"), "count")
    m["optimize.lbfgs.iterations"] = (iterations, "count")
    m["optimize.lbfgs.evals"] = (c.get("lbfgs_evals", 0), "count")
    m["optimize.lbfgs.evals_per_iteration"] = (_ratio(c.get("lbfgs_evals", 0), iterations),
                                               "ratio")
    m["optimize.lbfgs.not_converged"] = (c.get("lbfgs_not_converged", 0), "count")
    m["optimize.lbfgs.self_s"] = (_self(s, "optimize.lbfgs"), "s")
    m["optimize.golden_section.calls"] = (_calls(s, "optimize.golden_section"), "count")
    m["optimize.golden_section.evals"] = (c.get("golden_evals", 0), "count")

    m["action.objective.calls"] = (_calls(s, "action.objective"), "count")
    m["action.objective.s"] = (_incl(s, "action.objective"), "s")
    m["action.objective.self_s"] = (_self(s, "action.objective"), "s")
    m["action.objective.vetoes"] = (c.get("vetoes", 0), "count")
    m["action.precond.calls"] = (_calls(s, "action.precond"), "count")
    m["action.precond.s"] = (_incl(s, "action.precond"), "s")
    free = "action.minimize_free_time"
    m["action.free_time.calls"] = (_calls(s, free), "count")
    m["action.free_time.s"] = (_incl(s, free), "s")
    m["action.free_time.self_s"] = (_self(s, free), "s")
    m["action.free_time.inner_per_solve"] = (
        _ratio(c.get("inner_in_free_time", 0), _calls(s, free)), "ratio")
    m["action.fixed_time.calls"] = (_calls(s, "action.minimize_fixed_time"), "count")
    m["action.fixed_time.s"] = (_incl(s, "action.minimize_fixed_time"), "s")
    for status in STATUSES:
        m[f"action.status.{status}"] = (c.get(f"status.{status}", 0), "count")
    m["action.status.other"] = (
        sum(v for k, v in c.items() if k.startswith("status.") and k[7:] not in STATUSES),
        "count")

    m["hyperbolic.construct.self_s"] = (_self(s, "hyperbolic.construct"), "s")
    m["hyperbolic.asymptotic_report.s"] = (_incl(s, "hyperbolic.asymptotic_report"), "s")
    m["hyperbolic.segments_total"] = (c.get("segments_total", 0), "count")
    m["validators.suite.self_s"] = (_self(s, *(f"validators.{k}" for k in SUITES)), "s")

    writes = [k for k in s if k.startswith("fileio.write_")]
    m["fileio.write_s"] = (_incl(s, *writes), "s")
    m["fileio.bytes_written"] = (c.get("bytes_written", 0), "B")

    named = 0.0
    for layer in LAYERS:
        value = layer_self(s, layer)
        named += value
        m[f"{layer}.self_s"] = (value, "s")
    m["trace.wall_s"] = (traced_wall_s, "s")
    m["trace.unattributed_s"] = (traced_wall_s - named, "s")
    m["trace.coverage"] = (_ratio(named, traced_wall_s), "ratio")
    m["trace.spans"] = (sum(v[0] for v in s.values()), "count")
    return m
