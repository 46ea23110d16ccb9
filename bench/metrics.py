"""The benchmark's workloads, and the names, units and better directions of
its metrics.

End-to-end metrics come from untraced runs.  Per-layer metrics come from a
traced run and are given per round of the job list, except ratios, rates
and max_coeff_bits; the set-up layers are timed once per run.
"""

# Seconds one run measures: the default of run.py, worker.py and steady.py,
# and BENCHMARK.json's run_seconds.
RUN_SECONDS = 20

# Workload names and why each was chosen.
WORKLOADS = {
    "enumerate": "long concrete runs of the enumerators and searchers: interpreter "
                 "loop, Fraction arithmetic, per-step trace records and the garbage collector",
    "corpus": "shadow traces and field checks of every stdlib program plus certificates: "
              "rational-function canonicalisation and many short concrete runs",
    "paths": "path trees of the co-semidecider, deciders and enumerators plus boundary "
             "reports: forking, copying and condition lookup",
    "algebraic": "bss run, certify and witness in-process on number-field inputs, text "
                 "and json: refinement, Sturm counts and the CLI output path",
}

END_TO_END = [
    ("jobs_per_s", "1/s", "higher"),
    ("job_p50_ms", "ms", "lower"),
    ("job_p95_ms", "ms", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

LAYER_METRICS = [
    ("machine.interp.runs", "count", "higher"),
    ("machine.interp.steps", "count", "higher"),
    ("machine.interp.s", "s", "lower"),
    ("machine.interp.steps_per_s", "1/s", "higher"),
    ("machine.interp.trace_records", "count", "lower"),
    ("python.gc.collections", "count", "lower"),
    ("python.gc.pause_s", "s", "lower"),
    ("symbolic.shadow.runs", "count", "higher"),
    ("symbolic.shadow.steps", "count", "higher"),
    ("symbolic.shadow.s", "s", "lower"),
    ("symbolic.shadow.boundary_check_s", "s", "lower"),
    ("symbolic.shadow.cells_checked", "count", "higher"),
    ("exact.multipoly.rf_constructed", "count", "lower"),
    ("exact.multipoly.gcd_calls", "count", "lower"),
    ("exact.multipoly.gcd_s", "s", "lower"),
    ("exact.multipoly.gcd_useful_ratio", "ratio", "higher"),
    ("exact.multipoly.max_coeff_bits", "bits", "lower"),
    ("symbolic.certify.certificates", "count", "higher"),
    ("symbolic.certify.epsilon_s", "s", "lower"),
    ("symbolic.certify.halvings", "count", "lower"),
    ("symbolic.certify.verify_s", "s", "lower"),
    ("symbolic.certify.samples", "count", "higher"),
    ("symbolic.paths.trees", "count", "higher"),
    ("symbolic.paths.s", "s", "lower"),
    ("symbolic.paths.leaves", "count", "lower"),
    ("symbolic.paths.branch_nodes", "count", "lower"),
    ("symbolic.paths.leaves_feasible", "count", "higher"),
    ("symbolic.paths.feasible_ratio", "ratio", "higher"),
    ("symbolic.paths.boundary_s", "s", "lower"),
    ("exact.numberfield.fields_built", "count", "lower"),
    ("exact.numberfield.field_build_s", "s", "lower"),
    ("exact.numberfield.sign_calls", "count", "lower"),
    ("exact.numberfield.sign_s", "s", "lower"),
    ("exact.sturm.refine_steps", "count", "lower"),
    ("exact.numberfield.minpoly_s", "s", "lower"),
    ("witness.pipelines", "count", "higher"),
    ("witness.s", "s", "lower"),
    ("cli.commands", "count", "higher"),
    ("cli.s", "s", "lower"),
    ("serialize.json_built", "count", "lower"),
    ("serialize.json_printed", "count", "higher"),
    ("serialize.serialize_s", "s", "lower"),
    ("stdlib.build_s", "s", "lower"),
    ("machine.parser.parse_s", "s", "lower"),
    ("trace.jobs_per_s_untraced", "1/s", "higher"),
    ("trace.jobs_per_s_traced", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]
