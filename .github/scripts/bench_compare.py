#!/usr/bin/env python3
"""Compare a fresh BENCH_fortress.json against the committed baseline.

Usage: bench_compare.py BASELINE CURRENT [--tolerance 0.25]
                                         [--only parallel-speedup]

The check is one-sided: a metric fails only when it is worse than the
baseline by more than the tolerance (slower, fewer events/sec). Getting
faster never fails. Every check is evaluated and every FAIL and MISSING
line printed before the verdict: exit status 1 if any check failed or
was missing, 0 otherwise.

Timing metrics carry the full tolerance because CI runners are noisy and
heterogeneous. Allocation metrics (minor words per call/message) are
deterministic properties of the compiled code, so they get a tight bound:
an allocation regression on a zero-allocation path is a real code change,
not noise.

The parallel-speedup section additionally carries ABSOLUTE floors
(jobs=2 >= 1.3x, jobs=4 >= 2.0x sequential): PR 4 shipped a "parallel"
runner that was a measured slowdown and nothing failed, so the floor is
pinned to the report rather than to a movable baseline. Speedup is a
same-process ratio, immune to runner heterogeneity — but not to runner
*width*, so each floor is enforced only when the report's
[domains_available] says the machine can physically reach it; skips are
printed loudly so a mis-provisioned runner is visible in the log.
--only parallel-speedup restricts the run to that section (the per-PR
gate, against a --speedup-only report); everything else is push/nightly
material.

The A2 entropy-table section carries an absolute ceiling on its wall
seconds (A2_MAX_SECONDS), printed next to [domains_available]: with the
attacker's key selection sub-linear the section takes well under a
second, while the quadratic selection it replaced took 115 s on a
2-domain VM and 184 s on a 1-domain box, so the ceiling fails on any
runner width if that cost comes back.
"""

import argparse
import json
import sys

TIGHT = 0.10  # allocation metrics: deterministic, small slack for GC jitter

# absolute speedup floors vs the jobs=1 row, enforced per job count when
# the machine has at least that many domains
SPEEDUP_FLOORS = {2: 1.3, 4: 2.0}


# absolute ceiling on the A2 section's wall seconds, enforced at every
# runner width
A2_SECTION = "Ablation A2: key entropy under SO (probe-level)"
A2_MAX_SECONDS = 10.0

# Same-process overhead ratios: a section's [ratio] compares two shapes
# timed in one process on the same paired seeds, so it is checked against
# an absolute bound rather than against the baseline file. The bounds are
# intentionally independent of --tolerance: runner noise cancels out of a
# same-process ratio. A FAIL line prints the two timings the keys name.
RATIO_GATES = [
    # (section, base key, variant key, max ratio)
    # the oblivious strategy's observe-decide-act loop may cost at most 5%
    # over the fixed schedule
    ("adaptive_overhead", "fixed_seconds", "oblivious_seconds", 1.05),
    # the static defender attaches the full sensing stack (in-trial
    # telemetry plane, per-boundary observation assembly) but never acts.
    # Paired CPU-time remeasurement puts its true cost at 3-5% of the
    # campaign, right at the original 1.05 bound, which made the gate a coin
    # flip on measurement noise; the bound sits one notch above the known
    # cost so it still fails if sensing cost roughly doubles.
    ("defender_overhead", "plain_seconds", "static_seconds", 1.10),
    # the telemetry plane (timeline + signal subscriber) against an
    # untelemetered pass of the identical seeded campaign: true cost 4-5% of
    # the event-emitting workload, so the bound sits one notch above it, as
    # for the defender.
    ("timeline_overhead", "baseline_seconds", "subscriber_seconds", 1.10),
    # causal tracing: the gated ratio compares the tracing-OFF path before
    # and after the traced pass has run (off2/off1) — the disabled path must
    # not get slower because the feature exists. The traced seconds (and
    # traced_ratio) are informational: spans add real event volume.
    ("causal_overhead", "plain_seconds", "traced_seconds", 1.05),
]

# Workload plane: everything but requests_per_sec is a deterministic
# property of the seeded simulation, pinned exactly — any drift means the
# seeded workload changed, which is a semantic regression, not noise.
WORKLOAD_PINS = ("logical_requests", "answered", "p50_vt", "p99_vt", "availability")


def load(path):
    with open(path) as f:
        return json.load(f)


def index_by(rows, key):
    return {row[key]: row for row in rows}


FAILED = []  # every FAIL and MISSING line printed so far


def say(status, line):
    """Print one check's verdict; FAIL and MISSING count against the run."""
    print(f"{status:8s} {line}")
    if status in ("FAIL", "MISSING"):
        FAILED.append(line)


def check_per_op(base, cur, checks, tolerance):
    """Interceptor, profiler, signature-cost, trace-digest and draw-cost
    rows (timing and allocation) and event throughput, queued for
    evaluate()."""
    for section, unit in (("interceptor_overhead", "ns_per_message"),
                          ("profiler_overhead", "ns_per_call"),
                          ("crypto_cost", "ns_per_call"),
                          ("trace_digest", "ns_per_event"),
                          ("prng_cost", "ns_per_draw")):
        b = index_by(base.get(section, []), "config")
        c = index_by(cur.get(section, []), "config")
        words = unit.replace("ns_", "minor_words_")
        for config in b:
            if config not in c:
                say("MISSING", f"{section}/{config}: not in current report")
                continue
            checks.append((f"{section}/{config} {unit}",
                           b[config][unit], c[config][unit], True, tolerance))
            checks.append((f"{section}/{config} {words}",
                           b[config][words], c[config][words], True, TIGHT))
    if "events_per_sec" in base:
        checks.append(("events_per_sec",
                       base["events_per_sec"], cur.get("events_per_sec", 0.0),
                       False, tolerance))


def check_parallel_speedup(base, cur, checks, tolerance):
    """Speedup floors + determinism + throughput-vs-baseline."""
    b_speed = index_by(base.get("parallel_speedup", []), "jobs")
    c_speed = index_by(cur.get("parallel_speedup", []), "jobs")
    domains = cur.get("domains_available")
    if domains is None:
        say("MISSING", "domains_available: not in current report")
    for jobs in b_speed:
        if jobs not in c_speed:
            say("MISSING", f"parallel_speedup/jobs={jobs:g}: not in current report")
            continue
        checks.append((f"parallel_speedup/jobs={jobs:g} trials_per_sec",
                       b_speed[jobs]["trials_per_sec"],
                       c_speed[jobs]["trials_per_sec"], False, tolerance))
        # determinism, not performance: the mean must not move at all
        if b_speed[jobs]["mean_el"] != c_speed[jobs]["mean_el"]:
            say("FAIL", f"parallel_speedup/jobs={jobs:g} mean_el: "
                f"{c_speed[jobs]['mean_el']!r} != baseline {b_speed[jobs]['mean_el']!r} "
                "(seeded result changed)")
    for jobs, floor in sorted(SPEEDUP_FLOORS.items()):
        row = c_speed.get(jobs)
        if row is None or domains is None:
            continue  # reported missing above: the baseline has every floored row
        if domains < jobs:
            say("skip", f"parallel_speedup/jobs={jobs:g} floor {floor:.1f}x: "
                f"machine has {domains:g} domain(s), floor needs {jobs:g} "
                "(enforced on wider runners)")
        elif row["speedup_vs_1"] < floor:
            say("FAIL", f"parallel_speedup/jobs={jobs:g}: {row['speedup_vs_1']:.2f}x < "
                f"floor {floor:.1f}x vs sequential (the parallel runner "
                "regressed; see lib/par)")
        else:
            say("ok", f"parallel_speedup/jobs={jobs:g}: "
                f"{row['speedup_vs_1']:.2f}x >= {floor:.1f}x")


def check_a2_ceiling(cur):
    """A2's probe-level SO trials must stay cheap."""
    domains = cur.get("domains_available", float("nan"))
    row = index_by(cur.get("sections", []), "name").get(A2_SECTION)
    if row is None:
        say("MISSING", f"section {A2_SECTION!r}: not in current report")
    elif row["seconds"] > A2_MAX_SECONDS:
        say("FAIL", f"A2 section: {row['seconds']:.2f} s > ceiling {A2_MAX_SECONDS:.1f} s "
            f"on {domains:g} domain(s) (attacker key selection regressed; "
            "see lib/attack/knowledge.ml)")
    else:
        say("ok", f"A2 section: {row['seconds']:.2f} s <= ceiling {A2_MAX_SECONDS:.1f} s "
            f"on {domains:g} domain(s)")


def check_ratio_gates(cur):
    """The same-process overhead ratios against RATIO_GATES."""
    for section, base_key, variant_key, bound in RATIO_GATES:
        row = cur.get(section)
        if row is None:
            say("MISSING", f"{section}: not in current report")
        elif row["ratio"] > bound:
            say("FAIL", f"{section} ratio: {row['ratio']:.3f} > {bound:.2f} "
                f"({variant_key} {row[variant_key]:.3f}, {base_key} {row[base_key]:.3f})")
        else:
            say("ok", f"{section} ratio: {row['ratio']:.3f} <= {bound:.2f}")


def check_workload(base, cur, checks, tolerance):
    """requests_per_sec is a wall measurement and carries the one-sided
    timing tolerance; the deterministic fields are pinned."""
    workload = cur.get("workload_throughput")
    b_workload = base.get("workload_throughput")
    if workload is None or b_workload is None:
        missing = "current" if workload is None else "baseline"
        say("MISSING", f"workload_throughput: not in {missing} report")
        return
    checks.append(("workload_throughput requests_per_sec",
                   b_workload["requests_per_sec"], workload["requests_per_sec"],
                   False, tolerance))
    for key in WORKLOAD_PINS:
        if workload.get(key) != b_workload.get(key):
            say("FAIL", f"workload_throughput {key}: {workload.get(key)!r} != "
                f"baseline {b_workload.get(key)!r} (seeded workload changed)")
        else:
            say("ok", f"workload_throughput {key}: {workload[key]!r} (pinned)")


def fmt(value):
    """One decimal, or three significant digits below 1 (per-event words)."""
    return f"{value:.1f}" if abs(value) >= 1 or value == 0 else f"{value:.3g}"


def evaluate(checks):
    """The baseline-relative checks."""
    for name, b, c, lower_better, tol in checks:
        if b <= 0:
            # a zero baseline is a hard floor: a path that allocated (or
            # cost) nothing must keep allocating nothing
            worse = lower_better and c > 1e-6
            delta = ""
        else:
            ratio = c / b
            worse = ratio > 1 + tol if lower_better else ratio < 1 - tol
            delta = f" ({c / b - 1:+.0%} vs baseline)"
        say("FAIL" if worse else "ok", f"{name}: baseline {fmt(b)}, current {fmt(c)}{delta}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed one-sided slowdown fraction for timing metrics")
    ap.add_argument("--only", choices=["parallel-speedup"],
                    help="restrict the comparison to one section")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    checks = []  # (name, baseline, current, lower_is_better, tolerance)
    if args.only != "parallel-speedup":
        check_per_op(base, cur, checks, args.tolerance)
    check_parallel_speedup(base, cur, checks, args.tolerance)
    if args.only != "parallel-speedup":
        check_a2_ceiling(cur)
        check_ratio_gates(cur)
        check_workload(base, cur, checks, args.tolerance)
    evaluate(checks)

    if FAILED:
        print(f"\n{len(FAILED)} check(s) failed or missing "
              f"({args.tolerance:.0%} timing tolerance, {TIGHT:.0%} allocation)")
        return 1
    print("\nno regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
