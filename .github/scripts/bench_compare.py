#!/usr/bin/env python3
"""Compare a fresh BENCH_fortress.json against the committed baseline.

Usage: bench_compare.py BASELINE CURRENT [--tolerance 0.25]
                                         [--only parallel-speedup]

The check is one-sided: a metric fails only when it is worse than the
baseline by more than the tolerance (slower, fewer events/sec). Getting
faster never fails. Exit status 1 on any regression, 0 otherwise.

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


def load(path):
    with open(path) as f:
        return json.load(f)


def index_by(rows, key):
    return {row[key]: row for row in rows}


def check_parallel_speedup(base, cur, checks, tolerance):
    """Speedup floors + determinism + throughput-vs-baseline. Returns 0/1."""
    b_speed = index_by(base.get("parallel_speedup", []), "jobs")
    c_speed = index_by(cur.get("parallel_speedup", []), "jobs")
    domains = cur.get("domains_available")
    if domains is None:
        print("MISSING  domains_available: not in current report")
        return 1
    for jobs in b_speed:
        if jobs not in c_speed:
            print(f"MISSING  parallel_speedup/jobs={jobs:g}: not in current report")
            return 1
        checks.append((f"parallel_speedup/jobs={jobs:g} trials_per_sec",
                       b_speed[jobs]["trials_per_sec"],
                       c_speed[jobs]["trials_per_sec"], False, tolerance))
        # determinism, not performance: the mean must not move at all
        if b_speed[jobs]["mean_el"] != c_speed[jobs]["mean_el"]:
            print(f"FAIL     parallel_speedup/jobs={jobs:g} mean_el: "
                  f"{c_speed[jobs]['mean_el']!r} != baseline {b_speed[jobs]['mean_el']!r} "
                  "(seeded result changed)")
            return 1
    for jobs, floor in sorted(SPEEDUP_FLOORS.items()):
        row = c_speed.get(jobs)
        if row is None:
            print(f"MISSING  parallel_speedup/jobs={jobs:g}: not in current report")
            return 1
        if domains < jobs:
            print(f"skip     parallel_speedup/jobs={jobs:g} floor {floor:.1f}x: "
                  f"machine has {domains:g} domain(s), floor needs {jobs:g} "
                  "(enforced on wider runners)")
            continue
        speedup = row["speedup_vs_1"]
        if speedup < floor:
            print(f"FAIL     parallel_speedup/jobs={jobs:g}: {speedup:.2f}x < "
                  f"floor {floor:.1f}x vs sequential (the parallel runner "
                  "regressed; see lib/par)")
            return 1
        print(f"ok       parallel_speedup/jobs={jobs:g}: {speedup:.2f}x >= {floor:.1f}x")
    return 0


def check_a2_ceiling(cur):
    """A2's probe-level SO trials must stay cheap. Returns 0/1."""
    domains = cur.get("domains_available")
    row = index_by(cur.get("sections", []), "name").get(A2_SECTION)
    if row is None:
        print(f"MISSING  section {A2_SECTION!r}: not in current report")
        return 1
    seconds = row["seconds"]
    if seconds > A2_MAX_SECONDS:
        print(f"FAIL     A2 section: {seconds:.2f} s > ceiling {A2_MAX_SECONDS:.1f} s "
              f"on {domains:g} domain(s) (attacker key selection regressed; "
              "see lib/attack/knowledge.ml)")
        return 1
    print(f"ok       A2 section: {seconds:.2f} s <= ceiling {A2_MAX_SECONDS:.1f} s "
          f"on {domains:g} domain(s)")
    return 0


def evaluate(checks, tolerance):
    failed = 0
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
        status = "FAIL" if worse else "ok"
        if worse:
            failed += 1
        print(f"{status:8s} {name}: baseline {b:.1f}, current {c:.1f}{delta}")

    if failed:
        print(f"\n{failed} metric(s) regressed beyond tolerance "
              f"({tolerance:.0%} timing, {TIGHT:.0%} allocation)")
        return 1
    print("\nno regressions beyond tolerance")
    return 0


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

    if args.only == "parallel-speedup":
        if check_parallel_speedup(base, cur, checks, args.tolerance):
            return 1
        return evaluate(checks, args.tolerance)

    for section, unit in (("interceptor_overhead", "ns_per_message"),
                          ("profiler_overhead", "ns_per_call")):
        b = index_by(base.get(section, []), "config")
        c = index_by(cur.get(section, []), "config")
        words = unit.replace("ns_", "minor_words_")
        for config in b:
            if config not in c:
                print(f"MISSING  {section}/{config}: not in current report")
                return 1
            checks.append((f"{section}/{config} {unit}",
                           b[config][unit], c[config][unit], True, args.tolerance))
            checks.append((f"{section}/{config} {words}",
                           b[config][words], c[config][words], True, TIGHT))

    if "events_per_sec" in base:
        checks.append(("events_per_sec",
                       base["events_per_sec"], cur.get("events_per_sec", 0.0),
                       False, args.tolerance))

    if check_parallel_speedup(base, cur, checks, args.tolerance):
        return 1

    if check_a2_ceiling(cur):
        return 1

    # Adaptive-campaign overhead is self-relative (oblivious-strategy
    # seconds over fixed-schedule seconds, measured in the same process on
    # the same paired seeds), so it is checked against an absolute bound
    # rather than against the baseline file: the oblivious observe-decide-
    # act loop may cost at most 5% over the fixed schedule. The bound is
    # intentionally independent of --tolerance — runner noise cancels out
    # of a same-process ratio.
    ADAPTIVE_MAX_RATIO = 1.05
    adaptive = cur.get("adaptive_overhead")
    if adaptive is None:
        print("MISSING  adaptive_overhead: not in current report")
        return 1
    ratio = adaptive["ratio"]
    if ratio > ADAPTIVE_MAX_RATIO:
        print(f"FAIL     adaptive_overhead ratio: {ratio:.3f} > {ADAPTIVE_MAX_RATIO:.2f} "
              f"(oblivious {adaptive['oblivious_seconds']:.3f}s vs "
              f"fixed {adaptive['fixed_seconds']:.3f}s)")
        return 1
    print(f"ok       adaptive_overhead ratio: {ratio:.3f} <= {ADAPTIVE_MAX_RATIO:.2f}")

    # Defender-controller overhead follows the same discipline: the static
    # strategy attaches the full sensing stack (in-trial telemetry plane,
    # per-boundary observation assembly) but never acts. Paired CPU-time
    # remeasurement puts the sensing stack's true cost at 3-5% of the
    # campaign, right at the original 1.05 bound, which made the gate a
    # coin flip on measurement noise; the bound is set one notch above the
    # known cost so it still fails if sensing cost roughly doubles.
    DEFENDER_MAX_RATIO = 1.10
    defender = cur.get("defender_overhead")
    if defender is None:
        print("MISSING  defender_overhead: not in current report")
        return 1
    ratio = defender["ratio"]
    if ratio > DEFENDER_MAX_RATIO:
        print(f"FAIL     defender_overhead ratio: {ratio:.3f} > {DEFENDER_MAX_RATIO:.2f} "
              f"(static {defender['static_seconds']:.3f}s vs "
              f"plain {defender['plain_seconds']:.3f}s)")
        return 1
    print(f"ok       defender_overhead ratio: {ratio:.3f} <= {DEFENDER_MAX_RATIO:.2f}")

    # The telemetry plane (timeline + signal subscriber) is likewise a
    # same-process ratio against an untelemetered pass of the identical
    # seeded campaign. Paired CPU-time remeasurement puts the plane's true
    # cost at 4-5% of the event-emitting workload — at the original 1.05
    # bound, which made the gate a coin flip on measurement noise; as with
    # the defender gate, the bound sits one notch above the known cost so
    # it still fails if the subscriber cost roughly doubles.
    TIMELINE_MAX_RATIO = 1.10
    timeline = cur.get("timeline_overhead")
    if timeline is None:
        print("MISSING  timeline_overhead: not in current report")
        return 1
    ratio = timeline["ratio"]
    if ratio > TIMELINE_MAX_RATIO:
        print(f"FAIL     timeline_overhead ratio: {ratio:.3f} > {TIMELINE_MAX_RATIO:.2f} "
              f"(subscriber {timeline['subscriber_seconds']:.3f}s vs "
              f"baseline {timeline['baseline_seconds']:.3f}s)")
        return 1
    print(f"ok       timeline_overhead ratio: {ratio:.3f} <= {TIMELINE_MAX_RATIO:.2f}")

    # Causal tracing: the gated ratio compares the tracing-OFF path before
    # and after the traced pass has run (off2/off1) — the disabled path
    # must not get slower because the feature exists. The traced ratio is
    # informational (spans add real event volume) and is not gated.
    CAUSAL_MAX_RATIO = 1.05
    causal = cur.get("causal_overhead")
    if causal is None:
        print("MISSING  causal_overhead: not in current report")
        return 1
    ratio = causal["ratio"]
    if ratio > CAUSAL_MAX_RATIO:
        print(f"FAIL     causal_overhead off-path ratio: {ratio:.3f} > {CAUSAL_MAX_RATIO:.2f} "
              f"(plain {causal['plain_seconds']:.3f}s, "
              f"traced pass {causal['traced_seconds']:.3f}s, "
              f"traced ratio {causal['traced_ratio']:.2f}x informational)")
        return 1
    print(f"ok       causal_overhead off-path ratio: {ratio:.3f} <= {CAUSAL_MAX_RATIO:.2f} "
          f"(traced {causal['traced_ratio']:.2f}x, informational)")

    # Workload plane: requests_per_sec is a wall measurement and carries
    # the one-sided timing tolerance. Everything else in the section is a
    # deterministic property of the seeded simulation (logical request
    # counts, virtual-time latency quantiles, availability), so those are
    # pinned exactly — any drift means the seeded workload changed, which
    # is a semantic regression, not noise.
    workload = cur.get("workload_throughput")
    b_workload = base.get("workload_throughput")
    if workload is None or b_workload is None:
        missing = "current" if workload is None else "baseline"
        print(f"MISSING  workload_throughput: not in {missing} report")
        return 1
    checks.append(("workload_throughput requests_per_sec",
                   b_workload["requests_per_sec"], workload["requests_per_sec"],
                   False, args.tolerance))
    for key in ("logical_requests", "answered", "p50_vt", "p99_vt", "availability"):
        if workload.get(key) != b_workload.get(key):
            print(f"FAIL     workload_throughput {key}: {workload.get(key)!r} != "
                  f"baseline {b_workload.get(key)!r} (seeded workload changed)")
            return 1
        print(f"ok       workload_throughput {key}: {workload[key]!r} (pinned)")

    return evaluate(checks, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
