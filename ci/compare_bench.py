#!/usr/bin/env python3
"""Compare a bench JSON artifact against its committed baseline.

Only speed-insensitive ratio metrics are compared (fairness indices, cache
hit rates, payload-reduction fractions, policy conformance) — wall-clock
numbers vary with runner hardware and would make the gate flaky. A metric
regresses when it deviates from the baseline by more than the tolerance
(relative, two-sided: an unexplained large "improvement" usually means the
experiment broke, not that the code got better).

Usage:
    compare_bench.py BASELINE.json CURRENT.json [--tolerance 0.2]
                     [--summary FILE]
    compare_bench.py --self-test

Exit status: 0 when every metric is within tolerance, 1 on regression,
2 on usage/parse errors. With --summary, a markdown delta table is
appended to FILE (pass "$GITHUB_STEP_SUMMARY" in CI).
"""

import json
import sys


# Directional gates for metrics whose regressions are one-sided. Keyed by
# the metric-name suffix (the part after the last '.'). Value is
# (direction, slack): direction 'lower_better' fails only when the metric
# *rises* past tolerance, 'higher_better' only when it *falls*; a non-None
# slack replaces the CLI tolerance for that metric (throughput speedups on
# shared CI runners swing far more than fairness indices do, so they get a
# wider, explicitly-chosen band).
DIRECTIONAL_GATES = {
    # Batched-vs-unbatched throughput: gate only a collapse (>50% drop).
    "speedup": ("higher_better", 0.5),
    # Overcommitted p99 / resident-only p99: wall-clock-derived, so only a
    # blow-up (ratio tripling) fails; getting faster never does.
    "p99_vs_resident_ratio": ("lower_better", 2.0),
    # Goodput at 5x offered load over goodput at 1x: admission control
    # holding the plateau. Same-run ratio, so hardware-normalized; only a
    # collapse fails — serving *more* under overload is never a regression.
    "goodput_plateau_ratio": ("higher_better", None),
    # Client-observed Overloaded rejections over stack-side rejections:
    # falling means shed replies are being lost instead of delivered.
    "shed_accuracy": ("higher_better", None),
}


def extract_metrics(report):
    """Flattens a bench report into {metric_name: float}."""
    bench = report.get("bench")
    out = {}
    if bench == "data_path":
        # Byte counts and hit rates are deterministic; elision's effect on
        # wall time is avabench's tenant_mix, not a gate here.
        for cfg in report.get("configs", []):
            if not cfg.get("cache"):
                continue
            key = cfg["transport"]
            out[f"{key}.payload_reduction"] = cfg["payload_reduction_vs_off"]
            out[f"{key}.hit_rate"] = cfg["hit_rate"]
        # Recorder-on vs recorder-off p50 overhead ratio (~1.0x). A ratio
        # is already hardware-normalized, so it gates like the other
        # speed-insensitive metrics. Guarded: baselines predating the
        # ablation lack the key, and the new-metric path handles that.
        recorder = report.get("recorder")
        if recorder is not None:
            out["recorder_overhead_p50"] = recorder["overhead_ratio"]
    elif bench == "scheduling":
        for sc in report.get("scenarios", []):
            out[f"{sc['name']}.jain"] = sc["jain_device_time"]
        out["weight_ratio"] = report["weight_ratio_observed"]
        out["rate_limit_conformance"] = report["rate_limit_conformance"]
    elif bench == "throughput":
        # Batching efficacy ratios only: absolute calls/sec depend on the
        # runner. doorbell_reduction and batch_fill come from deterministic
        # frame counters; speedup is wall-clock-derived and gated with the
        # wide one-sided band from DIRECTIONAL_GATES.
        head = report.get("headline", {})
        for key in ("speedup", "doorbell_reduction", "batch_fill"):
            if key in head:
                out[f"headline.{key}"] = head[key]
        for sc in report.get("scaling", []):
            tag = f"scaling_{sc['vms']}vms"
            out[f"{tag}.speedup"] = sc["speedup"]
            out[f"{tag}.doorbell_reduction"] = sc["doorbell_reduction"]
    elif bench == "swapping":
        # Availability and swap behaviour are deterministic (which buffers
        # swap is fixed by the capacity and touch order); only the p99
        # ratio is wall-clock-derived and gets the wide one-sided band.
        for lv in report.get("levels", []):
            tag = f"oc{lv['overcommit']:g}x"
            out[f"{tag}.oom_aborts"] = float(lv["oom_aborts"])
            out[f"{tag}.peak_swapped_fraction"] = lv["peak_swapped_fraction"]
            if lv["overcommit"] > 1.0:
                out[f"{tag}.p99_vs_resident_ratio"] = lv["p99_vs_resident_ratio"]
    elif bench == "overload":
        # Both headline metrics are same-run ratios (goodput/goodput and
        # count/count), so they gate like the other speed-insensitive
        # metrics; absolute goodput and p99 depend on the runner and are
        # informational only. other_errors must stay at zero — any guest
        # error that is not a clean Overloaded shed means degradation
        # stopped being graceful.
        out["goodput_plateau_ratio"] = report["goodput_plateau_ratio"]
        out["shed_accuracy"] = report["shed_accuracy"]
        out["other_errors"] = float(report.get("other_errors", 0))
    else:
        raise ValueError(f"unknown bench kind: {bench!r}")
    return out


def compare(baseline, current, tolerance):
    """Returns (rows, regressed) where rows is a list of
    (metric, base, cur, rel_delta, ok)."""
    base_metrics = extract_metrics(baseline)
    cur_metrics = extract_metrics(current)
    rows = []
    regressed = False
    for name, base in sorted(base_metrics.items()):
        if name not in cur_metrics:
            rows.append((name, base, None, None, False))
            regressed = True
            continue
        cur = cur_metrics[name]
        if base == 0.0:
            rel = 0.0 if cur == 0.0 else float("inf")
        else:
            rel = cur / base - 1.0
        direction, slack = DIRECTIONAL_GATES.get(
            name.rsplit(".", 1)[-1], ("two_sided", None))
        band = tolerance if slack is None else slack
        if direction == "lower_better":
            ok = rel <= band
        elif direction == "higher_better":
            ok = rel >= -band
        else:
            ok = abs(rel) <= band
        regressed = regressed or not ok
        rows.append((name, base, cur, rel, ok))
    for name in sorted(set(cur_metrics) - set(base_metrics)):
        # New metrics are informational, never a failure: baselines are
        # updated in the same PR that adds the metric.
        rows.append((name, None, cur_metrics[name], None, True))
    return rows, regressed


def render_table(title, rows, tolerance):
    lines = [
        f"### Bench regression check: {title}",
        "",
        f"Tolerance: ±{tolerance * 100:.0f}% relative.",
        "",
        "| metric | baseline | current | delta | status |",
        "|---|---|---|---|---|",
    ]
    for name, base, cur, rel, ok in rows:
        base_s = "—" if base is None else f"{base:.4f}"
        cur_s = "—" if cur is None else f"{cur:.4f}"
        if rel is None:
            delta_s = "—"
        elif rel == float("inf"):
            delta_s = "inf"
        else:
            delta_s = f"{rel * 100:+.1f}%"
        status = "ok" if ok else "**REGRESSED**"
        if base is None:
            status = "new (info only)"
        lines.append(f"| {name} | {base_s} | {cur_s} | {delta_s} | {status} |")
    lines.append("")
    return "\n".join(lines)


def self_test():
    """A scripted negative test: a deliberately regressed artifact must
    fail the gate, and an identical one must pass."""
    baseline = {
        "bench": "scheduling",
        "weight_ratio_observed": 3.0,
        "rate_limit_conformance": 1.0,
        "scenarios": [
            {"name": "fairness_fifo", "jain_device_time": 0.64},
            {"name": "fairness_fair_share", "jain_device_time": 1.0},
        ],
    }
    same = json.loads(json.dumps(baseline))
    _, regressed = compare(baseline, same, 0.2)
    assert not regressed, "identical artifacts must pass"

    worse = json.loads(json.dumps(baseline))
    worse["scenarios"][1]["jain_device_time"] = 0.70  # -30%: unfair again
    rows, regressed = compare(baseline, worse, 0.2)
    assert regressed, "a 30% fairness drop must fail the gate"
    bad = [r for r in rows if not r[4]]
    assert bad and bad[0][0] == "fairness_fair_share.jain", rows

    missing = {"bench": "scheduling", "weight_ratio_observed": 3.0,
               "rate_limit_conformance": 1.0, "scenarios": []}
    _, regressed = compare(baseline, missing, 0.2)
    assert regressed, "a vanished metric must fail the gate"

    dp_base = {
        "bench": "data_path",
        "configs": [
            {"transport": "shmem", "cache": False, "hit_rate": 0.0,
             "payload_reduction_vs_off": 0.0},
            {"transport": "shmem", "cache": True, "hit_rate": 0.73,
             "payload_reduction_vs_off": 0.72},
        ],
    }
    dp_worse = json.loads(json.dumps(dp_base))
    dp_worse["configs"][1]["payload_reduction_vs_off"] = 0.10
    _, regressed = compare(dp_base, dp_worse, 0.2)
    assert regressed, "an elision collapse must fail the gate"

    dp_rec = json.loads(json.dumps(dp_base))
    dp_rec["recorder"] = {"p50_off_us": 30.0, "p50_on_us": 31.0,
                          "overhead_ratio": 1.033}
    rows, regressed = compare(dp_base, dp_rec, 0.2)
    assert not regressed, "a new recorder metric must be info-only"
    assert any(r[0] == "recorder_overhead_p50" and r[1] is None
               for r in rows), rows

    dp_rec_worse = json.loads(json.dumps(dp_rec))
    dp_rec_worse["recorder"]["overhead_ratio"] = 1.35
    _, regressed = compare(dp_rec, dp_rec_worse, 0.2)
    assert regressed, "a recorder overhead blow-up must fail the gate"

    tp_base = {
        "bench": "throughput",
        "headline": {"speedup": 4.0, "doorbell_reduction": 28.0,
                     "batch_fill": 30.0},
        "scaling": [
            {"vms": 16, "speedup": 4.5, "doorbell_reduction": 30.0},
            {"vms": 64, "speedup": 2.8, "doorbell_reduction": 27.0},
        ],
    }
    tp_same = json.loads(json.dumps(tp_base))
    _, regressed = compare(tp_base, tp_same, 0.2)
    assert not regressed, "identical throughput artifacts must pass"

    tp_noisy = json.loads(json.dumps(tp_base))
    tp_noisy["scaling"][1]["speedup"] = 2.0  # -29%: within the wide band
    _, regressed = compare(tp_base, tp_noisy, 0.2)
    assert not regressed, "run-to-run speedup noise must not fail the gate"

    tp_collapse = json.loads(json.dumps(tp_base))
    tp_collapse["scaling"][1]["speedup"] = 1.1  # -61%: batching broke
    rows, regressed = compare(tp_base, tp_collapse, 0.2)
    assert regressed, "a speedup collapse must fail the gate"
    bad = [r for r in rows if not r[4]]
    assert bad and bad[0][0] == "scaling_64vms.speedup", rows

    tp_doorbell = json.loads(json.dumps(tp_base))
    tp_doorbell["headline"]["doorbell_reduction"] = 5.0  # flush logic broke
    _, regressed = compare(tp_base, tp_doorbell, 0.2)
    assert regressed, "a doorbell-reduction drop must fail the gate"

    sw_base = {
        "bench": "swapping",
        "levels": [
            {"overcommit": 0.75, "p99_vs_resident_ratio": 1.0,
             "peak_swapped_fraction": 0.0, "oom_aborts": 0},
            {"overcommit": 2.0, "p99_vs_resident_ratio": 1.4,
             "peak_swapped_fraction": 0.5625, "oom_aborts": 0},
        ],
    }
    sw_same = json.loads(json.dumps(sw_base))
    _, regressed = compare(sw_base, sw_same, 0.2)
    assert not regressed, "identical swapping artifacts must pass"

    sw_oom = json.loads(json.dumps(sw_base))
    sw_oom["levels"][1]["oom_aborts"] = 1  # guest saw an allocation fail
    rows, regressed = compare(sw_base, sw_oom, 0.2)
    assert regressed, "any guest-visible OOM under overcommit must fail"
    bad = [r for r in rows if not r[4]]
    assert bad and bad[0][0] == "oc2x.oom_aborts", rows

    sw_noisy = json.loads(json.dumps(sw_base))
    sw_noisy["levels"][1]["p99_vs_resident_ratio"] = 3.0  # +114%: noise band
    _, regressed = compare(sw_base, sw_noisy, 0.2)
    assert not regressed, "p99 ratio noise must stay within the wide band"

    sw_blowup = json.loads(json.dumps(sw_base))
    sw_blowup["levels"][1]["p99_vs_resident_ratio"] = 9.0  # +543%: thrashing
    rows, regressed = compare(sw_base, sw_blowup, 0.2)
    assert regressed, "a p99 blow-up under overcommit must fail the gate"
    bad = [r for r in rows if not r[4]]
    assert bad and bad[0][0] == "oc2x.p99_vs_resident_ratio", rows

    sw_noswap = json.loads(json.dumps(sw_base))
    sw_noswap["levels"][1]["peak_swapped_fraction"] = 0.1  # pressure vanished
    _, regressed = compare(sw_base, sw_noswap, 0.2)
    assert regressed, "a collapse in swap pressure means the experiment broke"

    ov_base = {
        "bench": "overload",
        "goodput_plateau_ratio": 0.93,
        "shed_accuracy": 1.0,
        "other_errors": 0,
    }
    ov_same = json.loads(json.dumps(ov_base))
    _, regressed = compare(ov_base, ov_same, 0.2)
    assert not regressed, "identical overload artifacts must pass"

    ov_better = json.loads(json.dumps(ov_base))
    ov_better["goodput_plateau_ratio"] = 1.05  # +13%: served more under load
    _, regressed = compare(ov_base, ov_better, 0.2)
    assert not regressed, "a higher goodput plateau must never fail the gate"

    ov_collapse = json.loads(json.dumps(ov_base))
    ov_collapse["goodput_plateau_ratio"] = 0.40  # -57%: congestion collapse
    rows, regressed = compare(ov_base, ov_collapse, 0.2)
    assert regressed, "a goodput-plateau collapse must fail the gate"
    bad = [r for r in rows if not r[4]]
    assert bad and bad[0][0] == "goodput_plateau_ratio", rows

    ov_lost = json.loads(json.dumps(ov_base))
    ov_lost["shed_accuracy"] = 0.5  # half the shed replies never arrived
    rows, regressed = compare(ov_base, ov_lost, 0.2)
    assert regressed, "losing shed replies must fail the gate"
    bad = [r for r in rows if not r[4]]
    assert bad and bad[0][0] == "shed_accuracy", rows

    ov_errs = json.loads(json.dumps(ov_base))
    ov_errs["other_errors"] = 3  # non-Overloaded guest errors appeared
    _, regressed = compare(ov_base, ov_errs, 0.2)
    assert regressed, "any non-shed guest error under overload must fail"

    print("compare_bench self-test: ok")


def main(argv):
    if "--self-test" in argv:
        self_test()
        return 0
    tolerance = 0.2
    summary_path = None
    args = []
    it = iter(argv)
    for a in it:
        if a == "--tolerance":
            tolerance = float(next(it))
        elif a == "--summary":
            summary_path = next(it)
        elif a.startswith("--"):
            print(f"unknown option: {a}", file=sys.stderr)
            return 2
        else:
            args.append(a)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    baseline_path, current_path = args
    with open(baseline_path) as f:
        baseline = json.load(f)
    with open(current_path) as f:
        current = json.load(f)

    rows, regressed = compare(baseline, current, tolerance)
    table = render_table(baseline.get("bench", "?"), rows, tolerance)
    print(table)
    if summary_path:
        with open(summary_path, "a") as f:
            f.write(table + "\n")
    if regressed:
        print("FAIL: at least one metric regressed beyond tolerance",
              file=sys.stderr)
        return 1
    print("ok: all metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
