#!/usr/bin/env python3
"""Compare a fresh BENCH_micro.json or BENCH_serve.json against the
committed baseline.

Fails (exit 1) when any comparable benchmark is slower than baseline by
more than the tolerance; reports (exit 0) improvements beyond the tolerance
so CI can surface them. `--calibrate` divides every ratio by the median
ratio first, so a uniformly slower/faster CI machine does not mask or fake
a relative regression. Stdlib only.

Counts that the benchmark protocol fixes, whatever the machine speed
(EXACT_FIELDS: a serve phase's request count and its unit cache hits and
misses), must match the baseline exactly wherever both entries carry them;
a mismatch fails the comparison, so a stale or wrong baseline cannot pass.

Benchmark names may carry a kernel-backend suffix, e.g.
`bench_micro_quantum/BM_SingleQubitGate@avx2/10` — the `@<backend>` names a
SIMD backend from the registry (DESIGN.md §13), and which ones exist
depends on the machine's CPU. Comparison is like-for-like:

  * `X@b` vs `X@b` when the baseline has the same backend variant;
  * `X@generic` falls back to the baseline's plain `X` — the pre-registry
    scalar kernels are the generic backend's lineage;
  * a backend variant the baseline runner could not measure (e.g. the
    baseline machine lacked AVX-512) is reported as skipped, never an
    error, and never silently dropped.

Committed BENCH JSONs also carry a `trajectory` array of
{git_sha, ns_per_op} entries (tools/bench_report.py). `--baseline-sha`
selects one of those entries (full SHA or unique prefix) as the baseline
instead of the file's top-level benchmark list, so a regression can be
pinned against any recorded commit.

Usage:
  tools/check_bench_regression.py --baseline BENCH_micro.json \
      --current fresh.json [--tolerance 0.25] [--calibrate] \
      [--baseline-sha SHA] [--report out.md]
  tools/check_bench_regression.py --baseline BENCH_serve.json \
      --current fresh.json --tolerance 1.0
"""
import argparse
import json
import re
import statistics
import sys

# `<binary>/<BM_Name>@<backend>/<args...>` — the backend tag sits between
# the benchmark name and its slash-separated argument suffix.
BACKEND_RE = re.compile(r"^(?P<head>[^@]*)@(?P<backend>[^/]+)(?P<args>/.*)?$")

# Per-entry counts fixed by the benchmark protocol, compared exactly.
EXACT_FIELDS = ("requests", "unit_hits", "unit_misses")


def split_backend(name):
    """Returns (base_name_without_tag, backend_or_None)."""
    match = BACKEND_RE.match(name)
    if not match:
        return name, None
    return match.group("head") + (match.group("args") or ""), \
        match.group("backend")


def load_document(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def benchmarks_from(doc, baseline_sha=None, path=""):
    """Name → ns/op map, from the top level or a trajectory entry."""
    if baseline_sha:
        matches = [point for point in doc.get("trajectory", [])
                   if point.get("git_sha", "").startswith(baseline_sha)]
        if not matches:
            raise SystemExit(
                f"error: no trajectory entry matching sha "
                f"'{baseline_sha}' in {path}")
        if len(matches) > 1:
            shas = ", ".join(p["git_sha"][:12] for p in matches)
            raise SystemExit(
                f"error: sha prefix '{baseline_sha}' is ambiguous in "
                f"{path}: {shas}")
        return {name: ns for name, ns in matches[0]["ns_per_op"].items()
                if ns > 0}
    return {b["name"]: b["ns_per_op"] for b in doc.get("benchmarks", [])
            if b.get("ns_per_op", 0) > 0}


def exact_counts_from(doc):
    """Name → {field: count} for the EXACT_FIELDS an entry carries."""
    return {b["name"]: {f: b[f] for f in EXACT_FIELDS if f in b}
            for b in doc.get("benchmarks", [])}


def count_mismatches(baseline_doc, current_doc):
    """(name, field, baseline, current) for every exact count that differs
    between same-named entries of the two documents."""
    baseline = exact_counts_from(baseline_doc)
    mismatches = []
    for name, counts in sorted(exact_counts_from(current_doc).items()):
        for field, value in sorted(counts.items()):
            expected = baseline.get(name, {}).get(field)
            if expected is not None and expected != value:
                mismatches.append((name, field, expected, value))
    return mismatches


def pair_benchmarks(baseline, current):
    """Matches current names to baseline names like-for-like.

    Returns (pairs, skipped): pairs is a list of
    (current_name, baseline_name) and skipped a list of
    (current_name, reason) for benchmarks with no comparable baseline.
    """
    pairs, skipped = [], []
    for name in sorted(current):
        if name in baseline:
            pairs.append((name, name))
            continue
        base_name, backend = split_backend(name)
        if backend is None:
            skipped.append((name, "not in baseline (new benchmark)"))
        elif backend == "generic" and base_name in baseline:
            # The generic backend inherits the pre-registry scalar kernels,
            # so the untagged baseline entry is the honest ancestor.
            pairs.append((name, base_name))
        elif not any(split_backend(other)[0] == base_name
                     for other in baseline):
            # No baseline entry for this benchmark under ANY backend (nor
            # untagged): the benchmark itself is new — e.g. the batched SoA
            # kernels of DESIGN.md §14 — not a runner-capability gap. Pairs
            # exactly once a regenerated baseline records it.
            skipped.append(
                (name, "new benchmark (no baseline entry for any backend)"))
        else:
            skipped.append(
                (name,
                 f"backend '{backend}' not measured in baseline "
                 f"(runner CPU or older revision)"))
    return pairs, skipped


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--tolerance", type=float, default=0.25)
    parser.add_argument("--calibrate", action="store_true",
                        help="normalize ratios by their median (absorbs "
                             "uniform machine-speed differences)")
    parser.add_argument("--baseline-sha", default="",
                        help="compare against this trajectory entry of the "
                             "baseline file (SHA prefix) instead of its "
                             "top-level benchmark list")
    parser.add_argument("--report", default="",
                        help="write a markdown summary here")
    args = parser.parse_args()

    baseline_doc = load_document(args.baseline)
    current_doc = load_document(args.current)
    baseline = benchmarks_from(baseline_doc, args.baseline_sha, args.baseline)
    current = benchmarks_from(current_doc)
    mismatches = count_mismatches(baseline_doc, current_doc)
    pairs, skipped = pair_benchmarks(baseline, current)
    if not pairs:
        print("error: no comparable benchmark names", file=sys.stderr)
        return 1
    missing = sorted(set(baseline)
                     - {base for _, base in pairs})

    ratios = {cur: current[cur] / baseline[base] for cur, base in pairs}
    scale = statistics.median(ratios.values()) if args.calibrate else 1.0
    if scale <= 0:
        print("error: non-positive calibration scale", file=sys.stderr)
        return 1

    regressions, improvements = [], []
    rows = []
    for cur, base in pairs:
        ratio = ratios[cur] / scale
        rows.append((cur, base, baseline[base], current[cur], ratio))
        if ratio > 1.0 + args.tolerance:
            regressions.append((cur, ratio))
        elif ratio < 1.0 - args.tolerance:
            improvements.append((cur, ratio))

    lines = [
        "## Benchmark comparison",
        "",
        f"{len(pairs)} comparable benchmarks, "
        f"tolerance ±{args.tolerance:.0%}"
        + (f", calibration scale {scale:.3f}" if args.calibrate else "")
        + (f", baseline sha {args.baseline_sha}" if args.baseline_sha
           else ""),
        "",
        "| benchmark | baseline ns/op | current ns/op | ratio |",
        "|---|---:|---:|---:|",
    ]
    for cur, base, base_ns, cur_ns, ratio in rows:
        marker = " ⚠️" if ratio > 1.0 + args.tolerance else (
            " 🚀" if ratio < 1.0 - args.tolerance else "")
        label = cur if cur == base else f"{cur} (vs {base})"
        lines.append(f"| {label} | {base_ns:.0f} | {cur_ns:.0f} | "
                     f"{ratio:.2f}{marker} |")
    if skipped:
        lines += ["", f"**{len(skipped)} skipped (no comparable "
                  "baseline):**"]
        lines += [f"- {name}: {reason}" for name, reason in skipped]
    if missing:
        lines += ["", f"**{len(missing)} baseline-only (not in current "
                  "run):** " + ", ".join(missing)]
    if regressions:
        lines += ["", f"**{len(regressions)} regression(s):** "
                  + ", ".join(f"{n} ({r:.2f}x)" for n, r in regressions)]
    if improvements:
        lines += ["", f"**{len(improvements)} improvement(s):** "
                  + ", ".join(f"{n} ({r:.2f}x)" for n, r in improvements)]
    if mismatches:
        lines += ["", f"**{len(mismatches)} count mismatch(es):** "
                  + ", ".join(f"{n} {f} {b:g} → {c:g}"
                              for n, f, b, c in mismatches)]
    report = "\n".join(lines) + "\n"
    print(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report)

    if regressions:
        print(f"FAIL: {len(regressions)} benchmark(s) regressed beyond "
              f"{args.tolerance:.0%}", file=sys.stderr)
        return 1
    if mismatches:
        print(f"FAIL: {len(mismatches)} protocol count(s) differ from the "
              "baseline", file=sys.stderr)
        return 1
    print("OK: no regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
