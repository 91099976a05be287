#!/usr/bin/env python3
"""Compare a fresh BENCH_hotpath.json run against the committed baseline.

Usage: check_bench.py BASELINE CURRENT [--threshold PCT] [--max-overhead PCT]
                      [--min-ratio R] [--faster ROW:THAN ...]
                      [--scaling-exponent KEY:MAX ...] [--exponents-out FILE]

Both files are flat {benchmark name: ns per op} objects written by
bench/hotpath.exe. Only keys present in BOTH files are compared (the
CI quick run covers a subset of the full baseline sizes). Exits
non-zero listing every benchmark that is more than PCT percent slower
than the baseline (default 25). Speed-ups are reported but never fail.

Regressions are judged after dividing out the machine-speed drift:
the median current/baseline ratio across all compared rows. A shared
runner (or a loaded dev box) can run every row 1.3-1.8x slower than
the box that produced the committed baseline; that uniform shift says
nothing about the code, while a genuine regression moves one row away
from the pack. A regression touching most rows at once would be
absorbed into the drift estimate - the gate trades that unlikely case
for not flaking on every noisy runner.

--max-overhead PCT additionally pairs every obs/<x>-on/<size> row with
its obs/<x>-off/<size> twin WITHIN the current run and fails if the
instrumented row is more than PCT percent slower: the observability
self-overhead gate (same machine, same run, so no cross-host noise).

--min-ratio R pairs every store/load-snap/<size> row with its
store/load-text/<size> twin WITHIN the current run and fails if the
binary snapshot load is not at least R times faster than the text
parse: the durable-store fast-path gate (again same-run, so immune
to cross-host drift).

--faster ROW:THAN (repeatable) fails unless ROW is faster than THAN
WITHIN the current run: a same-run paired gate for a cost claim that
is a ratio between two rows, e.g. that repairing a 1%-of-n delta stays
cheaper than rebuilding the spanner from scratch
(repair/delta-n100/udg300:build/exact-sharded/udg300). Both rows must
be present.

--scaling-exponent KEY:MAX (repeatable) collects every row named
KEY/udg<n> WITHIN the current run, fits the least-squares slope of
log(ns/op) against log(n), and fails if the fitted exponent exceeds
MAX. This is the scaling gate behind the million-node work: a row
family that should be near-linear (e.g. bfs/dist) drifting toward
quadratic fails here long before any single size trips the 25% gate.
Exponents are same-run, so machine drift cancels entirely. At least
two sizes of KEY must be present. --exponents-out FILE additionally
writes the fitted exponent of EVERY row family with >= 2 sizes (not
just the gated ones) as a flat JSON object, for trend dashboards.
"""
import argparse
import json
import math
import re
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or not all(
        isinstance(v, (int, float)) for v in doc.values()
    ):
        sys.exit(f"{path}: expected a flat object of numeric ns/op values")
    return doc


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=25.0,
                    help="allowed regression in percent (default 25)")
    ap.add_argument("--max-overhead", type=float, default=None, metavar="PCT",
                    help="allowed obs-on vs obs-off overhead in percent, "
                         "paired within the current run")
    ap.add_argument("--min-ratio", type=float, default=None, metavar="R",
                    help="required store/load-text over store/load-snap "
                         "speed ratio, paired within the current run")
    ap.add_argument("--faster", action="append", default=[],
                    metavar="ROW:THAN",
                    help="fail unless ROW is faster than THAN in the "
                         "current run (repeatable)")
    ap.add_argument("--scaling-exponent", action="append", default=[],
                    metavar="KEY:MAX",
                    help="fit the log-log slope of KEY/udg<n> rows in the "
                         "current run and fail if it exceeds MAX (repeatable)")
    ap.add_argument("--exponents-out", default=None, metavar="FILE",
                    help="write every fitted row-family exponent as JSON")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    common = sorted(set(base) & set(cur))
    if not common:
        sys.exit("no common benchmarks between baseline and current run")

    ratios = sorted(cur[n] / base[n] for n in common if base[n] > 0)
    drift = ratios[len(ratios) // 2] if ratios else 1.0
    print(f"machine-speed drift (median current/baseline ratio): {drift:.3f}x")

    regressions = []
    width = max(len(k) for k in common)
    print(f"{'benchmark':<{width}} | {'baseline':>12} | {'current':>12} | delta (drift-adjusted)")
    print("-" * (width + 48))
    for name in common:
        b, c = base[name], cur[name]
        delta = (c / drift - b) / b * 100.0 if b > 0 else 0.0
        flag = " <-- REGRESSION" if delta > args.threshold else ""
        print(f"{name:<{width}} | {b:12.0f} | {c:12.0f} | {delta:+6.1f}%{flag}")
        if delta > args.threshold:
            regressions.append((name, delta))

    skipped = sorted(set(base) ^ set(cur))
    if skipped:
        print(f"(not compared: {', '.join(skipped)})")

    if regressions:
        names = ", ".join(f"{n} ({d:+.1f}%)" for n, d in regressions)
        sys.exit(f"{len(regressions)} benchmark(s) regressed beyond "
                 f"{args.threshold:.0f}%: {names}")
    print(f"all {len(common)} compared benchmarks within {args.threshold:.0f}% of baseline")

    if args.max_overhead is not None:
        pairs = [(on, on.replace("-on/", "-off/"))
                 for on in sorted(cur)
                 if on.startswith("obs/") and "-on/" in on
                 and on.replace("-on/", "-off/") in cur]
        if not pairs:
            sys.exit("--max-overhead: no obs/<x>-on / obs/<x>-off pairs "
                     "in the current run")
        over = []
        for on, off in pairs:
            pct = (cur[on] - cur[off]) / cur[off] * 100.0
            flag = " <-- OVER BUDGET" if pct > args.max_overhead else ""
            print(f"{on:<{width}} | {cur[off]:12.0f} | {cur[on]:12.0f} | "
                  f"{pct:+6.2f}%{flag}")
            if pct > args.max_overhead:
                over.append((on, pct))
        if over:
            names = ", ".join(f"{n} ({p:+.2f}%)" for n, p in over)
            sys.exit(f"observability overhead beyond "
                     f"{args.max_overhead:g}%: {names}")
        print(f"observability overhead within {args.max_overhead:g}% "
              f"for {len(pairs)} pair(s)")

    if args.min_ratio is not None:
        pairs = [(snap, snap.replace("/load-snap", "/load-text"))
                 for snap in sorted(cur)
                 if snap.startswith("store/load-snap")
                 and snap.replace("/load-snap", "/load-text") in cur]
        if not pairs:
            sys.exit("--min-ratio: no store/load-snap / store/load-text "
                     "pairs in the current run")
        slow = []
        for snap, text in pairs:
            ratio = cur[text] / cur[snap] if cur[snap] > 0 else float("inf")
            flag = "" if ratio >= args.min_ratio else " <-- TOO SLOW"
            print(f"{snap:<{width}} | {cur[text]:12.0f} | {cur[snap]:12.0f} | "
                  f"{ratio:6.1f}x{flag}")
            if ratio < args.min_ratio:
                slow.append((snap, ratio))
        if slow:
            names = ", ".join(f"{n} ({r:.1f}x)" for n, r in slow)
            sys.exit(f"snapshot load fast path below {args.min_ratio:g}x "
                     f"over the text parser: {names}")
        print(f"snapshot load >= {args.min_ratio:g}x faster than text "
              f"parse for {len(pairs)} pair(s)")

    if args.faster:
        slow = []
        for spec in args.faster:
            row, sep, than = spec.partition(":")
            if not sep or not row or not than:
                sys.exit(f"--faster: cannot parse '{spec}' (expected ROW:THAN)")
            missing = [k for k in (row, than) if k not in cur]
            if missing:
                sys.exit(f"--faster: {', '.join(missing)} not in the current run")
            ratio = cur[row] / cur[than] if cur[than] > 0 else float("inf")
            flag = "" if ratio < 1.0 else " <-- NOT FASTER"
            print(f"{row} vs {than}: {cur[row]:.0f} vs {cur[than]:.0f} ns "
                  f"({ratio:.2f}x){flag}")
            if ratio >= 1.0:
                slow.append((row, than, ratio))
        if slow:
            names = ", ".join(f"{r} ({x:.2f}x {t})" for r, t, x in slow)
            sys.exit(f"row(s) not faster than their pair: {names}")
        print(f"all {len(args.faster)} paired row(s) faster than their pair")

    if args.scaling_exponent or args.exponents_out:
        families = {}
        for name, ns in cur.items():
            m = re.fullmatch(r"(.+)/udg(\d+)", name)
            if m and ns > 0:
                families.setdefault(m.group(1), []).append(
                    (int(m.group(2)), ns))

        def fit(points):
            # least-squares slope of log(ns) against log(n)
            xs = [math.log(n) for n, _ in points]
            ys = [math.log(ns) for _, ns in points]
            mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
            sxx = sum((x - mx) ** 2 for x in xs)
            sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            return sxy / sxx

        exponents = {key: fit(sorted(pts))
                     for key, pts in sorted(families.items())
                     if len(pts) >= 2}

        bad = []
        for spec in args.scaling_exponent:
            try:
                key, max_s = spec.rsplit(":", 1)
                max_exp = float(max_s)
            except ValueError:
                sys.exit(f"--scaling-exponent: cannot parse '{spec}' "
                         f"(expected KEY:MAX)")
            if key not in exponents:
                sys.exit(f"--scaling-exponent: fewer than two {key}/udg<n> "
                         f"rows in the current run")
            exp = exponents[key]
            sizes = "/".join(str(n) for n, _ in sorted(families[key]))
            flag = " <-- SUPERLINEAR" if exp > max_exp else ""
            print(f"{key}: fitted exponent {exp:+.3f} over n={sizes} "
                  f"(max {max_exp:g}){flag}")
            if exp > max_exp:
                bad.append((key, exp, max_exp))

        if args.exponents_out:
            with open(args.exponents_out, "w") as f:
                json.dump({k: round(v, 4) for k, v in exponents.items()},
                          f, indent=2, sort_keys=True)
                f.write("\n")
            print(f"wrote {len(exponents)} fitted exponent(s) to "
                  f"{args.exponents_out}")

        if bad:
            names = ", ".join(f"{k} ({e:.3f} > {m:g})" for k, e, m in bad)
            sys.exit(f"scaling exponent(s) over budget: {names}")
        if args.scaling_exponent:
            print(f"all {len(args.scaling_exponent)} gated scaling "
                  f"exponent(s) within budget")


if __name__ == "__main__":
    main()
