#!/usr/bin/env python3
"""perfbench: the repository's benchmark.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      [--domains N] [--record FILE]
  python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl
  python3 perfbench/run.py record-hashes --workload NAME --seeds 1-10 --passes K

A run builds pass.exe from source (release profile, into .bench_build),
then starts passes, each in a fresh process, until --seconds have gone
and the workload's minimum pass count is reached.  Pass i runs the
inputs of sub-seed seed*1000+i.  Every pass's outputs are checked.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer ledger with --trace 1.  See perfbench/README.md.
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchstats as bs  # noqa: E402

BUILD_DIR = ".bench_build"
PASS_EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "pass.exe")
EXPECTED = os.path.join(HERE, "expected.json")
PASS_TIMEOUT_S = 120
HARD_LIMIT_S = 140  # stop starting passes; every run must end within 180 s

# The fewest passes a run makes, per workload.  With the period samples
# one pass yields, it also fixes the tail percentile (see README).
MIN_PASSES = {
    "table1-flow": 10,
    "million-flow": 6,
    "des-hopflood": 6,
    "critical-load-sweep": 10,
}

# Which end-to-end metric and workload each layer metric should move.
MOVES = {
    "flow_sim": "period_ms_p50 on million-flow; small on table1-flow",
    "spf_engine": "periods_per_s, period_ms_p50 on table1-flow; not million-flow or des-hopflood",
    "load_assign": "period_ms_p50, minor_words_per_period on million-flow; not table1-flow",
    "metric": "simulation outputs: drive SPF and flood work on table1-flow; a perf-only change keeps them exact",
    "flooding": "period_ms_p50 on table1-flow (the D-SPF half)",
    "engine": "packets_per_s, period_ms_p50 on des-hopflood; nothing on flow workloads",
    "network": "packets_per_s, period_ms_p50 on des-hopflood; nothing on flow workloads",
    "sweep_engine": "points_per_s on critical-load-sweep",
    "domain_pool": "points_per_s on critical-load-sweep",
    "tracer": "no end-to-end metric (those runs are untraced); bounds how far the ledger can be trusted",
}
ROUTE_CHANGES = "flow_sim.route_changes_per_period"


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def tail_pct(workload, passes):
    """The tail percentile a run reports: fixed by the minimum pass count,
    so every run of a workload reports the same one."""
    return bs.tail_percentile(MIN_PASSES[workload] * len(passes[0]["samples_ms"]))


def sub_seed(seed, i):
    return seed * 1000 + i


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and passes


def build():
    dune = shutil.which("dune")
    if dune is None:
        log("perfbench: dune not found on PATH")
        return False
    # No shared dune cache: a run writes only inside its checkout.
    proc = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--cache=disabled", "./perfbench/pass.exe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout)
        log("perfbench: build failed")
        return False
    return True


def run_pass(workload, seed, domains, traced):
    """One pass in a fresh process: its JSON, or None if it crashed."""
    cmd = [PASS_EXE, "--workload", workload, "--seed", str(seed),
           "--domains", str(domains), "--trace", "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: pass {workload} seed {seed} timed out")
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        log(proc.stderr)
        log(f"perfbench: pass {workload} seed {seed} exited {proc.returncode}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_expected():
    try:
        with open(EXPECTED) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def check_passes(workload, results, expected, rerun):
    """(failed, attempted) output checks.  A pass fails when it crashed,
    broke an invariant, or disagrees with its recorded hash.  When some
    sub-seed has no recorded hash, rerun(seed) must reproduce the first
    such one, which is one more check (rerun None: the caller checks
    agreement itself)."""
    recorded = expected.get(workload, {})
    failed = 0
    unrecorded = []
    for seed, r in results:
        if r is None or r["problems"]:
            failed += 1
            if r is not None:
                log(f"perfbench: seed {seed}: {'; '.join(r['problems'])}")
        elif str(seed) in recorded:
            if recorded[str(seed)] != r["hash"]:
                failed += 1
                log(f"perfbench: seed {seed}: output hash {r['hash']} != recorded")
        else:
            unrecorded.append((seed, r["hash"]))
    if not unrecorded or rerun is None:
        return failed, len(results)
    seed, first = unrecorded[0]
    second = rerun(seed)
    if second != first:
        failed += 1
        log(f"perfbench: seed {seed}: a second run gave {second}, first {first}")
    return failed, len(results) + 1


# ---------------------------------------------------------------------------
# Aggregation


def end_to_end(workload, passes):
    """Timings pool every pass's period samples; rates are the median of
    the per-pass rates, so one slow pass cannot drag a whole run."""
    samples = [s for p in passes for s in p["samples_ms"]]
    periods = sum(p["periods"] for p in passes)

    def rate(count, wall):
        return statistics.median(p[count] / p[wall] for p in passes)

    return {
        "setup_s": statistics.median(s for p in passes for s in p["setup_s"]),
        "periods_per_s": rate("periods", "wall_s"),
        "period_ms_p50": statistics.median(samples),
        "period_ms_tail": bs.nearest_rank(samples, tail_pct(workload, passes)),
        "packets_per_s": rate("packets", "wall_s"),
        "points_per_s": rate("points", "point_wall_s"),
        "minor_words_per_period": sum(p["minor_words"] for p in passes) / periods,
        "major_words_per_period": sum(p["major_words"] for p in passes) / periods,
        "peak_heap_mb": statistics.median(p["peak_heap_mb"] for p in passes),
    }


def per_layer(untraced, traced, names):
    """Median over traced passes of each ledger value, plus the values
    that need pooled samples or both kinds of pass.  Returns the values
    (0 for a layer the workload does not exercise) and the set of names
    the workload did measure."""
    def med(key):
        vals = [p["ledger"][key] for p in traced if key in p["ledger"]]
        return statistics.median(vals) if vals else 0.0

    def unspanned(out, name, period, parts):
        vals = [bs.unspanned(p["ledger"][period], [p["ledger"].get(k, 0.0) for k in parts])
                for p in traced if period in p["ledger"]]
        if vals:
            out[name] = statistics.median(vals)

    def pooled(key):
        return [v for p in traced for v in p["lists"].get(key, [])]

    out = {n: med(n) for n in names}
    measured = {n for p in traced for n in p["ledger"]}
    derived = {}
    unspanned(derived, "flow_sim.unspanned_ms", "flow_sim.period_ms",
              ["spf_engine.refresh_ms", "load_assign.assign_ms", "flooding.flood_ms"])
    unspanned(derived, "network.unspanned_ms", "network.period_ms",
              ["network.spf_refresh_ms", "network.flood_ms"])
    pending = pooled("pending")
    if pending:
        derived["engine.pending_p50"] = statistics.median(pending)
    point_ms = pooled("point_ms")
    if point_ms:
        derived["sweep_engine.point_ms_p50"] = statistics.median(point_ms)
        pct = bs.tail_percentile(len(point_ms)) or 50.0
        derived["sweep_engine.point_ms_tail"] = bs.nearest_rank(point_ms, pct)
    plain = [s for p in untraced for s in p["samples_ms"]]
    timed = [s for p in traced for s in p["samples_ms"]]
    derived["tracer.overhead_ratio"] = statistics.median(timed) / statistics.median(plain)
    derived["tracer.dropped"] = sum(p["ledger"].get("tracer.dropped", 0.0) for p in traced)
    out.update(derived)
    return out, measured | set(derived)


# ---------------------------------------------------------------------------
# Provenance


def source_digest():
    h = hashlib.md5()
    for top in ("lib", "perfbench", "dune-project"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if not f.endswith(".pyc"))
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_state():
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True)
    except OSError:
        return None, None
    if rev.returncode != 0 or status.returncode != 0:
        return None, None
    return rev.stdout.strip(), bool(status.stdout.strip())


def provenance(args, domains, ocaml):
    rev, dirty = git_state()
    return {
        "git_rev": rev if rev else "not a git checkout",
        "dirty": dirty,
        "source_md5": source_digest(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "nproc": nproc(),
        "ocaml": ocaml,
        "workload": args.workload,
        "seed": args.seed,
        "domains": domains,
        "oversubscribed": domains > nproc(),
    }


# ---------------------------------------------------------------------------
# Commands


def fmt(v):
    return f"{v:.6g}"


def print_table(title, rows):
    print(title)
    width = max(len(r[0]) for r in rows)
    for r in rows:
        print("  " + r[0].ljust(width) + "  " + "  ".join(r[1:]))


def cmd_run(argv):
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True, choices=sorted(MIN_PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--domains", type=int, default=None,
                    help="domain-pool size (default: nproc)")
    ap.add_argument("--record", metavar="FILE",
                    help="append this run's result as one JSON line")
    args = ap.parse_args(argv)
    bench = load_benchmark()
    if not build():
        return 2
    domains = args.domains or nproc()
    traced = args.trace == 1
    start = time.monotonic()
    results = []  # (sub-seed, untraced pass or None)
    traced_results = []
    i = 0
    while True:
        elapsed = time.monotonic() - start
        if i >= MIN_PASSES[args.workload] and elapsed >= args.seconds:
            break
        if i >= 2 and elapsed >= HARD_LIMIT_S:
            log("perfbench: hard time limit reached")
            break
        seed = sub_seed(args.seed, i)
        # In traced runs each sub-seed runs twice, untraced and traced, in
        # alternating order so neither side always runs second.
        order = [False, True] if traced else [False]
        for t in order if i % 2 == 0 else reversed(order):
            (traced_results if t else results).append(
                (seed, run_pass(args.workload, seed, domains, t)))
        i += 1
    end = time.monotonic()

    expected = load_expected()
    if traced:
        # Tracing must not change a result: each traced pass is the second
        # run of its sub-seed and has to reproduce the untraced hash.
        failed, attempted = check_passes(args.workload, results, expected, None)
        hashes = dict((s, r["hash"]) for s, r in results if r is not None)
        for s, r in traced_results:
            attempted += 1
            if r is None or r["problems"] or r["hash"] != hashes.get(s):
                failed += 1
                log(f"perfbench: seed {s}: traced pass disagrees or failed")
    else:
        def rerun(s):
            r = run_pass(args.workload, s, domains, False)
            return r["hash"] if r else None
        failed, attempted = check_passes(args.workload, results, expected, rerun)
    untraced = [r for _, r in results if r is not None]
    traced_ok = [r for _, r in traced_results if r is not None]
    if not untraced or (traced and not traced_ok):
        log("perfbench: no pass completed")
        return 1

    prov = provenance(args, domains, untraced[0]["ocaml"])
    e2e = end_to_end(args.workload, untraced)
    n_samples = sum(len(p["samples_ms"]) for p in untraced)
    print(f"perfbench {args.workload}: seed {args.seed}, {domains} domains "
          f"(nproc {prov['nproc']}{', oversubscribed' if prov['oversubscribed'] else ''}), "
          f"{len(untraced)} passes in {end - start:.1f} s, "
          f"{n_samples} period samples, tail = p{tail_pct(args.workload, untraced):g}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    rows = [(m["name"], fmt(e2e[m["name"]]), units[m["name"]])
            for m in bench["end_to_end"]]
    rows.append(("failed_share", fmt(failed / attempted), f"({failed} of {attempted} checks)"))
    print_table("end-to-end (untraced):", rows)

    if traced:
        names = [m["name"] for m in bench["per_layer"]]
        ledger, measured = per_layer(untraced, traced_ok, names)
        print(f"per-layer ledger (traced, {len(traced_ok)} passes; "
              "ms are per routing period):")
        layers = {}
        for n in names:
            layers.setdefault("metric" if n == ROUTE_CHANGES else n.split(".")[0], []).append(n)
        for layer, members in layers.items():
            print_table(f"  {layer} -> {MOVES[layer]}",
                        [(n, fmt(ledger[n]) if n in measured else "0 (not exercised)",
                          units[n] if n in measured else "") for n in members])
        metrics = {n: {"value": ledger[n], "unit": units[n]} for n in names}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    if args.record:
        record = {"provenance": prov, "trace": args.trace,
                  "tail_pct": tail_pct(args.workload, untraced), "samples": n_samples,
                  "passes": len(untraced), "attempted": attempted,
                  "failed": failed, "metrics": metrics, "end_to_end": e2e}
        with open(args.record, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def read_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def cmd_compare(argv):
    ap = argparse.ArgumentParser(prog="run.py compare")
    ap.add_argument("parent", help="JSON lines written by --record on the parent")
    ap.add_argument("change", help="JSON lines written by --record on the change")
    args = ap.parse_args(argv)
    bench = load_benchmark()
    sides = []
    for path in (args.parent, args.change):
        kept = {}
        for r in read_records(path):
            if r["trace"] != 0:
                continue
            if r["provenance"]["oversubscribed"]:
                log(f"compare: skipping an oversubscribed run in {path}")
                continue
            kept.setdefault(r["provenance"]["workload"], []).append(r)
        sides.append(kept)
    parent, change = sides
    regressed = False
    print("workload / metric: parent median [q1, q3] -> change median [q1, q3], "
          "win share, verdict (bound)")
    for workload in sorted(set(parent) & set(change)):
        print(f"{workload}: {len(parent[workload])} parent runs, "
              f"{len(change[workload])} change runs")
        for m in bench["end_to_end"]:
            name = m["name"]
            p = [r["end_to_end"][name] for r in parent[workload]]
            c = [r["end_to_end"][name] for r in change[workload]]
            pq, cq = bs.quartiles(p), bs.quartiles(c)
            v = bs.verdict(p, c, m["better"], m["bound"])
            regressed = regressed or v == "regressed"
            print(f"  {name:24s} {fmt(pq[1])} [{fmt(pq[0])}, {fmt(pq[2])}] -> "
                  f"{fmt(cq[1])} [{fmt(cq[0])}, {fmt(cq[2])}] {m['unit']}, "
                  f"wins {bs.win_share(p, c, m['better']):.2f}, {v} "
                  f"({m['bound']:g})")
    return 1 if regressed else 0


def parse_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def cmd_record_hashes(argv):
    ap = argparse.ArgumentParser(prog="run.py record-hashes")
    ap.add_argument("--workload", required=True, choices=sorted(MIN_PASSES))
    ap.add_argument("--seeds", required=True, help="e.g. 1-10")
    ap.add_argument("--passes", type=int, required=True,
                    help="sub-seeds recorded per seed")
    args = ap.parse_args(argv)
    if not build():
        return 2
    expected = load_expected()
    table = expected.setdefault(args.workload, {})
    for seed in parse_range(args.seeds):
        for i in range(args.passes):
            s = sub_seed(seed, i)
            r = run_pass(args.workload, s, nproc(), False)
            if r is None or r["problems"]:
                log(f"record-hashes: sub-seed {s} failed its checks")
                return 1
            table[str(s)] = r["hash"]
    for w in expected:
        expected[w] = dict(sorted(expected[w].items(), key=lambda kv: int(kv[0])))
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        return cmd_compare(argv[1:])
    if argv and argv[0] == "record-hashes":
        return cmd_record_hashes(argv[1:])
    return cmd_run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
