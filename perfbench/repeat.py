#!/usr/bin/env python3
"""Repeats perfbench runs and writes the noise ledger.

    python3 perfbench/repeat.py

Run it from the root of the checkout. Set k (k = 1, 2) runs every workload of
BENCHMARK.json once per seed, seeds (k-1)*10+1 .. k*10, untraced, for
run_seconds each. For every workload and end-to-end metric NOISE_LEDGER.md
records each set's median and quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median, the drift (set 2 median - set 1 median) / set 1
median, and the metric's bound. A spread or a |drift| above the bound is FAIL;
a spread above a third of the bound is wide. The ledger lists every FAIL under
"Not within bound", and the script exits 1 when there is one. It also records
the host's CPU steal during each run: the steal column of /proc/stat as a
share of the CPU time the VM asked for (all but idle and iowait), so a shift
between sets can be set against the host.
"""
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "perfbench" / "NOISE_LEDGER.md"
SETS = 2
RUNS = 10
# The pairs that drifted most between two sets of unchanged code in an
# earlier design of this benchmark.
WATCH = [("serve_churn", "setup_s"), ("offline_ship", "op_ms"),
         ("network_forward", "setup_s")]
DROPPED = [
    "`op_ms.p99` is not an end-to-end metric; runs print it as a `tail:` line.",
    "`network_forward` (2-5 ops a run) and `offline_ship` (about 35) cannot "
    "put ten ops beyond a p99.",
    "The serve tails have thousands of samples beyond p99 but follow the "
    "host's load: in an earlier design of this benchmark, the `serve_churn` "
    "p99 moved from 1.84 to 4.68 ms between two sets of unchanged code.",
]


def cpu_times():
    """(steal, demanded) jiffies from the cpu line of /proc/stat."""
    with open("/proc/stat") as stat:
        user, nice, system, idle, iowait, irq, softirq, steal = (
            int(f) for f in stat.readline().split()[1:9])
    return steal, user + nice + system + irq + softirq + steal


def run_once(workload, seed, seconds):
    """The run's end-to-end metrics and the host's steal share during it."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    steal_before, demanded_before = cpu_times()
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    steal_after, demanded_after = cpu_times()
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect outputs\n{out.stdout}")
    steal = (steal_after - steal_before) / max(demanded_after - demanded_before, 1)
    return {name: m["value"] for name, m in result["metrics"].items()}, steal


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    started = time.time()
    values = {}  # workload -> metric -> [set 1 values, set 2 values]
    steals = {w: [[] for _ in range(SETS)] for w in workloads}
    for k in range(SETS):
        for workload in workloads:
            for seed in range(k * RUNS + 1, (k + 1) * RUNS + 1):
                metrics, steal = run_once(workload, seed, spec["run_seconds"])
                steals[workload][k].append(steal)
                for name, value in metrics.items():
                    values.setdefault(workload, {}).setdefault(
                        name, [[] for _ in range(SETS)])[k].append(value)
                print(f"set {k + 1} {workload} seed {seed}: steal "
                      f"{100 * steal:.1f}% " +
                      " ".join(f"{n}={v:.6g}" for n, v in metrics.items()),
                      flush=True)

    for workload in workloads:
        values[workload]["host_steal"] = steals[workload]

    rows = {}
    failures = []
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary(v) for v in values[workload][name]]
            lines = []
            for k, s in enumerate(stats):
                verdict = "ok"
                if s["spread"] > bound:
                    verdict = "FAIL"
                    failures.append(f"`{workload}` `{name}`: set {k + 1} "
                                    f"spread {s['spread']:.3f}")
                elif s["spread"] > bound / 3:
                    verdict = "wide"
                lines.append(
                    f"| {workload} | {name} | {k + 1} | {s['median']:.6g} | "
                    f"{s['q1']:.6g} | {s['q3']:.6g} | {s['spread']:.4f} | "
                    f"{bound} | {verdict} |")
            drift = (stats[-1]["median"] - stats[0]["median"]) / stats[0]["median"]
            verdict = "ok"
            if abs(drift) > bound:
                verdict = "FAIL"
                failures.append(f"`{workload}` `{name}`: drift {drift:+.3f}")
            lines.append(f"| {workload} | {name} | drift | | | | "
                         f"{drift:+.4f} | {bound} | {verdict} |")
            rows[(workload, name)] = lines

    table = ["| workload | metric | set | median | q1 | q3 | spread | bound "
             "| verdict |", "|---|---|---|---|---|---|---|---|---|"]
    text = [
        "# perfbench noise ledger", "",
        f"{SETS} sets of {RUNS} runs per workload, {spec['run_seconds']} s "
        f"each; set k uses seeds (k-1)*{RUNS}+1..k*{RUNS}. Written by "
        f"`python3 perfbench/repeat.py` in "
        f"{(time.time() - started) / 60:.0f} min.",
        "", "## Not within bound", "",
        "Set each against the host steal table below; perfbench/README.md "
        "discusses them.", ""]
    text += [f"- {line}" for line in failures] or ["None."]
    text += ["", "## Host steal", "",
             "The host's CPU steal during each run, as a share of the CPU "
             "time the VM asked for: median (min-max) over the set's runs.",
             "",
             "| workload | set 1 | set 2 |", "|---|---|---|"]
    text += [f"| {w} | " + " | ".join(
        f"{100 * statistics.median(s):.1f}% ({100 * min(s):.1f}-"
        f"{100 * max(s):.1f}%)" for s in steals[w]) + " |" for w in workloads]
    text += ["", "## Dropped", ""] + [f"- {line}" for line in DROPPED]
    text += ["", "## Watch list", "",
             "The pairs that drifted most between two sets of unchanged code "
             "in an earlier design of this benchmark.", ""]
    text += table + [line for pair in WATCH for line in rows[pair]]
    text += ["", "## Every workload and metric", ""] + table
    text += [line for lines in rows.values() for line in lines]
    text += ["", "## Raw values", "",
             "Per workload and metric: the set 1 values, then the set 2 "
             "values, in seed order. `host_steal` is the steal share of "
             "each run.", "", "```json",
             json.dumps(values, indent=1), "```", ""]
    LEDGER.write_text("\n".join(text))
    print(f"ledger written to {LEDGER.relative_to(ROOT)}; "
          f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
