#!/usr/bin/env python3
"""Compare two source trees on one benchmark workload in alternating pairs.

Runs ``bench/run.py --trace 0`` of each tree, from that tree's root, for
``--pairs`` pairs of one workload.  Within a pair the two runs alternate
which goes first, so a drift in the machine's load hits both trees alike.
The parent tree is any checkout of the commit to compare against, such as
one made with ``git worktree add`` or ``git archive``.  For every end-to-end
metric that ``BENCHMARK.json`` declares, it prints each pair's values, both
medians, the parent's quartile distance, the number of pairs the change
wins, whether the change's median is worse than the parent's by more than
the metric's bound, and a verdict (``summarize``): ``gain``,
``unresolved``, ``worse beyond bound`` or ``within bound``.  As it goes, it
prints each run's metrics, its round count (from the ``round`` lines on
standard error) and its failed operations.  The summary also gives each
side's round counts and flags every pair whose two runs did different
numbers of rounds: a run of more rounds forks later rounds' pools from a
larger process, so its ``peak_rss_mb`` does not compare with a one-round
run's.  Each run's minor page faults and system CPU seconds, its own and
those of every process it waited for (setup probes, pool workers), are
printed with it, and each side's medians in the summary; they show how much
of a run goes to faulting memory in afresh, and carry no verdict.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload train-neural16-pool2 --pairs 10 --seed 23
"""

import argparse
import json
import operator
import resource
import statistics
import subprocess
import sys
from pathlib import Path


def child_churn(run):
    """``run()``'s result, and the minor page faults (``minflt``) and system
    CPU seconds (``stime_s``) of the child processes that ended, and were
    waited for, while it ran: their own and their waited-for children's."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = run()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return out, {"minflt": after.ru_minflt - before.ru_minflt,
                 "stime_s": after.ru_stime - before.ru_stime}


def run_bench(tree, workload, seed):
    """One ``--trace 0`` run of ``tree``'s own ``bench/run.py``: its metric
    values by name, its round count, its failed operations and its
    :func:`child_churn`."""
    done, churn = child_churn(lambda: subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False))
    if done.returncode != 0:
        raise SystemExit(f"bench/run.py in {tree} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    rounds = sum(1 for line in done.stderr.splitlines() if line.startswith("round "))
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, rounds, result["failed"], churn


def quartile_distance(values):
    """Third quartile minus first (inclusive method); 0 for one value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs, metrics):
    """One row per end-to-end metric of ``metrics`` (``BENCHMARK.json``'s
    ``end_to_end`` entries) over ``pairs``, a list of (parent, change)
    metric-value dicts: the per-pair values, both medians, the parent's
    quartile distance, the pairs in which the change is strictly better,
    whether the change's median is worse than the parent's by more than the
    metric's bound (a fraction of the parent's median), and a verdict:

    - ``gain`` when the change is better in at least nine of ten pairs (a
      tie counts for neither side) and its median is better than the
      parent's by more than the parent's quartile distance;
    - else ``unresolved`` when that distance is wider than the bound, unless
      every change run is better than every parent run;
    - else ``worse beyond bound`` or ``within bound``.
    """
    rows = []
    for spec in metrics:
        name, bound = spec["name"], spec["bound"]
        better = operator.lt if spec["better"] == "lower" else operator.gt
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        iqr = quartile_distance(parent)
        wins = sum(better(c, p) for p, c in zip(parent, change))
        limit = p_med * (1 + bound) if better is operator.lt else p_med * (1 - bound)
        worse = better(limit, c_med)
        if 10 * wins >= 9 * len(pairs) and better(c_med, p_med) and abs(c_med - p_med) > iqr:
            verdict = "gain"
        elif iqr > bound * abs(p_med) and not all(better(c, p) for c in change
                                                  for p in parent):
            verdict = "unresolved"
        else:
            verdict = "worse beyond bound" if worse else "within bound"
        rows.append({"name": name, "parent": parent, "change": change,
                     "parent_median": p_med, "change_median": c_med,
                     "parent_iqr": iqr, "wins": wins, "pairs": len(pairs),
                     "worse_beyond_bound": worse, "verdict": verdict})
    return rows


def round_counts(rounds):
    """Each side's round counts over ``rounds``, a list of (parent, change)
    round counts per pair, and the pairs (numbered from 1) whose two runs
    did different numbers of rounds."""
    return {"parent": [p for p, _ in rounds], "change": [c for _, c in rounds],
            "differ": [i + 1 for i, (p, c) in enumerate(rounds) if p != c]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="source tree to compare against")
    ap.add_argument("--change", required=True, type=Path, help="source tree of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=23)
    args = ap.parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]

    pairs, round_pairs = [], []
    churns = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {}
        for side in order:
            tree = args.parent if side == "parent" else args.change
            runs[side] = run_bench(tree.resolve(), args.workload, args.seed)
            values, rounds, failed, churn = runs[side]
            churns[side].append(churn)
            print(f"pair {i + 1} {side}: rounds {rounds}, failed {failed}, "
                  f"minflt {churn['minflt']}, stime_s {churn['stime_s']:.3f}, "
                  + ", ".join(f"{k} {v:.6g}" for k, v in values.items()), flush=True)
        pairs.append((runs["parent"][0], runs["change"][0]))
        round_pairs.append((runs["parent"][1], runs["change"][1]))

    print(f"\n{args.workload}, seed {args.seed}, {len(pairs)} pairs (parent/change):")
    for row in summarize(pairs, metrics):
        per_pair = " ".join(f"{p:.6g}/{c:.6g}" for p, c in zip(row["parent"], row["change"]))
        print(f"{row['name']}: median {row['parent_median']:.6g} -> {row['change_median']:.6g}"
              f" (parent IQR {row['parent_iqr']:.6g}), change better in"
              f" {row['wins']}/{row['pairs']},"
              f" {'WORSE beyond bound' if row['worse_beyond_bound'] else 'within bound'}:"
              f" {row['verdict']}")
        print(f"  pairs: {per_pair}")
    for side in ("parent", "change"):
        print(f"churn, {side}: median minflt"
              f" {statistics.median(c['minflt'] for c in churns[side]):.0f},"
              f" median stime_s {statistics.median(c['stime_s'] for c in churns[side]):.3f}")
    counts = round_counts(round_pairs)
    for side in ("parent", "change"):
        print(f"rounds, {side}: {' '.join(map(str, counts[side]))}")
    if counts["differ"]:
        print("ROUNDS DIFFER in pairs " + " ".join(map(str, counts["differ"])))
    else:
        print("rounds: equal in every pair")


if __name__ == "__main__":
    main()
