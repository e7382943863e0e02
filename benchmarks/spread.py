"""Run-to-run spread of the end-to-end metrics, the way regressions are judged.

    python3 benchmarks/spread.py --workloads probe_deep train_ssa_ddpg --seeds 1-10 \
        --sets 2 --out .bench_build/spread.jsonl

Runs run.py once per workload and seed, one run at a time, and prints, for
each workload and metric, the median and the spread: the distance between
the first and third quartile as a share of the median.  Every raw result is
appended to ``--out``.  With ``--sets 2`` each seed runs twice, once for each
set, alternating which set goes first, so that host drift over minutes falls
on both sets alike.  It then prints how far each median of set 2 moved from
set 1's, against the metric's bound in BENCHMARK.json, and whether the
seeded-output digests of the two sets are identical.  With ``--compare FILE``
it compares with the runs of an earlier output file the same way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: (m["bound"], m["better"]) for m in SPEC["end_to_end"]}


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, check=True, timeout=600,
    )
    *_, info, result = done.stdout.strip().splitlines()
    return {"workload": workload, "seed": seed, "info": json.loads(info), "result": json.loads(result)}


def summarize(rows: list[dict]) -> dict:
    """(workload, metric) -> (median, spread, runs, unit)"""
    values = defaultdict(list)
    units = {}
    for row in rows:
        for name, metric in row["result"]["metrics"].items():
            values[(row["workload"], name)].append(metric["value"])
            units[name] = metric["unit"]
    out = {}
    for key, vals in sorted(values.items()):
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[key] = (med, (q3 - q1) / med if med else 0.0, len(vals), units[key[1]])
    return out


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def report(rows: list[dict]) -> None:
    print(f"{'workload':18} {'metric':12} {'median':>12} {'unit':5} {'spread':>8} {'bound':>6} runs")
    for (workload, name), (med, spread, n, unit) in summarize(rows).items():
        print(f"{workload:18} {name:12} {med:12.5g} {unit:5} {spread:8.4f} {BOUNDS[name][0]:6.3f} {n}")


def compare(before_rows: list[dict], rows: list[dict]) -> None:
    """How far each median moved, worse counted positive, and digest identity."""
    before = summarize(before_rows)
    print(f"{'workload':18} {'metric':12} {'worse by':>9} {'bound':>6}")
    for key, (med, *_) in summarize(rows).items():
        if key in before:
            bound, better = BOUNDS[key[1]]
            moved = (med - before[key][0]) / before[key][0]
            worse = moved if better == "lower" else -moved
            print(f"{key[0]:18} {key[1]:12} {worse:9.4f} {bound:6.3f}"
                  + ("  over bound" if worse > bound else ""))
    earlier = {(r["workload"], r["seed"]): r["info"]["digest"] for r in before_rows}
    clashes = [(r["workload"], r["seed"]) for r in rows
               if earlier.get((r["workload"], r["seed"]), r["info"]["digest"]) != r["info"]["digest"]]
    print("digests identical" if not clashes else f"digests differ: {clashes}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()

    rows = []
    for workload in args.workloads:
        for k, seed in enumerate(args.seeds):
            order = (1, 2) if k % 2 == 0 else (2, 1)
            for set_no in order if args.sets == 2 else (1,):
                row = run_once(workload, seed, args.seconds)
                row["set"] = set_no
                rows.append(row)
                res = row["result"]
                print(f"set={set_no} {workload} seed={seed} correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} digest={row['info']['digest']} "
                      + " ".join(f"{n}={v['value']:.5g} {v['unit']}" for n, v in res["metrics"].items()),
                      flush=True)
                with args.out.open("a") as fh:
                    fh.write(json.dumps(row) + "\n")

    sets = [[r for r in rows if r["set"] == n] for n in range(1, args.sets + 1)]
    for n, set_rows in enumerate(sets, 1):
        print(f"\nset {n}")
        report(set_rows)
    if args.sets == 2:
        print("\nset 2 against set 1")
        compare(sets[0], sets[1])
    if args.compare:
        print(f"\nagainst {args.compare}")
        compare(load(args.compare), rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
