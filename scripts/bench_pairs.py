#!/usr/bin/env python3
"""Run pipebench on the working tree and on a git revision, in alternating pairs.

    python3 scripts/bench_pairs.py --against REV --pairs 6 --seconds 10 \\
        [--workload W ...] --out BENCH_<pr>.json

Both sides are built the same way, as sibling directories under one
temporary parent: REV from `git archive`, the working tree from the files
that `git ls-files -z --cached --others --exclude-standard` lists. Neither
side runs from the repository itself, and nothing is written under .git.
Each run is a fresh `python3 pipebench/run.py --workload W --seconds S
--trace 0` in that side's own directory. REV runs first in odd pairs and
the working tree runs first in even ones. The output calls the two sides
"rev" and "new" (the working tree).

For each workload and each end-to-end metric of BENCHMARK.json, the output
holds both sides' samples with their median, Q1 and Q3 (inclusive
quartiles), the number of pairs the change won, whether the gap between
the medians exceeds the parent's interquartile range, and whether the
change is worse than the parent by more than the metric's bound (read as a
fraction of the parent's median). It also holds the median and quartiles
of the per-pair ratios new / rev: the two sides of a pair run back to back,
so host load that drifts across pairs cancels in the ratio but not in the
gap between the medians. Every run's `correct` and `failed` are
kept, and so is the machine: nproc, Python, numpy and scipy versions,
`OPENBLAS_CORETYPE`, numpy's SIMD dispatch, both commits and whether the
working tree is dirty. `--against HEAD` on a clean tree is an A/A run: its
gaps are the benchmark's noise floor.

Exits 1 if a run failed or was not correct, or if a metric is worse beyond
its bound. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SIDES = ("rev", "new")

# numpy's version, its SIMD dispatch and scipy's version, read in a child so
# this script imports neither.
NUMPY_CHILD = (
    "import json, numpy, scipy\n"
    "m = (numpy._core if hasattr(numpy, '_core') else numpy.core)._multiarray_umath\n"
    "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,\n"
    "    'simd_baseline': list(m.__cpu_baseline__),\n"
    "    'simd_dispatch': list(m.__cpu_dispatch__),\n"
    "    'simd_dispatch_in_use': [t for t in m.__cpu_dispatch__ if m.__cpu_features__[t]]}))\n"
)


def quartiles(samples: list) -> dict:
    """Median, Q1 and Q3 of `samples`; the quartiles interpolate between
    order statistics as numpy's default percentile does."""
    if len(samples) == 1:
        q1 = q3 = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"samples": samples, "median": statistics.median(samples), "q1": q1, "q3": q3}


def compare(rev: list, new: list, better: str, bound: float) -> dict:
    """One metric over paired runs: `rev[i]` and `new[i]` are pair i's
    parent and change values. A pair is won when the change is strictly
    better; `worse_beyond_bound` when the change's median is worse than the
    parent's by more than `bound` times the parent's median. `ratio` holds
    the quartiles of the per-pair ratios new / rev."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = quartiles(rev), quartiles(new)
    gap = b["median"] - a["median"]
    iqr = a["q3"] - a["q1"]
    return {
        "rev": a,
        "new": b,
        "pairs": len(rev),
        "won": sum(sign * (y - x) < 0 for x, y in zip(rev, new)),
        "median_gap": gap,
        "ratio": quartiles([y / x for x, y in zip(rev, new)]),
        "parent_iqr": iqr,
        "gap_exceeds_parent_iqr": abs(gap) > iqr,
        "worse_beyond_bound": sign * gap > bound * abs(a["median"]),
    }


def _git(*args, binary=False):
    env = {**os.environ, "GIT_OPTIONAL_LOCKS": "0"}
    done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, check=False)
    if done.returncode:
        raise SystemExit(f"git {args[0]}: {done.stderr.decode().strip()}")
    return done.stdout if binary else done.stdout.decode().strip()


def build_rev(rev: str, dest: Path) -> None:
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=_git("archive", rev, binary=True),
                   check=True)


def build_tree(dest: Path) -> None:
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard", binary=True)
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_symlink() or src.is_file():  # a deleted tracked file is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name, follow_symlinks=False)


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(q for q in path.rglob("*") if q.is_file()):
        h.update(p.relative_to(path).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def run_side(side: Path, workload: str, seconds: float) -> dict:
    """The last stdout line of the side's pipebench run, or the error."""
    argv = [sys.executable, "pipebench/run.py", "--workload", workload,
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=side, capture_output=True, text=True, check=False)
    try:
        result = json.loads(done.stdout.splitlines()[-1])
        return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    except (IndexError, ValueError, KeyError):
        return {"correct": False, "failed": None, "exit": done.returncode,
                "error": done.stderr[-2000:]}


def machine() -> dict:
    done = subprocess.run([sys.executable, "-c", NUMPY_CHILD], capture_output=True, text=True,
                          check=True)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **json.loads(done.stdout),
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"),
        "machine": platform.machine(),
    }


def bench_workload(sides: dict, workload: str, pairs: int, seconds: float,
                   declared: list) -> dict:
    runs = []
    for pair in range(1, pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            print(f"{workload} pair {pair}/{pairs}: {side}", file=sys.stderr, flush=True)
            runs.append({"pair": pair, "side": side, **run_side(sides[side], workload, seconds)})
    by_pair = {}
    for r in runs:
        if r["correct"] and r["failed"] == 0:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    complete = [p for p in by_pair.values() if len(p) == 2]
    metrics = {}
    # A metric that one side's pipebench does not print is left out.
    for m in declared:
        if complete and all(m["name"] in side for p in complete for side in p.values()):
            rev = [p["rev"][m["name"]]["value"] for p in complete]
            new = [p["new"][m["name"]]["value"] for p in complete]
            metrics[m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                                  **compare(rev, new, m["better"], m["bound"])}
    return {"runs": runs, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--against", required=True, metavar="REV", help="git revision of the parent")
    p.add_argument("--pairs", type=int, default=6)
    p.add_argument("--seconds", type=float, default=10.0, help="pipebench --seconds of each run")
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="a workload to run (repeatable; default: all)")
    p.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    workloads = args.workload or WORKLOADS

    record = {
        "command": ["scripts/bench_pairs.py", *(argv if argv is not None else sys.argv[1:])],
        "machine": machine(),
        "against": {"rev": args.against, "commit": _git("rev-parse", f"{args.against}^{{commit}}")},
        "working_tree": {"commit": _git("rev-parse", "HEAD"),
                         "dirty": bool(_git("status", "--porcelain"))},
        "pairs": args.pairs,
        "seconds": args.seconds,
        "quartiles": "inclusive (numpy's default percentile)",
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        sides = {side: Path(tmp) / side for side in SIDES}
        build_rev(args.against, sides["rev"])
        build_tree(sides["new"])
        record["pipebench_differs"] = len({tree_digest(s / "pipebench") for s in sides.values()}) > 1
        record["workloads"] = {
            w: bench_workload(sides, w, args.pairs, args.seconds, BENCHMARK["end_to_end"]) for w in workloads
        }
    args.out.write_text(json.dumps(record, indent=2) + "\n")

    bad = 0
    for w, doc in record["workloads"].items():
        failed = [r for r in doc["runs"] if not r["correct"] or r["failed"] != 0]
        bad += len(failed)
        if failed:
            print(f"{w}: {len(failed)} of {len(doc['runs'])} runs failed or were not correct")
        for name, m in doc["metrics"].items():
            bad += m["worse_beyond_bound"]
            print(f"{w} {name}: {m['rev']['median']:.4g} -> {m['new']['median']:.4g} "
                  f"{m['unit']}, won {m['won']}/{m['pairs']}, gap {m['median_gap']:+.3g} "
                  f"(median ratio {m['ratio']['median']:.4f}) vs parent IQR {m['parent_iqr']:.3g}"
                  + (", WORSE BEYOND BOUND" if m["worse_beyond_bound"] else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
