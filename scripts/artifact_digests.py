#!/usr/bin/env python3
"""Print the SHA-256 of every `run_pipeline` artifact, one line per file.

Runs the pipeline at seed 7 for the default config, for the default config
with `dump_probs`, and for each benchmark workload of `pipebench/run.py`,
each in its own temporary directory. It also runs the subcommand chain
`gen-scene -> render-depth -> init` for the default config at the same seed
and prints the digest of each file it writes (`cli-init` lines). Run it
from the repository root of two checkouts and diff the outputs to check
that a change keeps every artifact byte-identical:

    python3 scripts/artifact_digests.py > digests.txt

or compare this checkout's digests with a saved list in one command:

    python3 scripts/artifact_digests.py --against digests.txt

With `--against FILE` it prints, instead of the list, every file whose
digest differs from FILE or that only one side lists, then a count, and
exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def load_workloads() -> dict:
    """The benchmark's workload configs: the WORKLOADS literal of
    pipebench/run.py, read from its source. The file is not executed, since
    running it would pin the caller's BLAS thread variables and import its
    sibling spans.py."""
    tree = ast.parse((ROOT / "pipebench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WORKLOADS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise SystemExit("pipebench/run.py assigns no WORKLOADS literal")


def digests(name: str, out: Path) -> list:
    """One "<name> <file> <sha256>" line per file under `out`, sorted."""
    lines = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{name} {path.relative_to(out).as_posix()} {digest}")
    return lines


def compare(lines: list, saved: list) -> int:
    """Print each file whose digest in `lines` differs from `saved` or that
    only one of them lists ("-" for the other), then a count; returns it."""
    want = dict(line.rsplit(" ", 1) for line in saved if line.strip())
    got = dict(line.rsplit(" ", 1) for line in lines)
    keys = [*want, *(k for k in got if k not in want)]
    bad = [k for k in keys if want.get(k) != got.get(k)]
    for k in bad:
        print(f"{k} saved {want.get(k, '-')} run {got.get(k, '-')}")
    print(f"{len(bad)} of {len(keys)} digests differ")
    return len(bad)


def run_cli_init(out: Path) -> None:
    """`gsocc gen-scene`, `render-depth` and `init` into `out`; the last two
    read the scene the first wrote."""
    from gsocc.cli import main as gsocc

    scene = str(out / "scene.json")
    seed = ["--seed", str(SEED)]

    def step(*argv):
        if gsocc([*argv, *seed]) != 0:
            raise SystemExit(f"gsocc {argv[0]} failed")

    step("gen-scene", "--scene", scene)
    step("render-depth", "--scene", scene, "--out", str(out))
    step("init", "--scene", scene, "--output", str(out / "gaussians_init.gsb"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="saved digest list to compare with")
    args = parser.parse_args(argv)
    saved = args.against.read_text().splitlines() if args.against else None
    configs = {"default": {}, "dump-probs": {"dump_probs": True}, **load_workloads()}
    sys.path.insert(0, str(ROOT / "src"))
    from gsocc.pipeline import PipelineConfig, run_pipeline

    lines = []
    for name, doc in configs.items():
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            run_pipeline(PipelineConfig.from_dict({**doc, "seed": SEED, "out_dir": str(out)}))
            lines += digests(name, out)
    with tempfile.TemporaryDirectory() as tmp:
        run_cli_init(Path(tmp))
        lines += digests("cli-init", Path(tmp))
    if saved is None:
        print("\n".join(lines))
        return 0
    return 1 if compare(lines, saved) else 0


if __name__ == "__main__":
    sys.exit(main())
