"""Print the code lines of each module of src/gsocc and their total.

A code line is a line that holds a Python token: blank lines, comments and
docstrings (module, class and function) do not count. Run from anywhere:

    python3 scripts/code_lines.py

or compare the working tree with a git revision of it:

    python3 scripts/code_lines.py --against REV

With `--against REV` each line gives the module's code lines at REV (read
with `git show`), in the working tree and the difference; a module that
only one side has counts 0 on the other.
"""

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gsocc"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def _git(*args) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(done.stderr.strip())
    return done.stdout


def lines_at(rev: str) -> dict:
    """{module name: code lines} of the modules of src/gsocc at git `rev`."""
    names = _git("ls-tree", "--name-only", f"{rev}:src/gsocc").split()
    return {
        n: code_lines(_git("show", f"{rev}:src/gsocc/{n}")) for n in names if n.endswith(".py")
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="git revision to compare with")
    args = parser.parse_args()
    here = {path.name: code_lines(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    if args.against is None:
        for name, n in here.items():
            print(f"{name:16} {n:5}")
        print(f"{'total':16} {sum(here.values()):5}")
    else:
        then = lines_at(args.against)
        rows = {name: (then.get(name, 0), here.get(name, 0)) for name in sorted({*then, *here})}
        rows["total"] = (sum(then.values()), sum(here.values()))
        print(f"{'':16} {args.against[:12]:>12} {'tree':>6} {'diff':>6}")
        for name, (a, b) in rows.items():
            print(f"{name:16} {a:12} {b:6} {b - a:+6}")
