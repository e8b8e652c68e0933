"""Seeded mutation testing of railsim's numeric modules, with the stdlib only.

    python tests/mutants.py --seed 0 --count 40

A mutant makes one edit to one of ``rail``, ``network``, ``baselines``,
``experiment``, ``geometry`` or ``radio``: it swaps one comparison,
arithmetic or boolean operator, or bumps one numeric constant. The seed
picks ``count`` distinct edits from all the modules' candidates. ``src/``
is copied to a temporary directory and each mutant is written there, never
to the checkout; then every ``tests/test_*.py`` but the subprocess-heavy
``test_cli.py``, ``test_demos.py`` and ``test_perfbench.py`` runs with
``pytest -x`` and ``PYTHONPATH`` on the copy, from the temporary directory
(so Hypothesis keeps its database there), once unmutated, which must pass,
and once per mutant. A mutant is killed when the tests fail, time out or
run out of memory, and survives when they pass. One line is printed per
mutant, its module:line:column, the edit, its fate and seconds, and then the
total. A change that folds or deletes tests should not lower the killed
count on a fixed seed.

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = ("baselines", "experiment", "geometry", "network", "radio", "rail")
SKIPPED = ("test_cli.py", "test_demos.py", "test_perfbench.py")
TIMEOUT_S = 300  # a mutant that loops forever counts as killed
MEMORY_BYTES = 4 << 30  # one test run's address space: a runaway mutant fails alone

# each operator's replacement: a comparison's boundary or sense, an
# arithmetic operator's inverse, and a boolean operator's dual
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in", ast.Add: "+",
    ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//", ast.Mod: "%",
    ast.Pow: "**", ast.BitAnd: "&", ast.BitOr: "|", ast.And: "and", ast.Or: "or",
}


def _sites(tree: ast.Module):
    """Every edit the tree allows, in ``ast.walk`` order, as (node, slot,
    description): ``slot`` is the index of the swapped operator in a
    comparison, or None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                yield node, i, f"{SYMBOLS[type(op)]!r} -> {SYMBOLS[SWAPS[type(op)]]!r}"
        elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
            yield node, None, f"{SYMBOLS[type(node.op)]!r} -> {SYMBOLS[SWAPS[type(node.op)]]!r}"
        elif (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
              and not isinstance(node.value, bool)):
            yield node, None, f"{node.value!r} -> {_bumped(node.value)!r}"


def _bumped(value):
    """An int plus 1; a float doubled (0.0 becomes 1.0), so 1e-9 and 1e150
    both change."""
    return value + 1 if isinstance(value, int) else value * 2.0 if value else 1.0


def _mutate(node: ast.AST, slot) -> None:
    """Apply one edit of ``_sites`` in place."""
    if isinstance(node, ast.Compare):
        node.ops[slot] = SWAPS[type(node.ops[slot])]()
    elif isinstance(node, (ast.BinOp, ast.BoolOp)):
        node.op = SWAPS[type(node.op)]()
    else:
        node.value = _bumped(node.value)


def candidates(package: pathlib.Path) -> list[tuple[str, int]]:
    """(module, site index) of every possible mutant, in a fixed order."""
    out = []
    for name in MODULES:
        tree = ast.parse((package / f"{name}.py").read_text())
        out += [(name, k) for k in range(sum(1 for _ in _sites(tree)))]
    return out


def mutant(source: str, k: int) -> tuple[str, str, str]:
    """``source`` with its k-th edit, the edit's line:column and the edit."""
    tree = ast.parse(source)
    node, slot, what = next(s for i, s in enumerate(_sites(tree)) if i == k)
    _mutate(node, slot)
    return ast.unparse(tree), f"{node.lineno}:{node.col_offset}", what


def run_tests(env: dict, cwd: str) -> tuple[bool, bool]:
    """(passed, timed out) of one pytest run over the chosen test files."""
    files = [str(p) for p in sorted((ROOT / "tests").glob("test_*.py")) if p.name not in SKIPPED]
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                             *files], cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True,
                            preexec_fn=lambda: resource.setrlimit(
                                resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES)))
    try:
        return proc.wait(timeout=TIMEOUT_S) == 0, False
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # pytest and any pool workers it forked
        proc.wait()
        return False, True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=40)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="railsim-mutants-") as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        sites = candidates(src / "railsim")
        picked = random.Random(args.seed).sample(sites, min(args.count, len(sites)))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        found = subprocess.run([sys.executable, "-c", "import railsim; print(railsim.__file__)"],
                               env=env, cwd=tmp, capture_output=True, text=True).stdout
        if not found.startswith(str(src)):
            sys.exit(f"the tests would import railsim from {found.strip()!r}, not the copy")
        if not run_tests(env, tmp)[0]:
            sys.exit("the tests fail on the unmutated copy")
        killed, start = 0, time.perf_counter()
        for name, k in picked:
            path = src / "railsim" / f"{name}.py"
            original = path.read_text()
            text, where, what = mutant(original, k)
            path.write_text(text)
            t0 = time.perf_counter()
            try:
                passed, timed_out = run_tests(env, tmp)
            finally:
                path.write_text(original)
            killed += not passed
            fate = "survived" if passed else "killed (timeout)" if timed_out else "killed"
            print(f"{name}.py:{where}  {what}  {fate}  {time.perf_counter() - t0:.1f} s",
                  flush=True)
        print(f"seed {args.seed}: killed {killed} of {len(picked)} mutants "
              f"({len(picked) - killed} survived) in {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
