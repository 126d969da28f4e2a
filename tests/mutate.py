"""Single-operator mutants of the library, each run against the whole tier-1.

    python tests/mutate.py [--seed 0] [--sites 30] [--list] [module ...]

A mutant swaps one operator of one module of ``src/windwalk`` for its
partner: a comparison ``<``/``<=``, ``>``/``>=`` or ``==``/``!=``, or an
arithmetic ``+``/``-`` or ``*``/``/``.  ``sites`` lists every such operator
of a module's source in source order, and ``sample`` draws ``--sites`` of
them with ``random.Random(seed)``, so one seed names the same mutants on
every run over one source.  The modules are the ones named, or all of them.

The mutants are written into a ``git archive`` copy of ``HEAD`` in a
temporary directory, never into the working tree, and the whole tier-1 runs
there under ``pytest -x``: every test file reaches every module through
``windwalk/__init__``, so a survivor has met every test.  The copy first
runs tier-1 unmutated, which must pass, and which sets each mutant's time
limit to three times its wall time.  No bytecode is written, so no mutant
reads another's cached code, and each run is held to ``MEMORY_LIMIT`` bytes
of address space.  A mutant is killed when its run fails or times out.  One
line per mutant gives its site, its swap and its end; then come each
survivor's file:line and source line, and killed/total per module.
``--list`` prints the sampled sites and runs nothing.  A mutant costs up to
one tier-1 run, about a minute on a 2-CPU host.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import random
import resource
import signal
import subprocess
import sys
import tempfile
import time
from typing import List, NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = pathlib.Path("src") / "windwalk"
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
MEMORY_LIMIT = 4 << 30

SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
         "+": "-", "-": "+", "*": "/", "/": "*"}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


class Site(NamedTuple):
    line: int
    #: the operator's first character in the line, counted in characters
    col: int
    op: str

    @property
    def swap(self) -> str:
        return SWAPS[self.op]


def operators(tree: ast.AST) -> List[str]:
    """The swappable operators of ``tree``, in ``ast.walk`` order."""
    found = []
    for node in ast.walk(tree):
        ops = [node.op] if isinstance(node, ast.BinOp) else getattr(node, "ops", [])
        found += [SYMBOLS[type(op)] for op in ops if type(op) in SYMBOLS]
    return found


def sites(source: str) -> List[Site]:
    """Every swappable operator of ``source``, in source order.  Each lies
    between its two operands, outside any comment there."""
    lines = source.splitlines()

    def chars(line: int, byte: int) -> int:
        # ast counts UTF-8 bytes into a line.
        return len(lines[line - 1].encode()[:byte].decode())

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp):
            pairs = [(node.left, node.op, node.right)]
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            pairs = list(zip(operands, node.ops, operands[1:]))
        else:
            continue
        for left, op, right in pairs:
            if type(op) not in SYMBOLS:
                continue
            symbol = SYMBOLS[type(op)]
            first, last = left.end_lineno, right.lineno
            for line in range(first, last + 1):
                text = lines[line - 1]
                lo = chars(line, left.end_col_offset) if line == first else 0
                hi = chars(line, right.col_offset) if line == last else len(text)
                comment = text.find("#", lo, hi)
                col = text.find(symbol, lo, hi if comment < 0 else comment)
                if col >= 0:
                    found.append(Site(line, col, symbol))
                    break
            else:
                raise ValueError(f"no {symbol!r} between the operands at line {first}")
    return sorted(found)


def sample(source: str, n_sites: int, seed: int) -> List[Site]:
    """``n_sites`` of the sites of ``source``, drawn by ``seed``, in source
    order; all of them when there are no more."""
    every = sites(source)
    return sorted(random.Random(seed).sample(every, min(n_sites, len(every))))


def mutant(source: str, site: Site) -> str:
    """``source`` with the operator at ``site`` swapped."""
    lines = source.split("\n")
    text = lines[site.line - 1]
    if text[site.col : site.col + len(site.op)] != site.op:
        raise ValueError(f"no {site.op!r} at line {site.line}, column {site.col + 1}")
    lines[site.line - 1] = text[: site.col] + site.swap + text[site.col + len(site.op) :]
    return "\n".join(lines)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _tier1(copy: str, timeout: float) -> str:
    """``passed``, ``failed`` or ``timeout``: tier-1 in ``copy``.  A run past
    ``timeout`` seconds is killed with every process it started."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(copy, "src")), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1")
    with subprocess.Popen(TIER1, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, start_new_session=True,
                          preexec_fn=_limit_memory) as run:
        try:
            return "passed" if run.wait(timeout) == 0 else "failed"
        except subprocess.TimeoutExpired:
            return "timeout"
        finally:
            try:
                os.killpg(run.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*", help="module names, e.g. chain cli (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sites", type=int, default=30, help="mutants per module")
    parser.add_argument("--list", action="store_true", help="print the sampled sites, run nothing")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="windwalk-mutants-") as copy:
        archive = subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", copy], input=archive, check=True)
        package = pathlib.Path(copy, PACKAGE)
        modules = args.modules or sorted(path.stem for path in package.glob("*.py"))
        plan = {}
        for module in modules:
            path = package / f"{module}.py"
            source = path.read_text()
            plan[module] = (path, source, sample(source, args.sites, args.seed))
        if args.list:
            for module, (_, source, chosen) in plan.items():
                lines = source.splitlines()
                for site in chosen:
                    print(f"{PACKAGE / module}.py:{site.line}:{site.col + 1}  {site.op} -> {site.swap}"
                          f"  {lines[site.line - 1].strip()}")
            return 0
        start = time.perf_counter()
        if _tier1(copy, timeout=3600) != "passed":
            print("tier-1 fails on the unmutated copy of HEAD", file=sys.stderr)
            return 1
        timeout = 3 * (time.perf_counter() - start)
        summary, survivors = [], []
        for module, (path, source, chosen) in plan.items():
            lines, killed = source.splitlines(), 0
            for site in chosen:
                path.write_text(mutant(source, site))
                try:
                    end = _tier1(copy, timeout)
                finally:
                    path.write_text(source)
                where = f"{PACKAGE / module}.py:{site.line}"
                fate = {"passed": "survived", "failed": "killed"}.get(end, "killed by a timeout")
                print(f"{where}  {site.op} -> {site.swap}  {fate}", flush=True)
                if end == "passed":
                    survivors.append(f"{where}  {site.op} -> {site.swap}  {lines[site.line - 1].strip()}")
                else:
                    killed += 1
            summary.append(f"{module}: {killed}/{len(chosen)} killed")
    print("\nsurvivors:" if survivors else "\nno survivors")
    print("\n".join(survivors + [""] + summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
