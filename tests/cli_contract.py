"""The CLI's output contract: a fixed list of commands, each run in process
through ``cli.main``, and the record of what each printed and returned.

``tests/test_cli_contract.py`` runs every command again and compares it
with the record, ``cli_contract.json``:

- exit codes, stderr, and the strings, integers and key sets of stdout
  exactly;
- the floats of the seeded Monte Carlo commands (``simulate``, ``mc-lln``,
  ``mc-clt``) exactly;
- every other float to ``REL_TOL`` relative.

stdout is read as JSON when it is JSON, and otherwise as lines of
comma-separated cells, each an integer, a float or text.  numpy may change
its ``Generator`` streams between versions (NEP 19), so the record names the
numpy and Python versions it was made with.  A change that moves an output
on purpose lists each changed field, and writes nothing, with::

    PYTHONPATH=src python tests/cli_contract.py --diff

which exits 1 if any case differs, and then lists every float that moved at
all, within ``REL_TOL``, so that an empty listing shows the outputs
bit-identical.  A change that moves outputs names each changed field in
CHANGES.md and regenerates the record with::

    PYTHONPATH=src python tests/cli_contract.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import pathlib
import platform
import re
import sys
import tempfile
from typing import Dict, List, NamedTuple, Optional
from unittest import mock

RECORD = pathlib.Path(__file__).with_name("cli_contract.json")
REGENERATE = "PYTHONPATH=src python tests/cli_contract.py"
REL_TOL = 1e-13
#: argparse wraps help and usage to the terminal's width, read from COLUMNS.
COLUMNS = "80"


class Case(NamedTuple):
    argv: List[str]
    #: the floats of a seeded Monte Carlo output are compared exactly
    seeded: bool = False
    #: ``{"module.attribute": value}`` set while the command runs
    patch: Optional[Dict[str, object]] = None


def _kernel(rows) -> str:
    """A kernel file of ``len(rows)`` windows: ``rows[i-1]`` lists window i's
    arcs as (j, k, value)."""
    p = [{"i": i, "j": j, "k": k, "value": value}
         for i, row in enumerate(rows, 1) for j, k, value in row]
    return json.dumps({"N": len(rows), "p": p})


def _unequal7() -> List[list]:
    """N = 7 rows of 12 arcs weighing 1 to 10 64ths, the weights rotated one
    place from row to row, so that no two rows agree."""
    weights = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 4, 5]
    rows = []
    for i in range(1, 8):
        arcs = [(j, k) for j in range(1, 8) if j != i for k in (1, -1)]
        shifted = weights[i:] + weights[:i]
        rows.append([(j, k, w / 64) for (j, k), w in zip(arcs, shifted)])
    return rows


def _symmetric3(first: float) -> List[list]:
    """The symmetric N = 3 rows, with the first arc's value ``first``."""
    rows = [[(j, k, 0.125) for j in (1, 2, 3) if j != i for k in (1, -1)] for i in (1, 2, 3)]
    rows[0][0] = (2, 1, first)
    return rows


#: Input files, written into one directory; ``{dir}`` in a command, and the
#: directory's path in its output, stand for it.
FILES = {
    "custom.json": _kernel([
        [(2, 1, 0.25), (3, 1, 0.125), (2, -1, 0.375), (3, -1, 0.25)],
        [(1, 1, 0.5), (3, 1, 0.125), (1, -1, 0.125), (3, -1, 0.25)],
        [(1, 1, 0.0625), (2, 1, 0.4375), (1, -1, 0.25), (2, -1, 0.25)],
    ]),
    "deficit.json": _kernel(_symmetric3(0.125 - 0.01)),
    "unequal7.json": _kernel(_unequal7()),
    "broken.json": '{"N": 3, "p": [',
    "custom_metric.json": json.dumps({"kernel": "asymmetric", "metric": {"custom": [
        {"i": i, "j": j, "k": k, "weight": (0.5, 1.0, 2.0, 3.5)[n % 4]}
        for n, (i, j, k) in enumerate((i, j, k) for i in (1, 2, 3) for j in (1, 2, 3)
                                      if i != j for k in (1, -1))]}}),
    "zero_metric.json": json.dumps({"kernel": "symmetric:3", "metric": {"custom": []}}),
    "tiny_metric.json": json.dumps({"kernel": "asymmetric", "metric": {"custom": [
        {"i": i, "j": j, "k": k, "weight": 1e-13}
        for i in (1, 2, 3) for j in (1, 2, 3) if i != j for k in (1, -1)]}}),
    "bad_metric.json": json.dumps({"kernel": "symmetric:3",
                                   "metric": {"custom": [], "extra": 1}}),
    "unknown_key.json": json.dumps({"kernel": "symmetric:3", "lamda": 0.9}),
    "bad_value.json": json.dumps({"n_steps": 2.5}),
    "not_object.json": json.dumps([1, 2]),
    "family_not_object.json": json.dumps({"symmetric": 4}),
    "no_arcs.json": json.dumps({"N": 3}),
    "object_kernel.json": json.dumps({"kernel": {"asymmetric": {}}, "metric": "word"}),
}

_MC = ["--n-steps", "1000", "--n-paths", "50"]
_CLT = ["--n-steps", "10000", "--n-paths", "1000"]
_CAP = {"windwalk.oracle.DEFAULT_STATE_CAP": 50}

CASES: Dict[str, Case] = {
    # Exit 0 and 1, one or more per subcommand.
    "validate-family": Case(["validate", "--kernel", "symmetric:5"]),
    "validate-file": Case(["validate", "--kernel", "{dir}/custom.json"]),
    "solve-r-derivatives": Case(["solve-r", "--kernel", "asymmetric", "--lam", "1.0",
                                 "--derivatives"]),
    # Away from lam = 1, on the dense path (N = 3) and the structured one (N = 7).
    "solve-r-derivatives-below-one": Case(["solve-r", "--kernel", "asymmetric", "--lam", "0.6",
                                           "--derivatives"]),
    "solve-r-derivatives-structured": Case(["solve-r", "--kernel", "{dir}/unequal7.json",
                                            "--lam", "0.6", "--derivatives"]),
    "solve-r-below-one": Case(["solve-r", "--kernel", "symmetric:4", "--lam", "0.5"]),
    "limits-asymmetric-word": Case(["limits", "--kernel", "asymmetric", "--oracle"]),
    "limits-asymmetric-fenced": Case(["limits", "--kernel", "asymmetric", "--metric", "fenced",
                                      "--oracle"]),
    "limits-asymmetric-custom": Case(["limits", "--config", "{dir}/custom_metric.json",
                                      "--oracle"]),
    "limits-symmetric-word": Case(["limits", "--kernel", "symmetric:5", "--oracle"]),
    "limits-symmetric-fenced": Case(["limits", "--kernel", "symmetric:8", "--metric", "fenced",
                                     "--oracle"]),
    "limits-one-parameter-word": Case(["limits", "--kernel", "one_parameter:0.25", "--oracle"]),
    "limits-one-parameter-fenced": Case(["limits", "--kernel", "one_parameter:0.01",
                                         "--metric", "fenced", "--oracle"]),
    "limits-file-fenced": Case(["limits", "--kernel", "{dir}/custom.json", "--metric", "fenced",
                                "--oracle"]),
    "limits-degenerate-metric": Case(["limits", "--config", "{dir}/zero_metric.json"]),
    # Small weights on every arc: no warning.
    "limits-tiny-metric": Case(["limits", "--config", "{dir}/tiny_metric.json"]),
    # A config's kernel given as a JSON object, as README's example.
    "limits-config-kernel-object": Case(["limits", "--config", "{dir}/object_kernel.json"]),
    "sweep-q": Case(["sweep-q", "--q-grid", "0.05,0.1,0.25"]),
    "kms": Case(["kms", "--n", "6", "--x", "0.3", "--z", "0.8"]),
    "oracle-dp-hitting": Case(["oracle-dp", "--kernel", "asymmetric", "--mode", "hitting",
                               "--target", "1,2,1", "--max-steps", "40"]),
    "oracle-dp-return": Case(["oracle-dp", "--kernel", "symmetric:4", "--mode", "return",
                              "--window", "2", "--max-steps", "30"]),
    "oracle-dp-G": Case(["oracle-dp", "--kernel", "asymmetric", "--mode", "G", "--metric",
                         "fenced", "--z", "0.8", "--max-steps", "8"]),
    "simulate": Case(["simulate", "--kernel", "symmetric:3", "--n-steps", "1000", "--seed", "7"],
                     seeded=True),
    "simulate-from-a-word": Case(["simulate", "--kernel", "asymmetric", "--metric", "fenced",
                                  "--n-steps", "300", "--seed", "9",
                                  "--initial", "A(1,2,+)A(2,3,-)"], seeded=True),
    "mc-lln": Case(["mc-lln", "--kernel", "symmetric:3", "--n-steps", "2000", "--n-paths", "60",
                    "--seed", "3"], seeded=True),
    "mc-lln-fails": Case(["mc-lln", "--kernel", "symmetric:3", "--n-steps", "2000", "--n-paths",
                          "60", "--seed", "3", "--gamma", "0.5", "--sigma2", "0.6875"],
                         seeded=True),
    # 10**7 path-steps: two shards of at least SHARD_PATH_STEPS on two CPUs.
    "mc-clt-sharded": Case(["mc-clt", "--kernel", "asymmetric", "--metric", "fenced",
                            "--n-steps", "10000", "--n-paths", "1000", "--seed", "7"],
                           seeded=True),
    "help": Case(["--help"]),
    "help-oracle-dp": Case(["oracle-dp", "--help"]),
    # Exit 2: usage errors, which argparse reports.
    "usage-no-command": Case([]),
    "usage-unknown-flag": Case(["limits", "--kernel", "symmetric:3", "--bogus"]),
    "usage-bad-choice": Case(["oracle-dp", "--kernel", "asymmetric", "--mode", "bogus"]),
    "usage-bad-number": Case(["simulate", "--kernel", "symmetric:3", "--n-steps", "many"]),
    # The hitting and return series have one route, the convolution DP.
    "oracle-dp-method-removed": Case(["oracle-dp", "--kernel", "asymmetric", "--target", "1,2,1",
                                      "--method", "words"]),
    # Exit 2: invalid input.
    "validate-bad-q": Case(["validate", "--kernel", "one_parameter:0.6"]),
    "validate-deficit": Case(["validate", "--kernel", "{dir}/deficit.json"]),
    "kernel-text-invalid": Case(["limits", "--kernel", "symmetric:3.5"]),
    "kernel-too-small": Case(["limits", "--kernel", "symmetric:1"]),
    "kernel-too-large": Case(["limits", "--kernel", "symmetric:1000000000"]),
    "kernel-file-missing": Case(["limits", "--kernel", "{dir}/missing.json"]),
    "kernel-file-broken": Case(["limits", "--kernel", "{dir}/broken.json"]),
    "kernel-file-not-object": Case(["validate", "--kernel", "{dir}/not_object.json"]),
    "kernel-family-not-object": Case(["validate", "--kernel", "{dir}/family_not_object.json"]),
    "kernel-file-no-arcs": Case(["validate", "--kernel", "{dir}/no_arcs.json"]),
    "kernel-absent": Case(["limits"]),
    "metric-unknown": Case(["limits", "--kernel", "symmetric:3", "--metric", "bogus"]),
    "metric-bad-object": Case(["limits", "--config", "{dir}/bad_metric.json"]),
    "config-unknown-key": Case(["solve-r", "--config", "{dir}/unknown_key.json"]),
    "config-bad-value": Case(["simulate", "--kernel", "symmetric:3",
                              "--config", "{dir}/bad_value.json"]),
    "config-not-an-object": Case(["limits", "--config", "{dir}/not_object.json"]),
    "config-missing": Case(["limits", "--config", "{dir}/missing.json"]),
    "output-unwritable": Case(["limits", "--kernel", "symmetric:3",
                               "--output", "{dir}/missing/out.json"]),
    "tol-zero": Case(["solve-r", "--kernel", "asymmetric", "--tol", "0"]),
    "tol-negative": Case(["limits", "--kernel", "asymmetric", "--tol", "-1e-13"]),
    "lam-outside": Case(["solve-r", "--kernel", "asymmetric", "--lam", "1.5"]),
    "lam-subnormal-derivatives": Case(["solve-r", "--kernel", "asymmetric", "--lam", "5e-324",
                                       "--derivatives"]),
    "kms-not-finite": Case(["kms", "--n", "3", "--x", "nan"]),
    "kms-overflow": Case(["kms", "--n", "400", "--x", "1e200", "--z", "2"]),
    "kms-negative-n": Case(["kms", "--n", "-1"]),
    # Above a stated cap: refused before the loop, the walk, the first step
    # or the table.
    "kms-n-above-cap": Case(["kms", "--n", "100000000", "--x", "0.1", "--z", "0.5"]),
    "simulate-steps-above-cap": Case(["simulate", "--kernel", "symmetric:3",
                                      "--n-steps", "1000000000000"]),
    "mc-lln-work-above-cap": Case(["mc-lln", "--kernel", "symmetric:3",
                                   "--n-steps", "1000000000000", "--n-paths", "50"]),
    "mc-clt-work-above-cap": Case(["mc-clt", "--kernel", "symmetric:3",
                                   "--n-steps", "10000000", "--n-paths", "1000"]),
    "oracle-dp-hitting-above-cap": Case(["oracle-dp", "--kernel", "symmetric:3", "--target",
                                         "1,2,1", "--max-steps", "1000000000"]),
    "oracle-dp-return-above-cap": Case(["oracle-dp", "--kernel", "symmetric:3", "--mode",
                                        "return", "--max-steps", "100000"]),
    "sweep-q-outside": Case(["sweep-q", "--q-grid", "0.1,0.6"]),
    "simulate-negative-steps": Case(["simulate", "--kernel", "symmetric:3", "--n-steps", "-1"]),
    "simulate-bad-word": Case(["simulate", "--kernel", "symmetric:3", "--initial", "A(1,1,+)"]),
    "simulate-window-outside": Case(["simulate", "--kernel", "symmetric:3", "--initial", "e4"]),
    "simulate-word-unparseable": Case(["simulate", "--kernel", "symmetric:3",
                                       "--initial", "xA(1,2,+)"]),
    "simulate-window-zero": Case(["simulate", "--kernel", "symmetric:3", "--initial", "e0"]),
    "mc-lln-gamma-not-finite": Case(["mc-lln", "--kernel", "symmetric:3", *_MC,
                                     "--gamma", "nan", "--sigma2", "0.6875"]),
    "mc-lln-negative-variance": Case(["mc-lln", "--kernel", "symmetric:3", *_MC,
                                      "--gamma", "0.3", "--sigma2", "-1"]),
    # gamma * n_steps overflows: refused before any path is stepped.
    "mc-lln-drift-overflow": Case(["mc-lln", "--kernel", "symmetric:3", *_MC,
                                   "--gamma", "2e305", "--sigma2", "1"]),
    # n_steps beyond the float range: refused before any path is stepped.
    "mc-lln-steps-beyond-float": Case(["mc-lln", "--kernel", "symmetric:3", "--n-steps",
                                       str(10**400), "--n-paths", "50", "--gamma", "0.25",
                                       "--sigma2", "0.6875"]),
    "mc-clt-too-small": Case(["mc-clt", "--kernel", "symmetric:3", *_MC]),
    "mc-clt-zero-variance": Case(["mc-clt", "--kernel", "symmetric:3", *_CLT,
                                  "--gamma", "0.25", "--sigma2", "0"]),
    "mc-negative-seed": Case(["mc-clt", "--kernel", "symmetric:3", *_CLT, "--seed", "-1",
                              "--gamma", "0.25", "--sigma2", "0.6875"]),
    "oracle-dp-no-target": Case(["oracle-dp", "--kernel", "asymmetric", "--mode", "hitting"]),
    "oracle-dp-bad-target": Case(["oracle-dp", "--kernel", "asymmetric", "--target", "1,2,1.5"]),
    "oracle-dp-no-steps": Case(["oracle-dp", "--kernel", "asymmetric", "--target", "1,2,1",
                                "--max-steps", "0"]),
    "oracle-dp-return-no-steps": Case(["oracle-dp", "--kernel", "symmetric:3", "--mode", "return",
                                       "--max-steps", "0"]),
    "oracle-dp-G-negative-steps": Case(["oracle-dp", "--kernel", "symmetric:3", "--mode", "G",
                                        "--max-steps", "-1"]),
    "oracle-dp-window-outside": Case(["oracle-dp", "--kernel", "asymmetric", "--mode", "return",
                                      "--window", "4"]),
    # Exit 3: numerical failure.
    "limits-off-a-simple-zero": Case(["limits", "--kernel", "one_parameter:1e-12"]),
    "oracle-dp-G-refused": Case(["oracle-dp", "--kernel", "asymmetric", "--mode", "G"],
                                patch=_CAP),
    # The default cap and horizon: the law passes the cap at step 18.
    "oracle-dp-G-default": Case(["oracle-dp", "--kernel", "symmetric:3", "--mode", "G"]),
}


def write_files(directory: str) -> None:
    for name, text in FILES.items():
        pathlib.Path(directory, name).write_text(text)


def run_case(case: Case, directory: str) -> dict:
    """Exit code, stdout and stderr of ``cli.main`` on the case's command;
    ``directory`` holds ``FILES`` and is written ``{dir}`` in the output."""
    from windwalk.cli import main

    argv = [word.replace("{dir}", directory) for word in case.argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.dict(os.environ, {"COLUMNS": COLUMNS}))
        for target, value in (case.patch or {}).items():
            stack.enter_context(mock.patch(target, value))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue().replace(directory, "{dir}"),
            "stderr": err.getvalue().replace(directory, "{dir}")}


def versions() -> dict:
    import numpy

    return {"numpy": numpy.__version__, "python": ".".join(platform.python_version_tuple()[:2])}


def differences(want: dict, got: dict, seeded: bool,
                moved: Optional[List[str]] = None) -> List[str]:
    """Where ``got`` departs from the recorded ``want``, one line each; a
    float that differs within ``REL_TOL`` is added to ``moved``, if given."""
    found = [f"{key}: {got[key]!r} != {want[key]!r}"
             for key in ("exit", "stderr") if got[key] != want[key]]
    try:
        values = json.loads(want["stdout"]), json.loads(got["stdout"])
    except ValueError:
        values = _cells(want["stdout"]), _cells(got["stdout"])
    _compare(*values, "stdout", seeded, found, moved)
    return found


def _cells(text: str) -> List[List[object]]:
    return [[_scalar(cell) for cell in line.split(",")] for line in text.split("\n")]


def _scalar(cell: str):
    if re.fullmatch(r"-?\d+", cell):
        return int(cell)
    if re.fullmatch(r"-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?", cell):
        return float(cell)
    return cell


def _compare(want, got, where: str, seeded: bool, found: List[str],
             moved: Optional[List[str]]) -> None:
    if type(want) is not type(got):
        found.append(f"{where}: {got!r} != {want!r}")
    elif isinstance(want, dict):
        if want.keys() != got.keys():
            found.append(f"{where}: keys {sorted(got)} != {sorted(want)}")
        for key in want.keys() & got.keys():
            _compare(want[key], got[key], f"{where}.{key}", seeded, found, moved)
    elif isinstance(want, list):
        if len(want) != len(got):
            found.append(f"{where}: {len(got)} items != {len(want)}")
        for n, (a, b) in enumerate(zip(want, got)):
            _compare(a, b, f"{where}[{n}]", seeded, found, moved)
    elif isinstance(want, float) and not seeded:
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            found.append(f"{where}: {got!r} != {want!r} to {REL_TOL:g} relative")
        elif got != want and moved is not None:
            moved.append(f"{where}: {got!r} != {want!r}, within {REL_TOL:g} relative")
    elif got != want:
        found.append(f"{where}: {got!r} != {want!r}")


def record() -> dict:
    with tempfile.TemporaryDirectory() as directory:
        write_files(directory)
        cases = {name: {"argv": case.argv, **run_case(case, directory)}
                 for name, case in CASES.items()}
    return {"regenerate": REGENERATE, **versions(), "cases": cases}


def diff() -> int:
    """Print where each case departs from the record, one line per field,
    then each float that moved within ``REL_TOL``, and return 1 if any case
    departs, else 0."""
    recorded = json.loads(RECORD.read_text())["cases"]
    found = [f"{name}: not a case" for name in recorded.keys() - CASES.keys()]
    moved: List[str] = []
    with tempfile.TemporaryDirectory() as directory:
        write_files(directory)
        for name, case in CASES.items():
            within: List[str] = []
            lines = (differences(recorded[name], run_case(case, directory), case.seeded, within)
                     if name in recorded else ["not in the record"])
            found += [f"{name}: {line}" for line in lines]
            moved += [f"{name}: {line}" for line in within]
    sys.stdout.writelines(line + "\n" for line in found + moved)
    return int(bool(found))


def main(argv: List[str]) -> int:
    """With no arguments, write the record; with ``--diff``, diff it.  Any
    other arguments print the usage to stderr, return 2 and write nothing."""
    if argv == ["--diff"]:
        return diff()
    if argv:
        sys.stderr.write("usage: python tests/cli_contract.py [--diff]\n")
        return 2
    RECORD.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(CASES)} cases to {RECORD}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
