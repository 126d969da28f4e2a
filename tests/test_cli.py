"""Command-line interface: exit codes, config handling, output formats."""

import json
import pathlib
import re
import shlex

import numpy as np
import pytest

from windwalk import cli
from windwalk.chain import (asymmetric_kernel, kernel_to_json, one_parameter_kernel,
                            symmetric_kernel)
from windwalk.cli import DEFAULT_Q_GRID, build_parser, main
from windwalk.groupoid import arc_entry, fenced_metric, word_metric
from windwalk.jets import Jet2
from windwalk.limits import compute_limits
from windwalk.oracle import closed_form
from windwalk.solver import solve_r, solve_r_derivatives

from reference import IndexMap


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", "--kernel", "symmetric:5")
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_validate_bad_q(capsys):
    code, _, err = run(capsys, "validate", "--kernel", "one_parameter:0.6")
    assert code == 2


def test_validate_row_sum_deficit(capsys, tmp_path):
    entries = [
        {"i": i, "j": j, "k": k, "value": 1 / 8}
        for i in range(1, 4) for j in range(1, 4) if i != j for k in (1, -1)
    ]
    entries[0]["value"] = 1 / 8 - 0.01
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"N": 3, "p": entries}))
    code, out, _ = run(capsys, "validate", "--kernel", str(path))
    assert code == 2
    report = json.loads(out)
    assert any("window 1" in v and "deficit" in v for v in report["violations"])


def test_unknown_config_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": "symmetric:3", "lamda": 0.9}))
    code, _, err = run(capsys, "solve-r", "--config", str(cfg))
    assert code == 2
    assert "lamda" in err


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": "symmetric:3", "lam": 0.0}))
    code, out, _ = run(capsys, "solve-r", "--config", str(cfg), "--lam", "1.0")
    assert code == 0
    values = [entry["value"] for entry in json.loads(out)["R"]]
    assert all(abs(v - 0.5) < 1e-10 for v in values)  # lam=1, not the config's 0


def test_limits_with_oracle(capsys):
    code, out, _ = run(capsys, "limits", "--kernel", "asymmetric",
                       "--metric", "fenced", "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == pytest.approx(0.334211, abs=1e-5)
    assert abs(payload["closed_form_delta"]["gamma"]) < 1e-5


def test_limits_output_file_deterministic(capsys, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "limits", "--kernel", "symmetric:4", "--output", str(out1))
    run(capsys, "limits", "--kernel", "symmetric:4", "--output", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_q_csv(capsys):
    code, out, _ = run(capsys, "sweep-q", "--q-grid", "0.1,0.25")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("q,gamma_word,sigma2_word,gamma_F,sigma2_F,cf_gamma_word")
    row = lines[2].split(",")
    assert float(row[0]) == 0.25
    assert float(row[1]) == pytest.approx(0.25, abs=1e-10)
    assert float(row[-1]) < 1e-9  # delta_max


def _sweep_row_per_metric(q):
    """The sweep-q row built with one ``compute_limits``, and so one solve,
    per metric."""
    kernel = one_parameter_kernel(q)
    word, fenced = compute_limits(kernel, word_metric(3)), compute_limits(kernel, fenced_metric(3))
    cf = closed_form("one_parameter", q=q)
    values = [word.gamma, word.sigma2, fenced.gamma, fenced.sigma2]
    refs = [*cf.constants("word"), *cf.constants("fenced")]
    delta_max = max(abs(a - b) for a, b in zip(values, refs))
    cells = [repr(float(q))] + [repr(float(v)) for v in values + refs] + [repr(float(delta_max))]
    return ",".join(cells)


def test_sweep_row_solves_once_for_both_metrics(monkeypatch):
    # R and its derivatives do not read the metric: one solve per q gives the
    # same bits as one compute_limits per metric.
    solves = []
    solve = cli.solve_r
    monkeypatch.setattr(cli, "solve_r", lambda *args: solves.append(1) or solve(*args))
    for q in DEFAULT_Q_GRID + [1e-5, 1e-3, 0.49]:
        assert cli._sweep_row(q) == _sweep_row_per_metric(q), q
    assert len(solves) == len(DEFAULT_Q_GRID) + 3


def test_threads_option_and_config_key_are_invalid(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep-q", "--q-grid", "0.1", "--threads", "2"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q_grid": [0.1], "threads": 2}))
    code, _, err = run(capsys, "sweep-q", "--config", str(cfg))
    assert code == 2
    assert "threads" in err


def test_sweep_q_bounds(capsys):
    code, _, _ = run(capsys, "sweep-q", "--q-grid", "0.1,0.7")
    assert code == 2


def test_simulate_csv(capsys):
    code, out, _ = run(capsys, "simulate", "--kernel", "symmetric:3",
                       "--n-steps", "10", "--seed", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,word_len,metric_len"
    assert len(lines) == 12
    assert lines[1].startswith("0,0,")


def test_kms_value(capsys):
    code, out, _ = run(capsys, "kms", "--n", "2", "--x", "0.3", "--z", "0.5")
    assert code == 0
    assert json.loads(out)["phi"] == pytest.approx(0.7**2 - 0.25)


@pytest.mark.parametrize("argv", [
    ["--n", "3", "--x", "nan"],
    ["--n", "3", "--x", "0.3", "--z", "inf"],
    # Finite inputs whose recurrence overflows: this printed "phi": NaN, exit 0.
    ["--n", "400", "--x", "1e200", "--z", "2"],
])
def test_kms_non_finite_is_invalid_input(capsys, argv):
    code, out, err = run(capsys, "kms", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_input_too_large_to_allocate_is_invalid_input(capsys):
    # `np.eye` asks for 7 EiB here; the MemoryError ended in a traceback, exit 1.
    code, out, err = run(capsys, "limits", "--kernel", "symmetric:1000000000")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "allocate" in err


def test_oracle_dp_hitting(capsys):
    code, out, _ = run(capsys, "oracle-dp", "--kernel", "asymmetric",
                       "--mode", "hitting", "--target", "1,2,1", "--max-steps", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"][1] == pytest.approx(43 / 70)


def test_mc_lln_exit_codes(capsys):
    ok, _, _ = run(capsys, "mc-lln", "--kernel", "symmetric:3", "--metric", "word",
                   "--n-steps", "2000", "--n-paths", "60", "--seed", "3",
                   "--gamma", "0.25", "--sigma2", "0.6875")
    assert ok == 0
    bad, out, _ = run(capsys, "mc-lln", "--kernel", "symmetric:3", "--metric", "word",
                      "--n-steps", "2000", "--n-paths", "60", "--seed", "3",
                      "--gamma", "0.5", "--sigma2", "0.6875")
    assert bad == 1
    assert json.loads(out)["passes"]["lln_unit"] is False


@pytest.mark.parametrize("command, n_steps, n_paths", [("mc-lln", "1000", "50"),
                                                      ("mc-clt", "10000", "1000")])
def test_negative_seed_is_invalid_input(capsys, command, n_steps, n_paths):
    # numpy's SeedSequence rejects the seed before any path steps.
    code, out, err = run(capsys, command, "--kernel", "symmetric:3", "--n-steps", n_steps,
                         "--n-paths", n_paths, "--seed", "-1", "--gamma", "0.25",
                         "--sigma2", "0.6875")
    assert code == 2
    assert out == ""
    assert "expected non-negative integer" in err


def test_seed_echoed_in_report(capsys):
    _, out, _ = run(capsys, "mc-lln", "--kernel", "symmetric:3",
                    "--n-steps", "1000", "--n-paths", "50", "--seed", "99",
                    "--gamma", "0.25", "--sigma2", "0.6875")
    assert json.loads(out)["seed"] == 99


def test_missing_kernel_is_invalid_input(capsys):
    code, _, err = run(capsys, "limits")
    assert code == 2
    assert "kernel" in err


def _entry_with(position, **changes):
    """The symmetric N=3 kernel's JSON with ``changes`` made to one 'p' entry."""
    kernel = kernel_to_json(symmetric_kernel(3))
    kernel["p"][position].update(changes)
    return kernel


@pytest.mark.parametrize("kernel, named", [
    ({"N": 3, "p": [{"i": 1, "j": 2, "k": 1}]}, "entry 0 of 'p'"),
    ({"N": 3, "p": 5}, "'p' must be a list"),
    # Keys that name no arc: once an IndexError, a k = 2 wrapped onto the
    # k = -1 slot, and an i = 0 that overwrote arc (3, 1, +1).
    (_entry_with(4, i=7), "entry 4, (7, 1, 1), names no arc"),
    (_entry_with(2, k=2), "entry 2, (2, 1, 2), names no arc"),
    (_entry_with(0, i=0), "entry 0, (0, 2, 1), names no arc"),
    # A misspelt key once validated beside the real one, and a boolean
    # once ran as the probability 1.0.
    (_entry_with(2, valeu=0.5), "entry 2 of 'p' is malformed (ValueError(\"unknown key 'valeu'\"))"),
    (_entry_with(1, value=True), "entry 1 of 'p' is malformed (ValueError('True is not a number'))"),
    (_entry_with(3, j=1), "entry 3 of 'p' is a duplicate entry for arc (2, 1, 1)"),
])
def test_malformed_kernel_json_is_invalid_input(capsys, tmp_path, kernel, named):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(kernel))
    code, out, err = run(capsys, "limits", "--kernel", str(path))
    assert code == 2
    assert out == ""
    assert named in err
    code, out, _ = run(capsys, "validate", "--kernel", str(path))
    assert code == 2
    assert named in json.loads(out)["violations"][0]


@pytest.mark.parametrize("kernel, named", [
    ({"asymmetric": {}, "N": 5, "p": 3}, "unknown kernel key 'N'"),
    ({"symmetric": {"N": 4, "q": 9}, "typo": 1}, "unknown kernel key 'typo'"),
    ({"symmetric": {"N": 4, "q": 9}}, "unknown key 'q' in 'symmetric'"),
    ({"one_parameter_q": {"q": 0.2}, "symmetric": {"N": 7}}, "more than one family"),
    ({"N": 3, "p": [], "name": "x"}, "unknown kernel key 'name'"),
], ids=["family-with-N-p", "top-level-typo", "family-key", "two-families", "explicit-typo"])
def test_kernel_key_no_shape_reads_is_invalid_input(capsys, tmp_path, kernel, named):
    # Each of these used to validate as the first family found, extras ignored.
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(kernel))
    code, _, err = run(capsys, "limits", "--kernel", str(path))
    assert code == 2
    assert named in err
    code, out, _ = run(capsys, "validate", "--kernel", str(path))
    assert code == 2
    assert named in "; ".join(json.loads(out)["violations"])


@pytest.mark.parametrize("kernel, named", [
    ({"symmetric": {"N": 3.7}}, "3.7 is not a whole number"),
    ({"symmetric": {"N": True}}, "True is not a whole number"),
    ({"N": 3.5, "p": []}, "3.5 is not a whole number"),
    (_entry_with(0, i=1.9), "entry 0 of 'p'"),
    (_entry_with(3, j=2.5), "entry 3 of 'p'"),
    (_entry_with(5, k=-1.4), "entry 5 of 'p'"),
    (_entry_with(1, k=True), "entry 1 of 'p'"),
], ids=["N-3.7", "N-true", "N-3.5", "i-1.9", "j-2.5", "k--1.4", "k-true"])
def test_fractional_kernel_number_is_invalid_input(capsys, tmp_path, kernel, named):
    # int() would truncate each of these to a valid window, size or sign.
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(kernel))
    code, _, err = run(capsys, "limits", "--kernel", str(path))
    assert code == 2
    assert named in err
    code, out, _ = run(capsys, "validate", "--kernel", str(path))
    assert code == 2
    assert named in json.loads(out)["violations"][0]


@pytest.mark.parametrize("kernel", [
    {"symmetric": {"N": 3.0}}, {"symmetric": {"N": "3"}}, _entry_with(0, i=1.0, j="2"),
], ids=["N-3.0", "N-text", "entry-1.0-text"])
def test_whole_number_as_float_or_text_is_a_kernel(capsys, tmp_path, kernel):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(kernel))
    code, out, _ = run(capsys, "validate", "--kernel", str(path))
    assert code == 0
    assert json.loads(out)["kernel"] == kernel_to_json(symmetric_kernel(3))


@pytest.mark.parametrize("entry", [
    {"i": 1.7, "j": 2, "k": 1.4, "weight": 3},
    {"i": 1, "j": 2.2, "k": 1, "weight": 3},
    {"i": 1, "j": 2, "k": False, "weight": 3},
])
def test_fractional_custom_metric_number_is_invalid_input(capsys, tmp_path, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": "asymmetric", "metric": {"custom": [entry]}}))
    code, out, err = run(capsys, "limits", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "entry 0 of the custom metric is malformed" in err


@pytest.mark.parametrize("spec, kernel", [("symmetric:4", symmetric_kernel(4)),
                                          ("asymmetric", asymmetric_kernel())])
def test_solve_r_json_lists_arcs_in_index_map_order(capsys, spec, kernel):
    code, out, _ = run(capsys, "solve-r", "--kernel", spec, "--derivatives")
    assert code == 0
    payload = json.loads(out)
    r = solve_r(kernel, 1.0)
    d = solve_r_derivatives(r)
    for key, array in (("R", r.values), ("d1", d.d1), ("d2", d.d2)):
        arcs = [(e["i"], e["j"], e["k"]) for e in payload[key]]
        assert arcs == IndexMap(kernel.n_windows).tuples
        assert [e["value"] for e in payload[key]] == [arc_entry(array, *arc) for arc in arcs]


def test_limits_symmetric_100_meets_closed_form(capsys):
    code, out, _ = run(capsys, "limits", "--kernel", "symmetric:100", "--metric", "fenced",
                       "--oracle")
    assert code == 0
    payload = json.loads(out)
    cf = payload["closed_form"]
    assert abs(payload["closed_form_delta"]["gamma"]) <= 1e-10 * cf["gamma"]["fenced"]
    assert abs(payload["closed_form_delta"]["sigma2"]) <= 1e-10 * cf["sigma2"]["fenced"]


def test_limits_symmetric_below_three_windows_is_invalid_input(capsys):
    code, _, err = run(capsys, "limits", "--kernel", "symmetric:1")
    assert code == 2
    assert "at least 3" in err


@pytest.mark.parametrize("entry, named", [
    ({"i": 1, "j": 2, "k": 1}, "entry 1 of the custom metric is malformed"),
    ({"i": 1, "j": 2, "k": 1, "weight": "heavy"}, "entry 1 of the custom metric is malformed"),
    ({"i": 1, "j": 1, "k": 1, "weight": 2.0}, "entry 1 of the custom metric names no arc"),
    ({"i": 1, "j": 7, "k": 1, "weight": 2.0}, "entry 1 of the custom metric names no arc"),
    ({"i": 1, "j": 2, "k": 2, "weight": 2.0}, "entry 1 of the custom metric names no arc"),
    ({"i": 0, "j": 2, "k": 1, "weight": 2.0}, "entry 1 of the custom metric names no arc"),
    # json.load reads NaN; a NaN weight once came out as "gamma": NaN, exit 0.
    ({"i": 1, "j": 2, "k": 1, "weight": float("nan")}, "weight nan for arc (1, 2, 1) is not finite"),
    # A repeated arc once kept its last weight silently, exit 0.
    ({"i": 2, "j": 3, "k": -1, "weight": 5.0},
     "entry 1 of the custom metric is a duplicate entry for arc (2, 3, -1)"),
    # Booleans once ran as the weights 1.0 and 0.0, and a misspelt key was ignored.
    ({"i": 1, "j": 2, "k": 1, "weight": True},
     "entry 1 of the custom metric is malformed (ValueError('True is not a number'))"),
    ({"i": 1, "j": 2, "k": 1, "weight": False},
     "entry 1 of the custom metric is malformed (ValueError('False is not a number'))"),
    ({"i": 1, "j": 2, "k": 1, "weight": 2.0, "wieght": 3.0},
     "entry 1 of the custom metric is malformed (ValueError(\"unknown key 'wieght'\"))"),
])
def test_malformed_custom_metric_is_invalid_input(capsys, tmp_path, entry, named):
    cfg = tmp_path / "cfg.json"
    good = {"i": 2, "j": 3, "k": -1, "weight": 1.5}
    cfg.write_text(json.dumps({"kernel": "asymmetric", "metric": {"custom": [good, entry]}}))
    code, out, err = run(capsys, "limits", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert named in err


@pytest.mark.parametrize("metric", [{"custom": [], "name": "heavy"}, {"weights": []}])
def test_metric_object_key_other_than_custom_is_invalid_input(capsys, tmp_path, metric):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": "asymmetric", "metric": metric}))
    code, out, err = run(capsys, "limits", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert f"got keys {list(metric)!r}" in err


@pytest.mark.parametrize("metric, has_delta", [
    ("word", True),
    ("fenced", True),
    # Once compared with the fenced closed form, which is not this metric's.
    ({"custom": [{"i": i, "j": j, "k": k, "weight": 2.0}
                 for i in range(1, 4) for j in range(1, 4) if i != j for k in (1, -1)]}, False),
], ids=["word", "fenced", "custom"])
def test_limits_oracle_delta_only_for_metrics_with_a_closed_form(capsys, tmp_path, metric,
                                                                  has_delta):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metric": metric}))
    code, out, _ = run(capsys, "limits", "--config", str(cfg), "--kernel", "symmetric:3",
                       "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form"]["family"] == "symmetric"
    assert ("closed_form_delta" in payload) == has_delta
    if has_delta:
        assert abs(payload["closed_form_delta"]["gamma"]) < 1e-12
        assert abs(payload["closed_form_delta"]["sigma2"]) < 1e-12


@pytest.mark.parametrize("target", ["1,2", "1,2,3,4", "a,b,1"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_malformed_target_names_the_flag(capsys, tmp_path, target, source):
    argv = ["oracle-dp", "--kernel", "asymmetric", "--mode", "hitting"]
    if source == "flag":
        argv += ["--target", target]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target": target}))
        argv += ["--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"--target must be i,j,k, three integers, got {target!r}" in err


@pytest.mark.parametrize("command", ["solve-r", "limits"])
@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-13"])
def test_non_finite_or_non_positive_tol_is_invalid_input(capsys, command, tol):
    code, out, err = run(capsys, command, "--kernel", "asymmetric", f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert "tol must be finite and positive" in err


@pytest.mark.parametrize("command", ["solve-r", "limits"])
@pytest.mark.parametrize("tol", ["-1e-13", "-1E+2", "-.5e-3"])
def test_negative_exponent_tol_as_separate_word_reaches_the_check(capsys, command, tol):
    # argparse alone reads -1e-13 as an unknown option ("expected one argument").
    code, out, err = run(capsys, command, "--kernel", "asymmetric", "--tol", tol)
    assert code == 2
    assert out == ""
    assert "tol must be finite and positive" in err


@pytest.mark.parametrize("command", ["mc-lln", "mc-clt"])
@pytest.mark.parametrize("flag, value, named", [
    ("--gamma", "nan", "gamma_ref must be finite, got nan"),
    ("--sigma2", "inf", "sigma2_ref must be finite, got inf"),
    ("--gamma", "1e308", "gamma_ref * n_steps must be finite, got inf"),
    pytest.param("--n-steps", str(10**400), "n_steps must convert to a finite float",
                 id="--n-steps-10**400"),
])
def test_non_finite_mc_reference_is_invalid_input(capsys, command, flag, value, named):
    # A NaN reference once came out as "gamma_ref": NaN, which is not JSON,
    # and an n_steps beyond the float range as an OverflowError, exit 1.
    flags = {"--n-steps": "1000", "--gamma": "0.25", "--sigma2": "0.6875", flag: value}
    code, out, err = run(capsys, command, "--kernel", "symmetric:3", "--n-paths", "50",
                         *(word for pair in flags.items() for word in pair))
    assert code == 2
    assert out == ""
    assert named in err


def test_negative_mc_lln_variance_is_invalid_input(capsys):
    # It once ran the batch and exited 2 on NaN bands, which are not JSON.
    code, out, err = run(capsys, "mc-lln", "--kernel", "symmetric:3", "--n-steps", "1000",
                         "--n-paths", "50", "--gamma", "0.3", "--sigma2", "-1")
    assert code == 2
    assert out == ""
    assert "sigma2_ref must be non-negative" in err


def test_limits_takes_no_cross_check_route(capsys, monkeypatch):
    # det_h and det_jet only check compute_limits' numbers; neither it nor
    # `limits --oracle` calls them.
    def refuse(*args, **kwargs):
        raise AssertionError("a cross-check route was called")

    for target in ("limits.det_h", "limits.det_jet"):
        monkeypatch.setattr(f"windwalk.{target}", refuse)
    assert compute_limits(asymmetric_kernel(), fenced_metric(3)).gamma > 0
    code, out, _ = run(capsys, "limits", "--kernel", "one_parameter:0.1", "--metric", "fenced",
                       "--oracle")
    assert code == 0
    assert json.loads(out)["closed_form_delta"]["gamma"] == pytest.approx(0.0, abs=1e-12)


def test_star_import_binds_public_names_not_submodules():
    # ``__all__`` lists what the package exports, so ``from windwalk import *``
    # binds no submodule, and the lazy-walk check lives with the tests.
    import types

    import windwalk

    # A name enters or leaves the namespace only by an edit of this list.
    assert windwalk.__all__ == [
        "Arc", "ClosedFormCase", "CompositionError", "DegenerateSystemError", "KernelError",
        "LimitConstants", "McReport", "Metric", "RDerivatives", "RSolution", "SolverError",
        "TransitionKernel", "Word", "append", "asymmetric_kernel", "closed_form", "compose",
        "compute_limits", "custom_metric", "dp_hitting_series", "dp_return_series",
        "dp_truncated_G", "fenced_metric", "inverse", "kms_phi", "limit_constants",
        "limits_from_jets", "metric_length", "one_parameter_kernel", "perron_jet", "simulate",
        "solve_r", "solve_r_derivatives", "symmetric_kernel", "unit", "validate_kernel",
        "verify_clt", "verify_lln", "word_from_str", "word_metric",
    ]
    for name in windwalk.__all__:
        assert not isinstance(getattr(windwalk, name), types.ModuleType), name
    assert not hasattr(windwalk, "verify_lazy_walk")
    assert not hasattr(windwalk.montecarlo, "verify_lazy_walk")
    namespace = {}
    exec("from windwalk import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(windwalk.__all__)


def test_import_does_not_load_scipy_stats():
    # No windwalk module imports scipy, so plain imports and CLI commands
    # such as `limits` do not pay for scipy.stats.
    import os
    import subprocess
    import sys

    import windwalk

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(windwalk.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, windwalk, windwalk.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_does_not_load_numpy_random():
    # The chain imports numpy.random when it runs, so plain imports and CLI
    # commands such as `limits` do not pay for it.
    import os
    import subprocess
    import sys

    import windwalk

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(windwalk.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, windwalk, windwalk.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_verify_clt_does_not_load_scipy_stats():
    # verify_clt computes its chi-square quantiles and normal CDF with math
    # alone, so no scipy module is loaded.
    import os
    import subprocess
    import sys

    import windwalk

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(windwalk.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, windwalk\n"
            "rep = windwalk.verify_clt(windwalk.symmetric_kernel(3), windwalk.word_metric(3),"
            " 0.25, 11 / 16, n_steps=10**4, n_paths=1000, seed=6)\n"
            "print(rep.passed, any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["True", "False"]


def test_runtime_runs_without_scipy():
    # A finder that refuses every scipy import stands in for an environment
    # without scipy: the imports, verify_clt and the mc-clt command still run.
    import os
    import subprocess
    import sys

    import windwalk

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(windwalk.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'scipy' or name.startswith('scipy.'):\n"
            "            raise ImportError(f'{name} is refused')\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "import windwalk, windwalk.cli\n"
            "windwalk.verify_clt(windwalk.symmetric_kernel(3), windwalk.word_metric(3),"
            " 0.25, 11 / 16, n_steps=10**4, n_paths=1000, seed=6)\n"
            "sys.exit(windwalk.cli.main(['mc-clt', '--kernel', 'symmetric:3', '--n-paths', '1000',"
            " '--n-steps', '10000']))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_cold_limits_loads_no_stepper():
    # The steppers, the fork runner and the modules only a chain run needs
    # stay off the import path: `windwalk.cli` loads none of them, and
    # `limits --oracle` prints the same bytes under a finder that refuses
    # `windwalk._stepper` and `fractions`.
    import os
    import subprocess
    import sys

    import windwalk

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(windwalk.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, windwalk, windwalk.cli\n"
            "print(sorted({'windwalk._stepper', 'fractions', 'decimal', 'numpy.random'}"
            " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
    argv = ["limits", "--kernel", "asymmetric", "--metric", "fenced", "--oracle"]
    refusing = ("import sys\n"
                "class NoStepper:\n"
                "    def find_spec(self, name, path=None, target=None):\n"
                "        if name in ('windwalk._stepper', 'fractions'):\n"
                "            raise ImportError(f'{name} is refused')\n"
                "sys.meta_path.insert(0, NoStepper())\n"
                "import windwalk.cli\n"
                f"sys.exit(windwalk.cli.main({argv!r}))")
    plain = subprocess.run([sys.executable, "-m", "windwalk.cli", *argv], env=env,
                           capture_output=True, text=True)
    refused = subprocess.run([sys.executable, "-c", refusing], env=env, capture_output=True,
                             text=True)
    assert (plain.returncode, refused.returncode) == (0, 0), refused.stderr
    assert refused.stdout == plain.stdout
    assert json.loads(refused.stdout)["gamma"] > 0


@pytest.mark.parametrize("command, key, value", [
    ("validate", "metric", "word"), ("validate", "seed", 1),
    ("solve-r", "metric", "word"), ("solve-r", "seed", 1),
    ("limits", "seed", 1),
    ("sweep-q", "kernel", "asymmetric"), ("sweep-q", "metric", "word"),
    ("sweep-q", "seed", 1), ("sweep-q", "tol", 1e-9),
    ("kms", "kernel", "asymmetric"), ("kms", "metric", "word"), ("kms", "seed", 1),
    ("oracle-dp", "seed", 1),
])
def test_setting_the_command_does_not_read_is_invalid(capsys, tmp_path, command, key, value):
    with pytest.raises(SystemExit) as exc:
        main([command, "--" + key.replace("_", "-"), str(value)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, _, err = run(capsys, command, "--config", str(cfg))
    assert code == 2
    assert f"unknown config keys for {command}: {key}" in err


def test_config_output_writes_the_file(capsys, tmp_path):
    out = tmp_path / "limits.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": "symmetric:3", "output": str(out)}))
    code, stdout, _ = run(capsys, "limits", "--config", str(cfg))
    assert (code, stdout) == (0, "")
    _, expected, _ = run(capsys, "limits", "--kernel", "symmetric:3")
    assert out.read_text() == expected


@pytest.mark.parametrize("command, key, value", [
    *[("simulate", "n_steps", value) for value in (None, [1000], "many")],
    *[("solve-r", "lam", value) for value in (None, [1.0], "high")],
    ("simulate", "n_steps", True),
    ("simulate", "n_steps", 2.5),
    ("limits", "oracle", "yes"),
    ("oracle-dp", "mode", "bogus"),
    ("sweep-q", "q_grid", 0.1),
    ("simulate", "initial", 7),
])
def test_malformed_config_value_is_invalid_input(capsys, tmp_path, command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, _, err = run(capsys, command, "--config", str(cfg))
    assert code == 2
    assert f"config key {key!r}" in err


# One call per command, together passing every setting except output.
FLAG_CALLS = [
    ["validate", "--kernel", "symmetric:5"],
    ["solve-r", "--kernel", "asymmetric", "--lam", "0.9", "--tol", "1e-12", "--derivatives"],
    ["limits", "--kernel", "asymmetric", "--metric", "fenced", "--tol", "1e-12", "--oracle"],
    ["sweep-q", "--q-grid", "0.1,0.25"],
    ["simulate", "--kernel", "symmetric:3", "--metric", "fenced", "--n-steps", "50",
     "--seed", "7", "--initial", "A(1,2,+)"],
    ["mc-lln", "--kernel", "symmetric:3", "--metric", "word", "--n-steps", "500",
     "--n-paths", "20", "--seed", "3", "--gamma", "0.25", "--sigma2", "0.6875"],
    ["mc-clt", "--kernel", "symmetric:3", "--metric", "word", "--n-steps", "500",
     "--n-paths", "50", "--seed", "3", "--gamma", "0.25", "--sigma2", "0.6875"],
    ["kms", "--n", "6", "--x", "0.3", "--z", "0.8"],
    ["oracle-dp", "--kernel", "asymmetric", "--mode", "hitting", "--target", "1,2,1",
     "--max-steps", "6"],
    ["oracle-dp", "--kernel", "asymmetric", "--mode", "return", "--window", "2",
     "--max-steps", "6"],
    ["oracle-dp", "--kernel", "asymmetric", "--mode", "G", "--window", "2", "--metric", "fenced",
     "--lam", "0.4", "--z", "0.7", "--max-steps", "4"],
]


@pytest.mark.parametrize("argv", FLAG_CALLS, ids=lambda argv: argv[0])
def test_config_keys_are_the_flag_names(capsys, tmp_path, argv):
    config, rest = {}, argv[1:]
    while rest:
        key = rest.pop(0)[2:].replace("-", "_")
        config[key] = rest.pop(0) if rest and not rest[0].startswith("--") else True
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(capsys, argv[0], "--config", str(cfg)) == run(capsys, *argv)


@pytest.mark.parametrize("argv", [
    ["simulate", "--kernel", "symmetric:3", "--initial", "e7"],
    ["oracle-dp", "--kernel", "asymmetric", "--target", "1,9,1"],
    ["oracle-dp", "--kernel", "asymmetric", "--mode", "return", "--window", "9"],
    ["oracle-dp", "--kernel", "asymmetric", "--mode", "G", "--window", "9", "--max-steps", "3"],
], ids=["simulate-e7", "hitting-1,9,1", "return-9", "G-9"])
def test_window_beyond_n_is_invalid_input(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "outside 1..3" in err


def _readme_command_line():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    return readme.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]


def test_readme_command_lines_parse():
    block = _readme_command_line().split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("windwalk ")]
    assert len(lines) == 9
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def test_readme_settings_table_matches_the_parser():
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", _readme_command_line(), re.M)
    assert len(rows) == 9
    for command, cell in rows:
        settings = set(vars(build_parser().parse_args([command])))
        settings -= {"command", "run", "config", "output"}
        flags = re.findall(r"`--([a-z0-9-]+)`", cell)
        assert {flag.replace("-", "_") for flag in flags} == settings


_GOOD_WEIGHT = {"i": 2, "j": 3, "k": -1, "weight": 1.5}


def test_every_malformed_kernel_entry_is_named(capsys, tmp_path):
    # Reading once stopped at entry 2, so entry 4 went unreported.
    kernel = _entry_with(2, value="heavy")
    kernel["p"][4]["wieght"] = 0.5
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(kernel))
    named = ["entry 2 of 'p' is malformed",
             "entry 4 of 'p' is malformed (ValueError(\"unknown key 'wieght'\"))"]
    code, out, _ = run(capsys, "validate", "--kernel", str(path))
    assert code == 2
    violations = json.loads(out)["violations"]
    assert len(violations) == 2
    assert all(name in violation for name, violation in zip(named, violations))
    code, out, err = run(capsys, "limits", "--kernel", str(path))
    assert code == 2
    assert out == ""
    assert all(name in err for name in named)


def test_every_stray_kernel_entry_is_its_own_violation(capsys, tmp_path):
    # Keys that name no arc were once joined into one violation.
    kernel = _entry_with(2, i=7)
    kernel["p"][4]["k"] = 2
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(kernel))
    code, out, _ = run(capsys, "validate", "--kernel", str(path))
    assert code == 2
    violations = json.loads(out)["violations"]
    assert len(violations) == 2
    assert "entry 2, (7, 1, 1), names no arc" in violations[0]
    assert "entry 4, (3, 1, 2), names no arc" in violations[1]


@pytest.mark.parametrize("entries, named", [
    ([{"i": 1, "j": 2, "k": 1, "weight": "heavy"}, _GOOD_WEIGHT,
      {"i": 1.5, "j": 2, "k": 1, "weight": 1.0}, _GOOD_WEIGHT],
     ["entry 0 of the custom metric is malformed", "entry 2 of the custom metric is malformed",
      "entry 3 of the custom metric is a duplicate entry for arc (2, 3, -1)"]),
    ([{"i": 1, "j": 1, "k": 1, "weight": 2.0}, _GOOD_WEIGHT,
      {"i": 1, "j": 7, "k": 1, "weight": 2.0}],
     ["entry 0 of the custom metric names no arc", "entry 2 of the custom metric names no arc"]),
], ids=["malformed", "no-arc"])
def test_every_bad_custom_metric_entry_is_named(capsys, tmp_path, entries, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": "asymmetric", "metric": {"custom": entries}}))
    code, out, err = run(capsys, "limits", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert all(name in err for name in named)


@pytest.mark.parametrize("text", ["symmetric:3", "symmetric:3.0", "symmetric:+3"])
def test_kernel_text_reads_as_the_kernel_json(capsys, tmp_path, text):
    # The text of a family is its JSON object, so N may be written 3.0 in both.
    payloads = []
    for spec in (text, {"symmetric": {"N": 3.0}}, {"symmetric": {"N": "3.0"}}):
        if isinstance(spec, dict):
            path = tmp_path / "kernel.json"
            path.write_text(json.dumps(spec))
            spec = str(path)
        code, out, _ = run(capsys, "validate", "--kernel", spec)
        assert code == 0
        payloads.append(json.loads(out))
    assert payloads[0] == payloads[1] == payloads[2]
    assert payloads[0] == {"valid": True, "kernel": kernel_to_json(symmetric_kernel(3)),
                           "name": "symmetric(N=3)"}


@pytest.mark.parametrize("text, named", [
    ("symmetric:3.5", "3.5"), ("symmetric:abc", "abc"), ("symmetric:nan", "nan"),
    ("symmetric:", "''"), ("one_parameter:abc", "abc"), ("one_parameter:0.5", "0.5"),
])
def test_bad_kernel_text_is_invalid_input(capsys, text, named):
    code, out, err = run(capsys, "limits", "--kernel", text)
    assert code == 2
    assert out == ""
    assert named in err


@pytest.mark.parametrize("text, named", [
    ("symmetric:abc", "'abc'"), ("symmetric:3.5", "3.5 is not a whole number"),
    ("symmetric:2", "got 2"), ("one_parameter:x", "'x'"),
])
def test_bad_kernel_text_is_quoted_as_written(capsys, text, named):
    # The error once quoted the JSON object the text stands for.
    code, out, err = run(capsys, "limits", "--kernel", text)
    assert code == 2
    assert out == ""
    assert f"--kernel text {text!r} is invalid" in err
    assert named in err
    assert "{" not in err


def test_target_is_read_as_whole_numbers(capsys):
    argv = ["oracle-dp", "--kernel", "asymmetric", "--mode", "hitting", "--max-steps", "8",
            "--target"]
    code, want, _ = run(capsys, *argv, "1,2,1")
    assert code == 0
    code, out, _ = run(capsys, *argv, "1,2,1.0")
    assert code == 0
    assert out == want
    code, out, err = run(capsys, *argv, "1,2,1.5")
    assert code == 2
    assert out == ""
    assert "got '1,2,1.5'" in err


def test_refused_word_space_walk_is_numerical_failure(capsys, monkeypatch):
    monkeypatch.setattr("windwalk.oracle.DEFAULT_STATE_CAP", 50)
    code, out, err = run(capsys, "oracle-dp", "--kernel", "symmetric:3", "--mode", "G",
                         "--max-steps", "40")
    assert code == 3
    assert out == ""
    assert err == "numerical failure: word-state count 61 exceeds the cap 50\n"


def test_determinant_off_its_simple_zero_is_numerical_failure(capsys, monkeypatch):
    monkeypatch.setattr("windwalk.limits.perron_jet", lambda *_: Jet2(1e-6, 1.0, 0.5))
    code, out, err = run(capsys, "limits", "--kernel", "symmetric:3")
    assert code == 3
    assert out == ""
    assert "expected a simple zero" in err


def test_singular_system_is_numerical_failure(capsys, monkeypatch):
    # LinAlgError is a ValueError, so an invalid-input clause tried first would take it.
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("windwalk.limits.perron_jet", singular)
    code, out, err = run(capsys, "limits", "--kernel", "asymmetric")
    assert code == 3
    assert out == ""
    assert err == "numerical failure: Singular matrix\n"


def test_limits_prints_a_negative_variance(capsys, monkeypatch):
    # `limits` reports the constants as computed; only the library call checks sigma2.
    monkeypatch.setattr("windwalk.limits.perron_jet", lambda *_: Jet2(0.0, 1.0, 0.5, 0.0, 0.0, -1.0))
    code, out, _ = run(capsys, "limits", "--kernel", "symmetric:3")
    assert code == 0
    assert json.loads(out)["sigma2"] == -1.25


#: The word metric scaled down to 1e-13 on every arc: small, not degenerate.
TINY_METRIC = {"custom": [{"i": i, "j": j, "k": k, "weight": 1e-13}
                          for i in (1, 2, 3) for j in (1, 2, 3) if i != j for k in (1, -1)]}


@pytest.mark.parametrize("metric, degenerate",
                         [({"custom": []}, True), ("word", False), (TINY_METRIC, False)])
def test_degenerate_metric_carries_a_warning(capsys, tmp_path, metric, degenerate):
    # With every weight 0 the Perron root does not depend on z; with every
    # weight small it still does.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": "asymmetric", "metric": metric}))
    code, out, _ = run(capsys, "limits", "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    assert ("warning" in payload) == degenerate
    if degenerate:
        assert payload["warning"] == "metric is degenerate: the Perron root does not depend on z"
        assert payload["gamma"] == 0.0


def _child_env(**extra):
    """The environment of a fresh interpreter that imports this windwalk."""
    import os

    import windwalk

    env = dict(os.environ, **extra)
    src = os.path.dirname(os.path.dirname(windwalk.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_run_freezes_the_heap_and_main_does_not(capsys):
    import gc
    import subprocess
    import sys

    code = ("import gc, sys, windwalk.cli\n"
            "before = gc.get_freeze_count()\n"
            "status = windwalk.cli.run(['limits', '--kernel', 'symmetric:3', '--oracle'])\n"
            "print(status, before, gc.get_freeze_count(), file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                         text=True, check=True)
    status, before, after = map(int, out.stderr.split())
    assert (status, before) == (0, 0)
    assert after > 0
    assert json.loads(out.stdout)["closed_form_delta"]
    frozen = gc.get_freeze_count()
    assert run(capsys, "limits", "--kernel", "symmetric:3", "--oracle")[0] == 0
    assert gc.get_freeze_count() == frozen


def test_console_script_is_run():
    # The installed `windwalk` command takes the path of `python -m windwalk.cli`.
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = pyproject.read_text().split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert scripts.split() == ["windwalk", "=", '"windwalk.cli:run"']


@pytest.mark.parametrize("argv, status", [
    (["limits", "--kernel", "asymmetric", "--metric", "fenced", "--oracle"], 0),
    (["limits", "--kernel", "symmetric:1"], 2),
    (["limits", "--kernel", "symmetric:3", "--bogus"], 2),
    (["--help"], 0),
])
def test_module_entry_matches_main(capsys, monkeypatch, argv, status):
    # argparse wraps its help and usage to the terminal's width.
    import subprocess
    import sys

    monkeypatch.setenv("COLUMNS", "80")
    child = subprocess.run([sys.executable, "-m", "windwalk.cli", *argv],
                           env=_child_env(COLUMNS="80"), capture_output=True, text=True)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == status
    assert (child.returncode, child.stdout, child.stderr) == (code, captured.out, captured.err)


def test_module_entry_matches_main_on_numerical_failure(capsys, monkeypatch):
    # The refused word-space walk of test_refused_word_space_walk_is_numerical_failure:
    # the child patches the cap, then runs the module as `python -m` does.
    import subprocess
    import sys

    argv = ["oracle-dp", "--kernel", "symmetric:3", "--mode", "G", "--max-steps", "40"]
    code = ("import runpy, sys, windwalk.oracle\n"
            "windwalk.oracle.DEFAULT_STATE_CAP = 50\n"
            f"sys.argv = ['windwalk'] + {argv!r}\n"
            "runpy.run_module('windwalk.cli', run_name='__main__', alter_sys=True)")
    child = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                           text=True)
    monkeypatch.setattr("windwalk.oracle.DEFAULT_STATE_CAP", 50)
    assert run(capsys, *argv) == (3, child.stdout, child.stderr)
    assert child.returncode == 3


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_141_in_silence(tmp_path, unbuffered):
    # A reader that left before the writer started: a closed pipe is not
    # invalid input, but an --output file that cannot be written still is.
    import os
    import subprocess
    import sys

    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "windwalk.cli", "limits", "--kernel", "symmetric:5",
            "--metric", "word", "--oracle"]
    # argparse writes --help itself, and once dropped the error of that write.
    for words in (argv, argv[:3] + ["--help"]):
        read, write = os.pipe()
        os.close(read)
        try:
            child = subprocess.run(words, stdout=write, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write)
        assert (child.returncode, child.stderr) == (141, b""), words[3:]
    unwritable = str(tmp_path / "missing" / "out.json")
    child = subprocess.run(argv + ["--output", unwritable], capture_output=True, env=env)
    assert child.returncode == 2
    assert child.stderr.startswith(b"error: ")
