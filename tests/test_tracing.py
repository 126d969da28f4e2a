"""The benchmark tracer patches names of the library; each must still exist,
and uninstalling must put every original back."""

import importlib.util
import pathlib
import sys

import windwalk.cli  # noqa: F401  (loads every module the tracer patches)
from windwalk import limits
from windwalk.chain import asymmetric_kernel, symmetric_kernel
from windwalk.groupoid import word_metric
from windwalk.jets import Jet2

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _windwalk_attributes():
    modules = {name: module for name, module in sys.modules.items()
               if name == "windwalk" or name.startswith("windwalk.")}
    state = {(name, key): value for name, module in modules.items()
             for key, value in vars(module).items()}
    state.update({("Jet2", attr): Jet2.__dict__[attr] for attr in ("__mul__", "__rmul__")})
    return state


def test_tracer_patches_every_traced_name_and_restores_it():
    tracing = _load_tracing()
    before = _windwalk_attributes()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = _windwalk_attributes()
        for module, attr in tracing.TRACED.values():
            assert during[(module, attr)] is not before[(module, attr)], (module, attr)
        for attr in ("__mul__", "__rmul__"):
            assert during[("Jet2", attr)] is not before[("Jet2", attr)], attr
    finally:
        tracer.uninstall()
    after = _windwalk_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_assembly_layer_is_live_on_the_dense_path():
    # compute_limits assembles the flat system once up to DENSE_MAX_N
    # windows and never above, and builds both chambers' jets in one
    # build_b call; the jet determinant det_h stays off the path.
    tracer = _load_tracing().Tracer()
    entered = {}
    try:
        tracer.install()
        for name, kernel in (("asymmetric", asymmetric_kernel()),
                             ("symmetric:8", symmetric_kernel(8))):
            start = len(tracer.spans)
            limits.compute_limits(kernel, word_metric(kernel.n_windows))
            entered[name] = [span[0] for span in tracer.spans[start:]]
    finally:
        tracer.uninstall()
    assert entered["asymmetric"].count("solver.system_matrices") == 1
    assert "solver.system_matrices" not in entered["symmetric:8"]
    for names in entered.values():
        assert names.count("limits.build_b") == 1
        assert "limits.det_h" not in names
