"""The benchmark's tracer still finds every layer it names.

bench/tracer.py reports a renamed or deleted target as absent and keeps
running, so a refactor could silently zero a per-layer metric; this test
turns that into a failure. The layers of the deleted truncated BiCGstab
node solver are the only ones expected absent: their metrics read 0.
"""

import importlib.util
import os

import kroneig.blr

# deleted with the truncated BiCGstab node solver and its problem container
DELETED_LAYERS = ["sylvester.bicgstab_multiterm", "sylvester.apply_pair", "contour.node_problem"]

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer_module = _load_tracer()
    original = kroneig.blr.truncate
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert tracer.absent == DELETED_LAYERS
    finally:
        tracer.uninstall()
    assert kroneig.blr.truncate is original
