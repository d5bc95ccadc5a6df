"""The benchmark's layer trace (bench/tracing.py) wraps names bound in the
package's modules and reads some of their arguments by position.  These
tests pin that contract from this side, so renaming or unbinding a wrapped
name, or moving an argument the counters read, fails here and not only in
`bench/run.py --trace 1`.  They read bench/ and change nothing there.
"""

import importlib
import importlib.util
import inspect
import types
from pathlib import Path

from dubins3d import batch, solver
from dubins3d.oracle import GridWindow
from dubins3d.scenarios import load_bundled

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
MODULES = ("batch", "solver", "path", "oracle", "studies")


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_over_every_wrapped_name_and_removes_cleanly():
    pkg = types.SimpleNamespace(**{name: importlib.import_module(f"dubins3d.{name}") for name in MODULES})
    tracer = _tracing().Tracer(pkg)
    try:
        tracer.install()  # raises AttributeError if a wrapped name is unbound
        patched = list(tracer.patched)
        assert all(getattr(m, name) is not orig for m, name, orig in patched)
        tracer.enabled = True
        inst = load_bundled("planar_far").instance
        pkg.solver.solve_all(inst)
        pkg.oracle.enumerate_all_types(inst, GridWindow.for_instance(inst, 32))
    finally:
        tracer.remove()
    assert all(getattr(m, name) is orig for m, name, orig in patched)
    # the counters that read positional arguments saw the arrays they expect
    stats = tracer.layer_summary()
    assert stats["batch.eval"]["elems"] > 0
    assert stats["batch.newton"]["seeds"] > 0
    assert stats["solver.dedup"]["dedup_in"] > 0
    assert stats["oracle.enumerate"]["roots"] > 0


def test_positional_arguments_the_trace_counters_read():
    # the element counters take the size of args[2], dedup_in the length of args[0]
    assert list(inspect.signature(batch.eval_residuals).parameters)[2] == "hi"
    assert list(inspect.signature(batch.newton).parameters)[2] == "hi0"
    assert list(inspect.signature(solver.dedup).parameters)[0] == "cand"
