import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_is_defined_where_the_tracer_looks():
    # the benchmark's tracer wraps `owner.__dict__[attr]` for each target,
    # so a name moved or renamed away from an owner stops `--trace 1`
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(name, getattr(owner, "__name__", owner), attr)
               for name, owners, attr, _ in tracer.TARGETS for owner in owners
               if not callable(owner.__dict__.get(attr))]
    assert missing == []
