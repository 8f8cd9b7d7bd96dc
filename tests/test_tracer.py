"""The benchmark tracer (perfbench/tracer.py) wraps library functions by
module attribute name; a rename in the library must fail here rather than
silently zero the benchmark's layer counts."""

import importlib
import pathlib
import types

import schubart.cli as cli

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # exec the source so no bytecode cache lands next to it
    mod = types.ModuleType("perfbench_tracer")
    mod.__file__ = str(_TRACER)
    exec(compile(_TRACER.read_text(), str(_TRACER), "exec"), mod.__dict__)
    return mod


def test_tracer_names_resolve_and_count_the_field(capsys):
    tr = _load_tracer()
    for mod, fn in tr.SPANNED + tr.LEAVES:
        assert callable(getattr(importlib.import_module("schubart." + mod),
                                fn, None)), (mod, fn)
    tracer = tr.Tracer()
    tracer.install()
    try:
        tracer.begin_task(0)
        code = cli.main(["branches", "--problem", "pyramidal", "--n", "2"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = tr.layer_metrics(tracer.spans)
    assert metrics["dynamics.field_calls"] > 0
    assert metrics["manifolds.trace_calls"] > 0
