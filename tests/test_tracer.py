"""The benchmark tracer (perfbench/tracer.py) wraps library functions by
module attribute name; a rename in the library must fail here rather than
silently zero the benchmark's layer counts."""

import importlib
import pathlib
import types

import schubart.cli as cli
from schubart import dynamics as dyn
from schubart.odeint import _SCALAR_BELOW

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


def test_tracer_counts_the_orbit_search_repeatably(capsys, monkeypatch):
    # a scan of at least odeint._SCALAR_BELOW seeds flies them as one
    # lockstep block in odeint.integrate_block, which no span wraps: its
    # field calls must still reach the traced field name, and so must every
    # other evaluation of the field, the Brent shots' among them
    tr = _load_tracer()
    argv = ["orbit", "--family", "B", "--k", "0", "--param-lo", "0.4",
            "--param-hi", "0.7", "--grid-points", "40", "--workers", "1"]
    assert 40 >= _SCALAR_BELOW
    evaluations = []
    field = dyn._field
    monkeypatch.setattr(dyn, "_field",
                        lambda *args: evaluations.append(1) or field(*args))
    passes = []
    for _ in range(2):
        evaluations.clear()
        tracer = tr.Tracer()
        tracer.install()
        try:
            tracer.begin_task(0)
            code = cli.main(argv)
        finally:
            tracer.uninstall()
        capsys.readouterr()
        assert code == 0
        metrics = tr.layer_metrics(tracer.spans)
        assert metrics["dynamics.field_calls"] > 0
        assert metrics["odeint.integrate_calls"] > 0
        # the scan block's calls lie outside every integrate span
        integ = [s for s in tracer.spans if s.name == "odeint.integrate"]
        assert metrics["dynamics.field_calls"] > tr._fev(integ)
        assert metrics["dynamics.field_calls"] == len(evaluations)
        # the Brent shots fly one integrate call each (the tracer books
        # them as scan or root shots by their seed order)
        shots = [s for s in integ if s.attrs["stage"] in ("scan", "root")]
        assert shots and tr._fev(shots) > 0
        assert len(shots) < 40  # none of them a seed of the scan
        passes.append({name: metrics[name] for name in tr.COUNTS})
    assert passes[0] == passes[1]
