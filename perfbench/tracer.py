"""Spans and counters around the public functions of each schubart module.

The wrappers are installed from outside the library: every reference to a
wrapped function in the schubart modules is swapped for a wrapper and put
back on uninstall, so `src/` stays untouched.  A span records a name, its
start and end, the id of the span that caused it, and the task it belongs
to.  The two field functions (`newcoords_rhs`, `energy_residual`) run about
10^5 times per task; they are kept as counts and total times on the
innermost open span rather than as spans of their own.

Stage of an `integrate` call inside `find_orbit`: under
`verify_periodicity` it is verification; with `Controls.sample_ds` set it
is reconstruction; otherwise it is a scan shot while the seed keeps moving
forward along the grid, and a root shot from the first seed that steps back
(the scan runs in grid order before any bracket is refined).
"""

import functools
import statistics
import sys
import time

FIELD = "dynamics.newcoords_rhs"
ENERGY = "dynamics.energy_residual"
KINDS = ("pyramidal", "spatial", "planar")

# (module, function) pairs that get a span
SPANNED = (
    ("cli", "main"),
    ("orbits", "find_orbit"),
    ("orbits", "reconstruct_full"),
    ("orbits", "verify_periodicity"),
    ("odeint", "integrate"),
    ("odeint", "integrate_collision_manifold"),
    ("manifolds", "trace_branch"),
    ("manifolds", "equilibria"),
    ("manifolds", "landmark_values"),
    ("manifolds", "check_N4"),
    ("conditions", "condition_report"),
    ("conditions", "check_condition"),
    ("conditions", "integrate_g"),
    ("problems", "critical_points"),
)
LEAVES = (("dynamics", "newcoords_rhs"), ("dynamics", "energy_residual"))

CONDITIONS = ("N1", "N2", "N3", "N3prime", "N4")


class Span:
    __slots__ = ("id", "parent", "task", "name", "start", "end", "attrs",
                 "leaf", "children")

    def __init__(self, sid, parent, task, name, attrs, start):
        self.id = sid
        self.parent = parent
        self.task = task
        self.name = name
        self.start = start
        self.end = None
        self.attrs = attrs
        self.leaf = {}  # (leaf name, problem kind) -> [calls, seconds]
        self.children = []

    @property
    def dur(self):
        return self.end - self.start

    def as_dict(self):
        return {"id": self.id, "parent": self.parent, "task": self.task,
                "name": self.name, "start": self.start, "end": self.end,
                "attrs": self.attrs,
                "leaf": {"%s[%s]" % k: v for k, v in self.leaf.items()}}


class Tracer:
    """Keeps every span of a run in memory; install() swaps the wrappers in.
    `clock` gives the span times (seconds)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._task = None
        self._swapped = []  # (module, attribute, original)

    # -- recording ---------------------------------------------------------------

    def begin_task(self, task_id):
        self._task = task_id
        del self._stack[:]

    def _open(self, name, attrs):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None,
                    self._task, name, attrs, self.clock())
        self.spans.append(span)
        if parent is not None:
            parent.children.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = self.clock()
        self._stack.pop()

    def _enclosing(self, *names):
        for span in reversed(self._stack):
            if span.name in names:
                return span
        return None

    def _spanned(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = tracer._attrs(name, args, kwargs)
            span = tracer._open(name, attrs)
            try:
                out = fn(*args, **kwargs)
                if name == "odeint.integrate":
                    attrs["samples"] = len(getattr(out, "samples", ()))
                return out
            finally:
                tracer._close(span)

        return wrapper

    def _attrs(self, name, args, kwargs):
        if name == "conditions.check_condition":
            return {"which": args[1] if len(args) > 1 else kwargs["which"]}
        if name == "orbits.find_orbit":
            return {"last_seed": None, "rooting": False}
        if name != "odeint.integrate":
            return {}
        return {"stage": self._stage(args, kwargs)}

    def _stage(self, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        caller = parent.name if parent is not None else None
        if caller == "odeint.integrate_collision_manifold":
            return "forward"
        if caller == "manifolds.trace_branch":
            return "backward"
        if self._enclosing("orbits.verify_periodicity") is not None:
            return "verify"
        search = self._enclosing("orbits.find_orbit")
        if search is None:
            return "other"
        controls = args[3] if len(args) > 3 else kwargs.get("controls")
        if getattr(controls, "sample_ds", None):
            return "reconstruct"
        seed = args[1] if len(args) > 1 else kwargs["seed"]
        key = (seed.angle, seed.r)
        state = search.attrs
        if not state["rooting"] and (state["last_seed"] is None
                                     or key > state["last_seed"]):
            state["last_seed"] = key
            return "scan"
        state["rooting"] = True
        return "root"

    def _leaf(self, name, fn):
        stack = self._stack  # never empty here: every task runs under cli.main
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(p, s):
            t0 = clock()
            try:
                return fn(p, s)
            finally:
                dt = clock() - t0
                acc = stack[-1].leaf
                key = (name, p.kind)
                cell = acc.get(key)
                if cell is None:
                    acc[key] = [1, dt]
                else:
                    cell[0] += 1
                    cell[1] += dt

        return wrapper

    # -- installation --------------------------------------------------------------

    def install(self):
        """Swap every schubart reference to a traced function for a wrapper."""
        mods = {name: module for name, module in sys.modules.items()
                if name == "schubart" or name.startswith("schubart.")}
        plan = []
        for mod, fn in SPANNED + LEAVES:
            original = getattr(mods["schubart." + mod], fn)
            label = "%s.%s" % (mod, fn)
            wrap = (self._leaf(label, original) if (mod, fn) in LEAVES
                    else self._spanned(label, original))
            plan.append((original, wrap))
        for module in mods.values():
            for attr, value in list(vars(module).items()):
                for original, wrap in plan:
                    if value is original:
                        setattr(module, attr, wrap)
                        self._swapped.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._swapped):
            setattr(module, attr, original)
        self._swapped = []


def _subtree_leaves(span) -> dict:
    """Leaf name -> [calls, seconds] over the span and its descendants."""
    total = {FIELD: [0, 0.0], ENERGY: [0, 0.0]}
    todo = [span]
    while todo:
        s = todo.pop()
        for (name, _), (calls, secs) in s.leaf.items():
            total[name][0] += calls
            total[name][1] += secs
        todo.extend(s.children)
    return total


def _fev(spans) -> int:
    return sum(_subtree_leaves(s)[FIELD][0] for s in spans)


def _per(num, den):
    """num / den, or 0 when the layer did no work."""
    return num / den if den else 0.0


def _dur(spans) -> float:
    return sum(s.dur for s in spans)


def layer_metrics(spans) -> dict:
    """Per-layer metrics from one pass worth of closed spans."""
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def named(name):
        return by.get(name, [])

    field = {k: [0, 0.0] for k in KINDS}
    energy_calls = 0
    for s in spans:
        for (name, kind), (calls, secs) in s.leaf.items():
            if name == FIELD:
                cell = field[kind.split("-")[0]]  # "spatial-double-polygon"
                cell[0] += calls
                cell[1] += secs
            else:
                energy_calls += calls
    field_calls = sum(c for c, _ in field.values())
    field_secs = sum(t for _, t in field.values())

    integ = named("odeint.integrate")
    integ_fev, integ_leaf_s = 0, 0.0
    for s in integ:
        leaves = _subtree_leaves(s)
        integ_fev += leaves[FIELD][0]
        integ_leaf_s += leaves[FIELD][1] + leaves[ENERGY][1]
    odeint_self = _dur(integ) - integ_leaf_s

    def stage(name):
        return [s for s in integ if s.attrs.get("stage") == name]

    scan, root = stage("scan"), stage("root")
    shots = scan + root
    traces = named("manifolds.trace_branch")

    cli_self = 0.0
    for s in named("cli.main"):
        leaf = sum(secs for _, secs in s.leaf.values())
        cli_self += s.dur - _dur(s.children) - leaf

    m = {
        "dynamics.field_calls": field_calls,
        "dynamics.field_us": 1e6 * _per(field_secs, field_calls),
        "dynamics.energy_residual_calls": energy_calls,
        "odeint.integrate_calls": len(integ),
        "odeint.self_s": odeint_self,
        "odeint.overhead_us_per_fev": 1e6 * _per(odeint_self, integ_fev),
        "odeint.samples": sum(s.attrs.get("samples", 0) for s in integ),
        "orbits.scan_shots": len(scan),
        "orbits.scan_s": _dur(scan),
        "orbits.root_shots": len(root),
        "orbits.root_s": _dur(root),
        "orbits.reconstruct_s": (_dur(stage("reconstruct"))
                                 + _dur(named("orbits.reconstruct_full"))),
        "orbits.verify_s": _dur(named("orbits.verify_periodicity")),
        "orbits.shot_ms": (1e3 * statistics.median(s.dur for s in shots)
                           if shots else 0.0),
        "orbits.nfev_per_shot": _per(_fev(shots), len(shots)),
        "manifolds.trace_calls": len(traces),
        "manifolds.trace_ms": 1e3 * _per(_dur(traces), len(traces)),
        "manifolds.forward_s": _dur(named("odeint.integrate_collision_manifold")),
        "manifolds.backward_s": _dur(stage("backward")),
        "manifolds.equilibria_s": _dur(named("manifolds.equilibria")),
        "manifolds.nfev_per_trace": _per(_fev(traces), len(traces)),
        "conditions.integrate_g_calls": len(named("conditions.integrate_g")),
        "conditions.integrate_g_s": _dur(named("conditions.integrate_g")),
        "problems.critical_points_calls": len(named("problems.critical_points")),
        "problems.critical_points_s": _dur(named("problems.critical_points")),
        "cli.self_s": cli_self,
    }
    for kind in KINDS:
        calls, secs = field[kind]
        m["dynamics.field_us." + kind] = 1e6 * _per(secs, calls)
    for name in CONDITIONS:
        m["conditions.check_s." + name] = _dur(
            s for s in named("conditions.check_condition")
            if s.attrs["which"] == name)
    return m


# counts that must repeat exactly between two traced passes of one seed
COUNTS = ("dynamics.field_calls", "dynamics.energy_residual_calls",
          "odeint.integrate_calls", "odeint.samples", "orbits.scan_shots",
          "orbits.root_shots", "manifolds.trace_calls",
          "conditions.integrate_g_calls", "problems.critical_points_calls")
