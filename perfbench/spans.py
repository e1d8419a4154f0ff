"""In-memory span recording around adiorbit's public calls.

A :class:`Tracer` records one span per wrapped call: name, start, end,
parent span and the run id shared by one CLI invocation. Spans stay in
memory; the caller writes them out when the run ends. Nothing in
``src/`` is modified: :func:`instrument` rebinds the names that each
consumer module imported (``adiorbit.pipeline.solve_quasistationary``
and so on), so the program's own control flow is what gets timed.
"""

import dataclasses
import itertools
import threading
import time
from collections import Counter
from contextlib import contextmanager


@dataclasses.dataclass(frozen=True)
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts from the threads of one invocation.

    A span opened on a thread with no open span of its own (a sweep
    worker) takes the innermost span open on the creating thread as its
    parent, which is the command that started the pool.
    """

    def __init__(self, run: str):
        self.run = run
        self.spans: list = []
        self.counts: Counter = Counter()
        self.health: dict = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        fallback = self._main_stack[-1] if self._main_stack else 0
        parent = stack[-1] if stack else fallback
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, parent, name, start, end, self.run))

    def count(self, name: str, amount):
        with self._lock:
            self.counts[name] += amount

    def observe_max(self, name: str, value: float):
        with self._lock:
            self.health[name] = max(value, self.health.get(name, value))

    def wrap(self, module, attr: str, name: str, after=None):
        """Rebind ``module.attr`` to a version that records span ``name``.

        ``after(result, args, kwargs)`` runs once the span has closed.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(module, attr, wrapper)

    def to_json(self) -> dict:
        return {
            "run": self.run,
            "spans": [dataclasses.asdict(s) for s in self.spans],
            "counts": dict(self.counts),
            "health": dict(self.health),
        }


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover.

    Children on worker threads can overlap each other, so the covered
    part is the length of the union of their intervals.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(s.id, [])):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def spans_from_json(payload: dict) -> list:
    return [Span(**s) for s in payload["spans"]]


def instrument(tracer: Tracer, keep_result=None):
    """Wrap the public calls of every adiorbit layer, in the modules that
    call them. ``keep_result(result)`` receives each pipeline result."""
    from adiorbit import cli, frame, model, pipeline, propagate

    def wrap_model(built):
        evaluate_many = built.evaluate_many

        def counted(taus):
            with tracer.span("model.sample"):
                out = evaluate_many(taus)
            tracer.count("model.samples", out.shape[0])
            return out

        return dataclasses.replace(built, evaluate_many=counted)

    def rebuild(module, attr):
        # the model builders return a new model with a counting evaluator
        original = getattr(module, attr)

        def builder(*args, **kwargs):
            with tracer.span("model.build"):
                built = original(*args, **kwargs)
            return wrap_model(built)

        setattr(module, attr, builder)

    for attr in ("build_spin_half", "build_conjugated_model"):
        rebuild(cli, attr)

    def steps(result, args, kwargs):
        tracer.count("linalg.step_bytes", result.nbytes)

    def propagated(result, args, kwargs):
        tracer.count("propagate.steps", result.grid.n_steps)

    def pipeline_done(result, args, kwargs):
        with tracer.span("trace.health"):
            tracer.observe_max("propagate.norm_residual_max", float(result.norm_residual.max()))
            tracer.observe_max("frame.route_discrepancy",
                               frame.coupling_route_discrepancy(result.frame))
        if keep_result is not None:
            keep_result(result)

    tracer.wrap(cli, "load_scenario", "cli.load_scenario")
    tracer.wrap(cli, "build_scenario", "cli.build_scenario")
    for attr in ("run_evolve", "run_check", "run_sweep"):
        tracer.wrap(cli, attr, "cli.command")
    tracer.wrap(cli, "run_pipeline", "pipeline.run", after=pipeline_done)
    tracer.wrap(cli, "evaluate_conditions", "perturb.conditions")

    tracer.wrap(pipeline, "solve_quasistationary", "spectrum.solve")
    tracer.wrap(pipeline, "compute_nonadiabatic_coupling", "spectrum.gamma")
    tracer.wrap(pipeline, "build_frame", "frame.build")
    tracer.wrap(pipeline, "evolve_coefficients", "propagate.coefficients", after=propagated)
    tracer.wrap(pipeline, "evolve_schrodinger", "propagate.schrodinger", after=propagated)
    tracer.wrap(pipeline, "survival_probability_direct", "propagate.direct")
    for attr in ("first_order_probability", "second_order_probability",
                 "ratio_probability_first_iteration"):
        tracer.wrap(pipeline, attr, "perturb.probabilities")

    for module in (propagate, model):
        tracer.wrap(module, "unitary_steps", "linalg.unitary_steps", after=steps)
    tracer.wrap(propagate, "scan_states", "linalg.scan_states")
