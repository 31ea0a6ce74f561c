"""Per-layer tracing of the ``ssem`` package from outside it.

:class:`Tracer` wraps the public functions of each layer module and rebinds
each wrapper in every ``ssem.*`` namespace that imported the function by
name (``ssem.model.responsibilities`` is also ``ssem.em.responsibilities``,
``ssem.population.responsibilities``, ...).  ``uninstall`` puts the
originals back, so untraced passes run the program unchanged.

Layers are the package modules.  In ``cli`` only the entry point ``main``
is wrapped, so its self time is all of the CLI's own work (argument
parsing, JSON and summary writes).  ``Trajectory.write_csv`` is wrapped as
``em.write_csv``.  The integrand handed to ``quadrature.integrate`` is
wrapped as ``quadrature.integrand``.

Each call records a span (name, start, end, parent) in memory.  A span's
self time is its duration minus the durations of its child spans.  A few
spans also record a number taken from their arguments or result: rows
passed to ``responsibilities``, points passed to the integrand, bytes
written by ``save_dataset_csv``, EM iterations, and the checks a verifier
returned.  :meth:`Tracer.metrics` derives the per-layer metrics from them.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("sampling", "model", "em", "quadrature", "population", "analysis",
          "config", "cli")

# Verifiers whose spans own the integrals behind each check they return.
VERIFIERS = ("analysis.verify_theorem1", "analysis.verify_theorem2",
             "analysis.demonstrate_rescue", "analysis.rate_bound_item1",
             "analysis.rate_bound_item2", "analysis.rate_bound_item3")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _rows(args, kwargs, result):
    return int(np.size(_arg(args, kwargs, 2, "y")))


def _points(args, kwargs, result):
    return int(np.size(args[0]))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


def _em_steps(args, kwargs, result):
    return (result.n_steps, _arg(args, kwargs, 1, "data").n)


def _population_steps(args, kwargs, result):
    return (result.n_steps, _arg(args, kwargs, 0, "pm").kind.tag)


def _check_count(args, kwargs, result):
    return len(result.checks())


_HOOKS = {
    "model.responsibilities": _rows,
    "sampling.save_dataset_csv": _file_bytes,
    "em.run_em": _em_steps,
    "population.run_population_em": _population_steps,
    **{name: _check_count for name in VERIFIERS},
}


class Tracer:
    """Span recorder that patches the ``ssem`` modules while installed.

    Use as a context manager around the calls to trace; spans accumulate
    until :meth:`reset`.
    """

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.extra: dict[int, object] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans (in place: the wrappers hold these lists)."""
        for seq in (self.names, self.parents, self.starts, self.ends):
            seq.clear()
        self.extra.clear()

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped to record a span named ``name``."""
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        extra, stack, clock = self.extra, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                extra[idx] = hook(args, kwargs, result)
            return result

        return traced

    def _wrap_integrate(self, fn):
        wrap = self.wrap

        def integrate(f, *args, **kwargs):
            return fn(wrap("quadrature.integrand", f, _points), *args, **kwargs)

        return self.wrap("quadrature.integrate", functools.wraps(fn)(integrate))

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: sys.modules[f"ssem.{name}"] for name in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                        or (layer == "cli" and attr != "main")):
                    continue
                name = f"{layer}.{attr}"
                if name == "quadrature.integrate":
                    wrappers[id(obj)] = self._wrap_integrate(obj)
                else:
                    wrappers[id(obj)] = self.wrap(name, obj, _HOOKS.get(name))
        namespaces = [mod for key, mod in sys.modules.items()
                      if key == "ssem" or key.startswith("ssem.")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(module, attr, wrappers[id(obj)])
        trajectory = modules["em"].Trajectory
        self._patch(trajectory, "write_csv",
                    self.wrap("em.write_csv", trajectory.write_csv))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- derived metrics ---------------------------------------------------

    def write_spans(self, fh) -> None:
        """Write the recorded spans to text file ``fh`` as CSV: index, name,
        parent, start, end (seconds on this process's ``perf_counter``)."""
        fh.write("index,name,parent,start,end\n")
        for i, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)):
            fh.write(f"{i},{name},{parent},{start!r},{end!r}\n")

    def _owners(self, targets) -> list[int]:
        """Per span, the nearest span (itself included) named in
        ``targets``, or -1.  Parents always precede their children."""
        owner = []
        for i, (name, parent) in enumerate(zip(self.names, self.parents)):
            if name in targets:
                owner.append(i)
            else:
                owner.append(owner[parent] if parent >= 0 else -1)
        return owner

    def metrics(self) -> tuple[dict, dict]:
        """Return ``(counts, seconds)``: exact counters and ratios, and
        self times in seconds.  Both map metric name to value."""
        names, extra = self.names, self.extra
        n = len(names)
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=n) if n else np.zeros(0)
        self_s = dur - child

        calls: dict[str, int] = {}
        seconds: dict[str, float] = {}
        for i, name in enumerate(names):
            calls[name] = calls.get(name, 0) + 1
            seconds[name] = seconds.get(name, 0.0) + float(self_s[i])

        def spans_of(name):
            return [i for i, x in enumerate(names) if x == name]

        resp = spans_of("model.responsibilities")
        integrals = spans_of("quadrature.integrate")
        em_owner = self._owners({"em.run_em"})
        pop_owner = self._owners({"population.run_population_em"})
        check_owner = self._owners(set(VERIFIERS))

        em_runs = [extra[i] for i in spans_of("em.run_em") if i in extra]
        em_rows = sum(extra[i] for i in resp if em_owner[i] >= 0 and i in extra)
        em_base = sum(steps * n for steps, n in em_runs)

        pop_steps = {"all": 0, "gmm": 0, "sym2": 0}
        pop_integrals = {"all": 0, "gmm": 0, "sym2": 0}
        for i in spans_of("population.run_population_em"):
            if i in extra:
                steps, tag = extra[i]
                pop_steps["all"] += steps
                pop_steps[tag] = pop_steps.get(tag, 0) + steps
        for i in integrals:
            owner = pop_owner[i]
            if owner in extra:  # inside a run_population_em that returned
                tag = extra[owner][1]
                pop_integrals["all"] += 1
                pop_integrals[tag] = pop_integrals.get(tag, 0) + 1
        checks = sum(extra[i] for i in range(n)
                     if names[i] in VERIFIERS and i in extra)
        check_integrals = sum(1 for i in integrals if check_owner[i] >= 0)
        evals = sum(extra[i] for i in spans_of("quadrature.integrand")
                    if i in extra)

        def ratio(num, den):
            return num / den if den else 0.0

        counts = {
            "trace.spans": n,
            "model.responsibilities.calls": calls.get("model.responsibilities", 0),
            "model.responsibilities.rows": sum(extra[i] for i in resp if i in extra),
            "model.invert_alpha_prime.calls": calls.get("model.invert_alpha_prime", 0),
            "sampling.save_dataset_csv.bytes": sum(
                extra[i] for i in spans_of("sampling.save_dataset_csv") if i in extra),
            "em.run_em.calls": calls.get("em.run_em", 0),
            "em.iterations": sum(steps for steps, _ in em_runs),
            "em.run_em.rows": em_rows,
            "em.run_em.n_x_iterations": em_base,
            "em.estep_passes_per_iter": ratio(em_rows, em_base),
            "quadrature.integrate.calls": len(integrals),
            "quadrature.integrand.calls": calls.get("quadrature.integrand", 0),
            "quadrature.integrand_evals": evals,
            "quadrature.evals_per_call": ratio(evals, len(integrals)),
            "population.expect.calls": calls.get("population.expect", 0),
            "population.run_population_em.calls":
                calls.get("population.run_population_em", 0),
            "population.run_population_em.iterations": pop_steps["all"],
            "population.run_population_em.integrals": pop_integrals["all"],
            "population.integrals_per_step":
                ratio(pop_integrals["all"], pop_steps["all"]),
            "analysis.checks": checks,
            "analysis.integrals": check_integrals,
            "analysis.integrals_per_check": ratio(check_integrals, checks),
        }
        for tag in ("gmm", "sym2"):
            counts[f"population.run_population_em.iterations.{tag}"] = pop_steps[tag]
            counts[f"population.integrals_per_step.{tag}"] = ratio(
                pop_integrals.get(tag, 0), pop_steps[tag])

        def self_time(*span_names):
            return sum((seconds.get(s, 0.0) for s in span_names), 0.0)

        times = {
            name: self_time(name) for name in (
                "sampling.sample_dataset", "sampling.save_dataset_csv",
                "sampling.load_dataset_csv", "model.marginal_log_density",
                "model.invert_alpha_prime", "em.run_em", "em.q_value",
                "em.write_csv", "quadrature.integrate", "quadrature.integrand",
                "population.expect", "population.run_population_em",
                "analysis.verify_theorem1", "analysis.verify_theorem2",
                "analysis.demonstrate_rescue", "config.build_run_config",
                "cli.main")
        }
        # The responsibility kernel, whichever of the two functions does it.
        times["model.responsibilities"] = self_time(
            "model.responsibilities", "model.log_responsibilities")
        times["em.m_step"] = self_time("em.m_step", "em.m_step_gmm",
                                       "em.m_step_expfam", "em.m_step_sym2")
        times["analysis.rate_bound"] = self_time(
            "analysis.rate_bound_item1", "analysis.rate_bound_item2",
            "analysis.rate_bound_item3")
        for layer in LAYERS:
            times[f"{layer}.self"] = sum(
                (s for name, s in seconds.items() if name.split(".")[0] == layer),
                0.0)
        return counts, {f"{name}.s": value for name, value in times.items()}
