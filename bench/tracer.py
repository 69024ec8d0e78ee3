"""Spans around the calls into each `firemarg` module, recorded from
outside the program.

`Tracer.install` replaces every public function a caller imports with
a wrapper under the caller's own name: `tuning.fit_zinb` and
`pipeline.fit_zinb` are two names for one function and are wrapped
separately, because `tuning` and `pipeline` each look the name up in
their own module. The fitted models' `cdf` methods are wrapped on the
class. Each span adds its duration, and its self time (duration minus
the spans it encloses), to its name's totals as it closes; individual
spans are not kept. Hooks count the outcomes a layer's ratios need.

Predictions with more than one worker run in forked pool processes.
The pool `pipeline` creates is swapped for one that sends each job
through `_traced_job`, which returns the worker's records alongside
the result, and that measures the pickled size of every job it sends.
"""

from __future__ import annotations

import os
import pickle
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

from firemarg import burnt_area, counts, neighborhoods, pipeline, tuning

# The tracer a forked pool worker records into; set while installed.
_ACTIVE = None


class Tracer:
    def __init__(self):
        self.spans: dict = {}          # name -> [calls, seconds, self seconds]
        self.counts: Counter = Counter()
        self._stack: list = []         # enclosed seconds of each open span
        self._undo: list = []

    def reset(self) -> None:
        self.spans = {}
        self.counts = Counter()
        self._stack = []

    def records(self) -> tuple:
        return self.spans, dict(self.counts)

    def merge(self, records) -> None:
        spans, counts_ = records
        for name, (calls, secs, own) in spans.items():
            total = self.spans.setdefault(name, [0, 0.0, 0.0])
            total[0] += calls
            total[1] += secs
            total[2] += own
        self.counts.update(counts_)

    def calls(self, *names) -> int:
        return sum(self.spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def seconds(self, *names) -> float:
        return sum(self.spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def _wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before else None
            self._stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                secs = perf_counter() - start
                enclosed = self._stack.pop()
                if self._stack:
                    self._stack[-1] += secs
                total = self.spans.setdefault(name, [0, 0.0, 0.0])
                total[0] += 1
                total[1] += secs
                total[2] += secs - enclosed
            if after:
                after(self.counts, token, args, kwargs, result)
            return result
        return traced

    def _patch(self, owner, attr, name, **hooks) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrap(name, original, **hooks))
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        global _ACTIVE
        for owner, attr, name, hooks in _targets():
            self._patch(owner, attr, name, **hooks)
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                jobs = [(fn, args) for args in zip(*iterables)]
                tracer.counts["pool.payload_bytes"] += sum(
                    len(pickle.dumps(job)) for job in jobs)
                for result, records in super().map(_traced_job, jobs, **kwargs):
                    tracer.merge(records)
                    yield result

        self._undo.append((pipeline, "ProcessPoolExecutor",
                           pipeline.ProcessPoolExecutor))
        pipeline.ProcessPoolExecutor = TracedPool
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        _ACTIVE = None


def _traced_job(job):
    """Run one pool job in a forked worker; return its result with the
    spans it recorded there."""
    if _ACTIVE is None:
        raise RuntimeError("pool worker has no tracer: it was not forked "
                           "from the traced process")
    _ACTIVE.reset()
    fn, args = job
    result = fn(*args)
    return result, _ACTIVE.records()


def _count_members(counts_, _token, _args, _kwargs, nb):
    counts_["neighborhoods.members"] += int(nb.members.size)


def _count_kind(variable):
    def hook(counts_, _token, _args, _kwargs, model):
        counts_[f"{variable}.{model.kind}"] += 1
    return hook


def _cache_size(args, kwargs):
    cache = kwargs.get("cache", args[5] if len(args) > 5 else None)
    return cache, 0 if cache is None else len(cache)


def _count_lookups(counts_, token, args, kwargs, _result):
    # one fit-cache lookup per CV pair; a miss adds exactly one entry
    cache, size_before = token
    plan = args[2] if len(args) > 2 else kwargs["plan"]
    counts_["tuning.fit_lookups"] += len(plan.pairs)
    if cache is not None:
        counts_["tuning.fit_misses"] += len(cache) - size_before


def _count_overrides(counts_, _token, _args, _kwargs, resolved):
    counts_["rules.overrides"] += len(resolved)


def _count_bytes(counts_, _token, args, kwargs, _result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts_["pipeline.csv_bytes"] += os.path.getsize(path)


RULES = ("anomalous_rows", "calibrate_water_cut", "deduce_from_pair",
         "deduce_from_water", "saturation_flags", "resolve_forced",
         "apply_overrides")
WRITERS = ("write_prediction_csv", "write_diagnostics_csv",
           "write_tuning_csv", "write_score_csv")


def _targets():
    """(owner, attribute, span name, hooks) for every traced call."""
    out = [
        (pipeline, "ingest", "pipeline.ingest", {}),
        (neighborhoods, "haversine_km", "neighborhoods.haversine_km", {}),
        (tuning, "haversine_km", "tuning.haversine_km", {}),
        (pipeline, "select_parameters", "pipeline.select_parameters", {}),
        (tuning, "build_cv_plan", "tuning.build_cv_plan", {}),
        (tuning, "cv_score", "tuning.cv_score",
         {"before": _cache_size, "after": _count_lookups}),
        (pipeline, "predict_tables", "pipeline.predict_tables", {}),
        (pipeline, "score_tables", "pipeline.score_tables", {}),
        (counts.CountModel, "cdf", "counts.CountModel.cdf", {}),
        (burnt_area.BaMixture, "cdf", "burnt_area.BaMixture.cdf", {}),
        (burnt_area, "fit_gpd", "burnt_area.fit_gpd", {}),
    ]
    for caller in (pipeline, tuning):
        mod = caller.__name__.rsplit(".", 1)[1]
        out += [
            (caller, "build_neighborhood", f"{mod}.build_neighborhood",
             {"after": _count_members}),
            (caller, "fit_zinb", f"{mod}.fit_zinb", {"after": _count_kind("cnt")}),
            (caller, "fit_mixture", f"{mod}.fit_mixture",
             {"after": _count_kind("ba")}),
            (caller, "score_one", f"{mod}.score_one", {}),
        ]
    for attr in RULES:
        hooks = {"after": _count_overrides} if attr == "resolve_forced" else {}
        out.append((pipeline, attr, f"pipeline.{attr}", hooks))
    for attr in WRITERS:
        out.append((pipeline, attr, f"pipeline.{attr}", {"after": _count_bytes}))
    return out


def layer_metrics(t: Tracer, rows: int, dataset_bytes: int) -> dict:
    """The per-layer metrics of one traced run, by module. Times are
    span durations summed over calls; with a worker pool they add up
    the workers' busy time and can exceed the wall time."""
    c = t.counts
    queries = t.calls("pipeline.build_neighborhood", "tuning.build_neighborhood")
    zinb = t.calls("pipeline.fit_zinb", "tuning.fit_zinb")
    mixture = t.calls("pipeline.fit_mixture", "tuning.fit_mixture")
    lookups = c["tuning.fit_lookups"]
    cv_evals = t.calls("tuning.score_one")
    ingest_s = t.seconds("pipeline.ingest")
    select_s = t.seconds("pipeline.select_parameters")

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "data.ingest_s": ingest_s,
        "data.ingest_us_per_row": 1e6 * ingest_s / rows,
        "data.dataset_pickle_mb": dataset_bytes / 1e6,
        "geo.haversine_calls": t.calls("neighborhoods.haversine_km",
                                       "tuning.haversine_km"),
        "geo.haversine_s": t.seconds("neighborhoods.haversine_km",
                                     "tuning.haversine_km"),
        "neighborhoods.queries": queries,
        "neighborhoods.query_s": t.seconds("pipeline.build_neighborhood",
                                           "tuning.build_neighborhood"),
        "neighborhoods.mean_members": ratio(c["neighborhoods.members"], queries),
        "counts.fit_zinb_calls": zinb,
        "counts.fit_zinb_s": t.seconds("pipeline.fit_zinb", "tuning.fit_zinb"),
        "counts.parametric_ratio": ratio(c["cnt.zinb"], zinb),
        "counts.cdf_s": t.seconds("counts.CountModel.cdf"),
        "burnt_area.fit_mixture_calls": mixture,
        "burnt_area.fit_mixture_s": t.seconds("pipeline.fit_mixture",
                                              "tuning.fit_mixture"),
        "burnt_area.fit_gpd_calls": t.calls("burnt_area.fit_gpd"),
        "burnt_area.fit_gpd_s": t.seconds("burnt_area.fit_gpd"),
        "burnt_area.gpd_failures": c["burnt_area.fit_gpd.raised"],
        "burnt_area.tail_ratio": ratio(c["ba.mixture"], mixture),
        "burnt_area.cdf_s": t.seconds("burnt_area.BaMixture.cdf"),
        "tuning.select_parameters_s": select_s,
        "tuning.cv_plan_s": t.seconds("tuning.build_cv_plan"),
        "tuning.cv_score_calls": t.calls("tuning.cv_score"),
        "tuning.cv_evals": cv_evals,
        "tuning.fit_lookups": lookups,
        "tuning.cache_hit_ratio": ratio(lookups - c["tuning.fit_misses"], lookups),
        "tuning.cv_evals_per_s": ratio(cv_evals, select_s),
        "scoring.score_one_calls": t.calls("pipeline.score_one", "tuning.score_one"),
        "scoring.score_one_s": t.seconds("pipeline.score_one", "tuning.score_one"),
        "rules.rules_s": t.seconds(*(f"pipeline.{a}" for a in RULES)),
        "rules.overrides": c["rules.overrides"],
        "pipeline.predict_tables_s": t.seconds("pipeline.predict_tables"),
        "pipeline.score_tables_s": t.seconds("pipeline.score_tables"),
        "pipeline.write_s": t.seconds(*(f"pipeline.{a}" for a in WRITERS)),
        "pipeline.csv_mb_written": c["pipeline.csv_bytes"] / 1e6,
        "pipeline.pool_payload_mb": c["pool.payload_bytes"] / 1e6,
    }
