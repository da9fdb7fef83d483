"""Run one ``repro`` command with timers around each layer's public calls.

Usage::

    python3 perfbench/traced.py OUT.json -- <repro arguments>
    python3 perfbench/traced.py --import-probe

The first form wraps the functions listed in :data:`LAYERS` at every
module attribute that holds them (so both ``module.f`` and ``from module
import f`` callers see the wrapper), then calls ``repro.cli.main`` with
the arguments, and writes the per-layer times and counts to ``OUT.json``.
The split therefore follows whatever the command calls, also after the
program changes; a target that no longer exists is skipped and its layer
reads zero.

A layer's time counts each outermost call only (a layer nested in itself
is not counted twice).  ``top_s`` sums the calls made while no other
traced call was active on the same thread, which is what ``untraced_s``
(wall time minus ``top_s``) is measured against.

``--import-probe`` prints the seconds and the number of modules that a
fresh ``import repro.cli`` costs, as one JSON object.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time

#: metric -> (module, attribute path) pairs of the calls it times
LAYERS = {
    "beam.run_s": [("repro.beam.campaign", "BeamCampaign.run")],
    "beam.filter_s": [("repro.beam.postprocess", "filter_intermittent"),
                      ("repro.beam.postprocess", "group_events")],
    "beam.engine_s": [("repro.beam.engine", "run_statistics_campaign")],
    "beam.materialize_s": [("repro.beam.engine",
                            "StatisticsResult.observed_events")],
    "beam.table1_s": [("repro.beam.postprocess", "derive_table1"),
                      ("repro.beam.postprocess", "breadth_class_fractions")],
    "stats.fold_s": [
        ("repro.stats.accumulators", "CampaignAccumulator.update_from_events"),
        ("repro.stats.accumulators", "CampaignAccumulator.merge"),
        ("repro.stats.accumulators", "CampaignAccumulator.finalize"),
    ],
    "errormodel.evaluate_s": [("repro.errormodel.montecarlo",
                               "evaluate_scheme")],
    "errormodel.sample_s": [
        ("repro.errormodel.sampling", name) for name in (
            "enumerate_bit_errors_packed", "enumerate_pin_errors_packed",
            "enumerate_byte_errors_packed",
            "enumerate_double_bit_errors_packed",
            "sample_triple_bit_errors_packed", "sample_beat_errors_packed",
            "sample_entry_errors_packed")
    ],
    "hardware.table3_s": [("repro.hardware.synth", "table3_rows")],
    "hardware.expansion_s": [("repro.hardware.expansion", "expansion_rows"),
                             ("repro.hardware.expansion", "scheme_hardware")],
    "analysis.report_table1_s": [("repro.analysis.report",
                                  "_section_table1")],
    "runs.session_s": [("repro.runs.session", "RunSession.begin"),
                       ("repro.runs.session", "RunSession.finish")],
    "runs.cell_lookup_s": [("repro.runs.session", "CellCache.lookup")],
    "runs.cell_record_s": [("repro.runs.session", "CellCache.record")],
    "runs.campaign_save_s": [("repro.runs.store", "RunStore.save_campaign")],
}
#: counted calls: metric -> (module, attribute path)
COUNTED = {
    "beam.classify_calls": ("repro.errormodel.classify", "classify_error"),
    "runs.fsyncs": ("os", "fsync"),
}
#: every scheme's batch decoders feed core.decode_s / core.decode_words
DECODERS = ("decode_batch_packed", "decode_batch_errors")
#: modules imported up front so their attributes can be rebound
PRELOAD = ("repro.cli", "repro.beam", "repro.errormodel", "repro.stats",
           "repro.core", "repro.core.registry", "repro.hardware.synth",
           "repro.hardware.expansion", "repro.analysis.report",
           "repro.analysis.ranking", "repro.runs", "repro.serve.runner",
           "repro.serve.server")


class Recorder:
    """Thread-safe per-layer totals with per-thread nesting."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.top_s = 0.0
        self.stages: dict[str, float] = {}
        self.engine_events = 0
        self._ticks: dict = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _active(self) -> list:
        active = getattr(self._local, "active", None)
        if active is None:
            active = self._local.active = []
        return active

    def timed(self, metric: str, func, on_result=None):
        recorder = self

        def wrapper(*args, **kwargs):
            active = recorder._active()
            if metric in active:
                return func(*args, **kwargs)
            top = not active
            active.append(metric)
            started = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                active.pop()
                with recorder._lock:
                    recorder.seconds[metric] = \
                        recorder.seconds.get(metric, 0.0) + elapsed
                    if top:
                        recorder.top_s += elapsed
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def counted(self, metric: str, func):
        """Count calls with an ``itertools.count`` (cheap, thread-safe)."""
        ticks = self._ticks.setdefault(metric, itertools.count())

        def wrapper(*args, **kwargs):
            next(ticks)
            return func(*args, **kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    def add_count(self, metric: str, step: int) -> None:
        with self._lock:
            self.counts[metric] = self.counts.get(metric, 0) + step

    def all_counts(self) -> dict:
        """Summed counts; call at the end (it advances the call counters)."""
        counts = dict(self.counts)
        for metric, ticks in self._ticks.items():
            counts[metric] = counts.get(metric, 0) + next(ticks)
        return counts


def _rebind_everywhere(original, replacement) -> None:
    """Point every loaded ``repro`` module attribute holding ``original``
    at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) \
                or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_target(module_name: str, path: str, make) -> bool:
    """Wrap ``module.path`` with ``make(func)``; False when it is absent."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    if owner is None:
        return False
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        elif isinstance(raw, property):
            setattr(owner, attr, property(make(raw.fget), raw.fset,
                                          raw.fdel, raw.__doc__))
        elif callable(raw):
            setattr(owner, attr, make(raw))
        else:
            return False
        return True
    original = getattr(owner, attr, None)
    if not callable(original):
        return False
    replacement = make(original)
    if owner is os:
        setattr(os, attr, replacement)
    else:
        _rebind_everywhere(original, replacement)
    return True


def _scheme_classes() -> list[type]:
    from repro.core.scheme import ECCScheme

    found, pending = [], [ECCScheme]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def install(recorder: Recorder) -> list[str]:
    """Wrap every layer target; returns the targets that were not found."""
    for name in PRELOAD:
        try:
            importlib.import_module(name)
        except ImportError:
            pass
    missing = []

    def engine_result(_args, result) -> None:
        stages = getattr(result, "stage_seconds", None) or {}
        with recorder._lock:
            for stage, seconds in stages.items():
                recorder.stages[stage] = \
                    recorder.stages.get(stage, 0.0) + seconds
            recorder.engine_events += getattr(result, "n_events", 0)

    def lookup_result(_args, result) -> None:
        recorder.add_count("runs.cell_hits" if result is not None
                           else "runs.cell_misses", 1)

    hooks = {"beam.engine_s": engine_result,
             "runs.cell_lookup_s": lookup_result}
    for metric, targets in LAYERS.items():
        for module_name, path in targets:
            def make(func, metric=metric):
                return recorder.timed(metric, func, hooks.get(metric))

            if not _wrap_target(module_name, path, make):
                missing.append(f"{module_name}:{path}")
    for metric, (module_name, path) in COUNTED.items():
        if not _wrap_target(module_name, path,
                            lambda func, m=metric: recorder.counted(m, func)):
            missing.append(f"{module_name}:{path}")

    def words(args, _result) -> None:
        recorder.add_count("core.decode_words", len(args[1]))

    for cls in _scheme_classes():
        for attr in DECODERS:
            raw = cls.__dict__.get(attr)
            if callable(raw):
                setattr(cls, attr, recorder.timed("core.decode_s", raw,
                                                  on_result=words))
    return missing


def _import_probe() -> None:
    before = len(sys.modules)
    started = time.perf_counter()
    import repro.cli  # noqa: F401

    elapsed = time.perf_counter() - started
    print(json.dumps({"import_s": elapsed,
                      "modules": len(sys.modules) - before}))


def main(argv: list[str]) -> int:
    if argv == ["--import-probe"]:
        _import_probe()
        return 0
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, command = argv[0], argv[2:]
    recorder = Recorder()
    missing = install(recorder)
    from repro.cli import main as repro_main

    started = time.perf_counter()
    try:
        code = repro_main(command)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    wall = time.perf_counter() - started
    with open(out_path, "w") as handle:
        json.dump({"wall_s": wall, "top_s": recorder.top_s,
                   "seconds": recorder.seconds,
                   "counts": recorder.all_counts(),
                   "stages": recorder.stages,
                   "engine_events": recorder.engine_events,
                   "missing": missing, "exit": code}, handle)
    return code or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
