"""End-to-end benchmark of the ``repro`` user commands.

Usage::

    python3 perfbench/run.py --workload {campaign,ecc,serve} --seed N \
        --seconds S --trace {0,1} [--results FILE]

Runs whole rounds of the workload's operations until ``--seconds`` have
passed (at least one round), checks every output, and prints one JSON
object as its last line: ``correct``, ``attempted``, ``failed`` and the
metrics — the end-to-end ones with ``--trace 0``, the per-layer split
with ``--trace 1``.  Every run also appends its record to the results
file (default ``.perfbench/results.jsonl``), which ``compare.py`` reads.
See README.md for the workloads, the metrics and the noise controls.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import serveload  # noqa: E402
from common import (  # noqa: E402
    ROOT,
    WORK,
    child_env,
    fresh_dir,
    median,
    repro_argv,
    require_source,
    run_child,
    source_digest,
    steal_s,
    tail,
)

#: fresh ``repro --version`` starts (or daemon starts) per run for setup_s
SETUP_STARTS = 3
CAMPAIGN_EVENTS = "100000"
TRACED = [sys.executable, str(Path(__file__).resolve().parent / "traced.py")]

END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "latency_p50_s",
              "latency_tail_s")
UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
         "latency_p50_s": "s", "latency_tail_s": "s"}
#: per-layer metric -> unit; every workload reports all of them (an idle
#: layer reads zero)
PER_LAYER = {
    "cli.import_s": "s", "cli.modules_loaded": "count",
    "beam.run_s": "s", "beam.filter_s": "s", "beam.engine_s": "s",
    "beam.synthesize_s": "s", "beam.scan_s": "s", "beam.postprocess_s": "s",
    "beam.materialize_s": "s", "beam.table1_s": "s",
    "beam.classify_calls": "count", "beam.events_per_s": "1/s",
    "stats.fold_s": "s",
    "errormodel.evaluate_s": "s", "errormodel.sample_s": "s",
    "core.decode_s": "s", "core.decode_words": "count",
    "hardware.table3_s": "s", "hardware.expansion_s": "s",
    "analysis.report_table1_s": "s",
    "runs.session_s": "s", "runs.cell_lookup_s": "s",
    "runs.cell_record_s": "s", "runs.cell_hits": "count",
    "runs.cell_misses": "count", "runs.campaign_save_s": "s",
    "runs.fsyncs": "count",
    "serve.ack_s": "s", "serve.queue_wait_s": "s", "serve.run_s": "s",
    "serve.notify_s": "s", "serve.deduped": "count",
    "serve.precached": "count", "serve.journal_appends": "count",
    "untraced.campaign_s": "s", "untraced.fig8_s": "s",
    "untraced.rank_s": "s", "untraced.report_s": "s",
    "untraced.serve_s": "s",
    "trace.overhead_s": "s", "trace.overhead_pct": "%",
}


@dataclass
class Round:
    """What one round of operations cost and whether it was right."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    latencies: list
    attempted: int
    failed: int
    problems: list = field(default_factory=list)


@dataclass
class Context:
    seed: int
    work: Path
    problems: list = field(default_factory=list)

    def out_dir(self, name: str) -> Path:
        return fresh_dir(self.work / name)


def warm_up() -> None:
    """Untimed: compile the program's bytecode before anything is timed."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/repro"],
                   cwd=ROOT, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL)


def cli_setup(ctx: Context) -> float:
    """Median seconds of a fresh ``repro --version`` process."""
    walls = []
    for start in range(SETUP_STARTS):
        child = run_child(repro_argv("--version"), ctx.work, f"setup{start}")
        if child.returncode != 0:
            ctx.problems.append(f"repro --version exited {child.returncode}")
        walls.append(child.wall_s)
    return median(walls)


def _cli_round(ctx: Context, index: int, commands, check,
               traced: bool = False) -> tuple[Round, list]:
    """Run each command in a fresh process with its own empty store."""
    out = ctx.out_dir(f"round{index}{'-traced' if traced else ''}")
    children, layers, problems, failed = [], [], [], 0
    for name, argv in commands:
        store = out / f"store-{name}"
        args = [*argv, "--runs-dir", str(store)]
        if traced:
            trace_file = out / f"{name}.trace.json"
            full = [*TRACED, str(trace_file), "--", *args]
        else:
            full = repro_argv(*args)
        child = run_child(full, out, name, env=child_env(store))
        children.append(child)
        if child.returncode != 0:
            failed += 1
            problems.append(f"{name} exited {child.returncode}: "
                            f"{child.stderr.strip()[-300:]}")
            continue
        problems += [f"{name}: {p}" for p in check(name, child.stdout)]
        if traced:
            layers.append((name, json.loads(trace_file.read_text())))
    return Round(
        wall_s=sum(c.wall_s for c in children),
        cpu_s=sum(c.cpu_s for c in children),
        peak_rss_mb=max(c.peak_rss_mb for c in children),
        latencies=[c.wall_s for c in children],
        attempted=len(children), failed=failed, problems=problems,
    ), layers


# -- workloads ----------------------------------------------------------------

class CliWorkload:
    """Rounds of CLI commands, each in a fresh process on an empty store."""

    peak_rss_mb = 0.0  # the rounds carry their own peaks

    def __init__(self, ctx: Context, commands: list) -> None:
        self.ctx = ctx
        self.commands = commands

    def setup(self) -> float:
        return cli_setup(self.ctx)

    def check(self, name: str, stdout: str) -> list:
        raise NotImplementedError

    def round(self, index: int, traced: bool = False):
        return _cli_round(self.ctx, index, self.commands, self.check, traced)

    def client_layers(self) -> dict:
        return {}

    def finish(self) -> None:
        pass


class CampaignWorkload(CliWorkload):
    """One ``repro campaign --events 100000`` at CLI defaults per round.

    The campaign keeps its default seed: the statistics campaign draws
    heavy-tailed event sizes, so its work follows the seed (467k records
    at seed 14, 507k at seed 13; 829-1161 MB peak RSS over 40 seeds), and
    a varied seed would make the figures measure the seed, not the code.
    """

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx, [("campaign", [
            "campaign", "--events", CAMPAIGN_EVENTS])])
        self.table1 = None

    def check(self, _name: str, stdout: str) -> list:
        problems = checks.check_campaign(stdout)
        block = checks.table1_block(stdout)
        if self.table1 is None:
            self.table1 = block
            problems += self._check_across_runs(block)
        elif block != self.table1:
            problems.append("Table 1 block differs between rounds")
        return problems

    def _check_across_runs(self, block: str) -> list:
        """Compare with the block an earlier run of this source recorded."""
        ledger = WORK / "table1" / f"{source_digest()}.txt"
        if ledger.exists():
            if ledger.read_text() != block:
                return ["Table 1 block differs from an earlier run's"]
            return []
        ledger.parent.mkdir(parents=True, exist_ok=True)
        tmp = ledger.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(block)
        os.replace(tmp, ledger)
        return []


class EccWorkload(CliWorkload):
    """``repro fig8``, ``rank`` and ``report`` at default samples.

    ``report`` runs ``REPORT_RUNS`` times, each on its own empty store:
    it is the round's median operation, and a single ~7 s process spread
    16-33% (IQR over median) across sets of ten runs on a shared host.
    It keeps its default seed, because its 4000-event scalar Table-1
    section costs 1.6 s at one seed and 3.2 s at another.
    """

    REPORT_RUNS = 2
    CHECKS = {"fig8": checks.check_fig8, "rank": checks.check_rank,
              "report": checks.check_report}

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx, [
            ("fig8", ["fig8", "--seed", str(ctx.seed)]),
            ("rank", ["rank", "--seed", str(ctx.seed)]),
        ] + [(f"report-{i}", ["report"]) for i in range(self.REPORT_RUNS)])

    def check(self, name: str, stdout: str) -> list:
        return self.CHECKS[name.split("-")[0]](stdout)


class ServeWorkload:
    """A closed-loop two-lane client against one ``repro serve`` daemon."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.loop = asyncio.new_event_loop()
        self.daemon = None
        self.store = ctx.work / "serve-store"
        self.rounds_ops: list = []
        self.records: dict = {}
        self.stats: dict = {}
        self.peak_rss_mb = 0.0

    def setup(self) -> float:
        """Median spawn-to-ready time; the last daemon started stays up."""
        walls = []
        for start in range(SETUP_STARTS):
            fresh_dir(self.store)
            # kept on self at once, so finish() stops it whatever fails
            self.daemon = serveload.Daemon(self.store, self.ctx.work,
                                           f"daemon{start}")
            walls.append(self.loop.run_until_complete(
                self.daemon.wait_ready()))
            if start < SETUP_STARTS - 1:
                self._stop(self.daemon)
                self.daemon = None
        return median(walls)

    def _stop(self, daemon) -> float:
        """Stop a daemon; returns its peak RSS in MB."""
        code, _, rss = daemon.stop()
        if code != 0:
            self.ctx.problems.append(f"serve daemon exited {code}")
        return rss

    def round(self, index: int, traced: bool = False):
        if not traced:
            result, ops, records = self._drive(self.daemon, index)
            _, self.stats = self.loop.run_until_complete(
                serveload.Client(self.daemon.host, self.daemon.port)
                .request("GET", "/v1/stats"))
            self.rounds_ops.append(ops)
            self.records.update(records)
            return result, []
        # the same round against a daemon running under the tracer
        store = fresh_dir(self.ctx.work / "serve-store-traced")
        trace_file = self.ctx.work / "serve.trace.json"
        daemon = serveload.Daemon(store, self.ctx.work, "daemon-traced",
                                  argv_prefix=[*TRACED, str(trace_file),
                                               "--"])
        try:
            self.loop.run_until_complete(daemon.wait_ready())
            result, _, records = self._drive(daemon, index)
        finally:
            code, _, _ = daemon.stop()
        if code != 0:
            result.problems.append(f"traced serve daemon exited {code}")
        layers = json.loads(trace_file.read_text())
        layers["jobs_run_s"] = sum(
            r["finished_at"] - r["started_at"] for r in records.values()
            if r.get("finished_at") and r.get("started_at"))
        return result, [("serve", layers)]

    def _drive(self, daemon, index: int):
        """One round of operations: (Round, ops, job records by id)."""
        client = serveload.Client(daemon.host, daemon.port)
        ops = serveload.round_ops(self.ctx.seed, index)
        cpu_before = daemon.cpu_s()
        wall = self.loop.run_until_complete(serveload.drive_round(client,
                                                                  ops))
        cpu = daemon.cpu_s() - cpu_before
        records = self.loop.run_until_complete(
            serveload.job_records(client, ops))
        failed, problems = self._check_ops(ops, records, client.statuses)
        return Round(wall_s=wall, cpu_s=cpu, peak_rss_mb=0.0,
                     latencies=[op.latency_s for op in ops
                                if op.latency_s is not None],
                     attempted=len(ops), failed=failed,
                     problems=problems), ops, records

    def _check_ops(self, ops, records, statuses) -> tuple[int, list]:
        failed, problems = 0, []
        for op in ops:
            record = records.get(op.job_id) or {}
            wrong = None
            if op.status is None or op.terminal != "completed" \
                    or record.get("state") != "completed":
                wrong = (f"{op.kind} {op.scheme} seed {op.seed}: status "
                         f"{op.status}, ended {op.terminal}")
            elif op.kind == "dup" and not (
                    op.status == 200 and op.body.get("deduped")
                    and op.job_id == op.target.job_id):
                wrong = f"duplicate of {op.target.job_id} was not deduped"
            elif op.kind == "resubmit" and not (
                    op.status == 201 and record.get("precached")):
                wrong = f"resubmission of {op.scheme} was not precached"
            elif op.kind == "fresh" and not (
                    op.status == 201 and not record.get("precached")):
                wrong = f"fresh job {op.scheme} was not computed"
            if wrong:
                failed += 1
                problems.append(wrong)
        bad = sorted({s for s in statuses if s == 429 or s >= 500})
        if bad:
            problems.append(f"daemon answered {bad}")
        return failed, problems

    def finish(self) -> None:
        """Stop the daemon, then check one job against a CLI run."""
        if self.daemon is not None:
            self.peak_rss_mb = self._stop(self.daemon)
            self.daemon = None
        self.loop.close()
        if not self.rounds_ops:
            return
        op = self.rounds_ops[0][0]
        report = (self.records.get(op.job_id, {}).get("result") or {}) \
            .get("report", "")
        store = self.ctx.work / "cli-check-store"
        child = run_child(
            repro_argv("evaluate", op.scheme, "--seed", str(op.seed),
                       "--runs-dir", str(store)),
            self.ctx.work, "cli-check", env=child_env(store))
        if checks.comparable_lines(child.stdout) != \
                checks.comparable_lines(report) or child.returncode != 0:
            self.ctx.problems.append(
                f"served report of {op.scheme} seed {op.seed} differs from "
                "the CLI's")

    def client_layers(self) -> dict:
        """Client-side split: p50 across jobs, plus daemon counters."""
        ops = [op for ops in self.rounds_ops for op in ops]
        first = [op for op in ops if op.kind != "dup"]

        def p50(values):
            values = [v for v in values if v is not None]
            return median(values) if values else 0.0

        def job(op, key):
            return (self.records.get(op.job_id) or {}).get(key)

        return {
            "serve.ack_s": p50(op.ack_s for op in ops),
            "serve.queue_wait_s": p50(
                job(op, "started_at") - job(op, "submitted_at")
                for op in first if job(op, "started_at")),
            "serve.run_s": p50(
                job(op, "finished_at") - job(op, "started_at")
                for op in first if job(op, "finished_at")),
            "serve.notify_s": p50(
                op.seen_at - job(op, "finished_at")
                for op in first if op.seen_at and job(op, "finished_at")),
            "serve.deduped": self.stats.get("deduped", 0),
            "serve.precached": sum(1 for op in first
                                   if job(op, "precached")),
            "serve.journal_appends": self.stats.get("journal", {})
            .get("appended", 0),
        }


WORKLOADS = {"campaign": CampaignWorkload, "ecc": EccWorkload,
             "serve": ServeWorkload}


def end_to_end(setup_s: float, rounds: list, peak_rss_mb: float) -> dict:
    """Per-round medians, so a run of more rounds reads the same."""
    tails = [tail(r.latencies) for r in rounds]
    return {
        "setup_s": setup_s,
        "wall_s": median(r.wall_s for r in rounds),
        "cpu_s": median(r.cpu_s for r in rounds),
        "peak_rss_mb": max([peak_rss_mb] + [r.peak_rss_mb for r in rounds]),
        "latency_p50_s": median(median(r.latencies) for r in rounds),
        # below TAIL_MIN_SAMPLES operations a round has no tail: report its
        # slowest operation instead (README, "Metrics")
        "latency_tail_s": median(
            t if t is not None else max(r.latencies)
            for t, r in zip(tails, rounds)),
    }


def per_layer(import_probes: list, untraced: Round, traced: Round,
              layers: list, client: dict) -> dict:
    """Sum the traced commands' layers into the flat per-layer metrics."""
    metrics = {name: 0 if unit == "count" else 0.0
               for name, unit in PER_LAYER.items()}
    metrics["cli.import_s"] = median(p["import_s"] for p in import_probes)
    metrics["cli.modules_loaded"] = median(p["modules"]
                                           for p in import_probes)
    engine_events = 0
    for command, trace in layers:
        for name, value in trace["seconds"].items():
            metrics[name] = metrics.get(name, 0.0) + value
        for name, value in trace["counts"].items():
            metrics[name] = metrics.get(name, 0.0) + value
        for stage, value in trace["stages"].items():
            key = f"beam.{stage}_s"
            if key in metrics:
                metrics[key] += value
        engine_events += trace["engine_events"]
        busy = trace.get("jobs_run_s", trace["wall_s"])
        # repeated commands (report-0, report-1, ...) sum into one metric
        key = f"untraced.{command.split('-')[0]}_s"
        metrics[key] += busy - trace["top_s"]
    if metrics["beam.engine_s"] > 0:
        metrics["beam.events_per_s"] = engine_events / metrics["beam.engine_s"]
    metrics.update(client)
    metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_s"] \
        / untraced.wall_s
    return {name: metrics[name] for name in PER_LAYER}


def import_probe(ctx: Context, index: int) -> dict:
    child = run_child([*TRACED, "--import-probe"], ctx.work,
                      f"import{index}")
    if child.returncode != 0:
        ctx.problems.append(f"import probe exited {child.returncode}")
        return {"import_s": child.wall_s, "modules": 0}
    return json.loads(child.stdout.splitlines()[-1])


def fingerprint() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = done.stdout.strip() or sha
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "git_sha": sha, "source": source_digest()}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    ctx = Context(seed=seed, work=fresh_dir(WORK / f"run-{os.getpid()}"))
    workload = WORKLOADS[workload_name](ctx)
    rounds: list[Round] = []
    steal_before = steal_s()
    try:
        warm_up()
        probes = [import_probe(ctx, i) for i in range(SETUP_STARTS)] \
            if trace else []
        setup_s = workload.setup()
        started = time.perf_counter()
        while True:
            rounds.append(workload.round(len(rounds))[0])
            if trace or time.perf_counter() - started >= seconds:
                break
        traced_round, layers = (workload.round(0, traced=True) if trace
                                else (None, []))
        client = workload.client_layers()
    finally:
        workload.finish()
        shutil.rmtree(ctx.work, ignore_errors=True)
    for r in rounds + ([traced_round] if trace else []):
        ctx.problems += r.problems
    record = {
        "workload": workload_name, "seed": seed, "trace": int(trace),
        "rounds": len(rounds),
        "correct": not ctx.problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "end_to_end": end_to_end(setup_s, rounds, workload.peak_rss_mb),
        "per_layer": (per_layer(probes, rounds[0], traced_round, layers,
                                client) if trace else {}),
        "problems": ctx.problems,
        "steal_s": steal_s() - steal_before,
        "fingerprint": fingerprint(),
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed (the program's seeds must not "
                             "be negative, so it is taken modulo 2**32)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(WORK / "results.jsonl"),
                        help="JSON-lines file every run appends its record to")
    args = parser.parse_args(argv)
    require_source()
    record = run(args.workload, args.seed % 2**32, args.seconds,
                 bool(args.trace))
    results = Path(args.results)
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "a") as handle:
        handle.write(json.dumps(record) + "\n")
    for problem in record["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                   for name, value in record["per_layer"].items()}
    else:
        metrics = {name: {"value": record["end_to_end"][name],
                          "unit": UNITS[name]} for name in END_TO_END}
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
