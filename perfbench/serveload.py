"""The ``serve`` workload: a closed-loop client against ``repro serve``.

One daemon (``--slots 1``) per run.  A single-threaded asyncio client
keeps two jobs outstanding: two lanes take the next operation from one
fixed list, and a lane sends its next request only when its previous
one has ended.  So every job but the first waits in the queue behind the
other lane's job.  Completion is observed on each job's SSE stream.

The operation list repeats one block of twelve (:data:`BLOCK`):

* ``F`` — a fresh ``evaluate`` job at default samples.  Fresh jobs cycle
  the nine paper organisations with distinct seeds, so each computes new
  sampled cells and writes them to the run store;
* ``FD`` — a fresh job followed at once by a duplicate submission, which
  attaches to the queued original (200, ``deduped``);
* ``R`` — a resubmission of a finished fresh job, which the daemon flags
  ``precached`` and answers from the store.

Per block: ten fresh jobs, one duplicate and one resubmission, so a
sixth of the operations read the store or attach instead of computing.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import ROOT, child_env, reap, repro_argv

#: the nine paper organisations (Figure 8), in registry order
ORGANISATIONS = ("ni-secded", "i-secded", "duet", "ni-sec2bec", "i-sec2bec",
                 "trio", "i-ssc", "i-ssc-csc", "ssc-dsd+")
BLOCK = ("F", "F", "FD", "F", "F", "F", "F", "R", "F", "F", "F")
#: blocks per round: 4 x 12 = 48 operations, enough for a tail percentile
BLOCKS_PER_ROUND = 4
#: how far back a resubmission reaches among the round's fresh jobs
RESUBMIT_LAG = 4
TERMINAL = ("completed", "failed", "cancelled")


def job_seed(seed: int, round_index: int, fresh_index: int) -> int:
    """Seed of one fresh job: distinct per workload seed, round and job."""
    return seed * 100_000 + round_index * 1_000 + fresh_index


@dataclass
class Op:
    """One client operation and what the client saw of it."""

    kind: str                    # fresh | dup | resubmit
    scheme: str
    seed: int
    target: "Op | None" = None   # the fresh op a dup/resubmit repeats
    status: int | None = None
    body: dict = field(default_factory=dict)
    job_id: str | None = None
    ack_s: float | None = None
    latency_s: float | None = None
    seen_at: float | None = None      # wall clock when the end was seen
    terminal: str | None = None
    done: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def params(self) -> dict:
        return {"scheme": self.scheme, "seed": self.seed}


def round_ops(seed: int, round_index: int) -> list[Op]:
    """The fixed operation list of one round."""
    ops: list[Op] = []
    fresh: list[Op] = []

    def new_fresh() -> Op:
        index = len(fresh)
        op = Op("fresh", ORGANISATIONS[index % len(ORGANISATIONS)],
                job_seed(seed, round_index, index))
        fresh.append(op)
        return op

    for _ in range(BLOCKS_PER_ROUND):
        for step in BLOCK:
            if step == "F":
                ops.append(new_fresh())
            elif step == "FD":
                original = new_fresh()
                ops.append(original)
                ops.append(Op("dup", original.scheme, original.seed,
                              target=original))
            else:
                target = fresh[-RESUBMIT_LAG]
                ops.append(Op("resubmit", target.scheme, target.seed,
                              target=target))
    return ops


class Client:
    """Minimal HTTP/1.1 client (one request per connection, as served)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.statuses: list[int] = []

    async def request(self, method: str, path: str,
                      payload: dict | None = None) -> tuple[int, dict]:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            body = b"" if payload is None else json.dumps(payload).encode()
            writer.write(
                f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
                .encode() + body)
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()
        head, _, content = raw.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        self.statuses.append(status)
        return status, json.loads(content or b"{}")

    async def wait_terminal(self, job_id: str) -> tuple[str, dict]:
        """Read the job's SSE stream until its terminal event."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            writer.write(f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
                         f"Host: {self.host}\r\nConnection: close\r\n\r\n"
                         .encode())
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            status = int(head.split(b" ", 2)[1])
            self.statuses.append(status)
            event = None
            while True:
                line = await reader.readline()
                if not line:
                    return "eof", {}
                line = line.rstrip(b"\n")
                if line.startswith(b"event: "):
                    event = line[len(b"event: "):].decode()
                elif line.startswith(b"data: ") and event in TERMINAL:
                    return event, json.loads(line[len(b"data: "):])
        finally:
            writer.close()
            await writer.wait_closed()


async def _run_op(client: Client, op: Op) -> None:
    try:
        if op.kind == "resubmit":
            await op.target.done.wait()
        started = time.perf_counter()
        op.status, op.body = await client.request(
            "POST", "/v1/jobs",
            {"kind": "evaluate", "params": op.params})
        op.ack_s = time.perf_counter() - started
        job = op.body.get("job") or {}
        op.job_id = job.get("job_id")
        if op.status in (200, 201) and op.job_id:
            op.terminal, _ = await client.wait_terminal(op.job_id)
            op.seen_at = time.time()
            op.latency_s = time.perf_counter() - started
    finally:
        op.done.set()


async def _lane(client: Client, ops: list[Op], cursor: list[int]) -> None:
    while cursor[0] < len(ops):
        op = ops[cursor[0]]
        cursor[0] += 1
        if op.kind == "fresh" and cursor[0] < len(ops) \
                and ops[cursor[0]].kind == "dup":
            # submit the duplicate right behind its original, while the
            # original is still queued behind the other lane's job
            dup = ops[cursor[0]]
            cursor[0] += 1
            first = asyncio.create_task(_run_op(client, op))
            while not op.done.is_set() and op.job_id is None:
                await asyncio.sleep(0.0005)
            await asyncio.gather(first, _run_op(client, dup))
        else:
            await _run_op(client, op)


async def drive_round(client: Client, ops: list[Op]) -> float:
    """Run one round with two lanes; returns its wall time."""
    cursor = [0]
    started = time.perf_counter()
    await asyncio.gather(_lane(client, ops, cursor),
                         _lane(client, ops, cursor))
    return time.perf_counter() - started


async def job_records(client: Client, ops: list[Op]) -> dict:
    """The daemon's record of every job the ops touched, by id."""
    records = {}
    for op in ops:
        if op.job_id and op.job_id not in records:
            status, body = await client.request("GET",
                                                f"/v1/jobs/{op.job_id}")
            if status == 200:
                records[op.job_id] = body.get("job") or {}
    return records


class Daemon:
    """One ``repro serve --slots 1`` process on a free port."""

    def __init__(self, runs_dir: Path, out_dir: Path, name: str,
                 argv_prefix: list | None = None) -> None:
        self.ready_file = out_dir / f"{name}.ready"
        self.ready_file.unlink(missing_ok=True)
        self.out = open(out_dir / f"{name}.out", "wb")
        argv = ["serve", "--port", "0", "--slots", "1",
                "--ready-file", str(self.ready_file),
                "--runs-dir", str(runs_dir)]
        full = (argv_prefix + argv) if argv_prefix else repro_argv(*argv)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(full, cwd=ROOT, env=child_env(runs_dir),
                                     stdout=self.out,
                                     stderr=subprocess.STDOUT)
        self.host = "127.0.0.1"
        self.port = 0

    async def wait_ready(self, timeout_s: float = 60.0) -> float:
        """Seconds from spawn until ``/v1/readyz`` answers 200."""
        deadline = self.started + timeout_s
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("serve daemon exited during start-up")
            if self.port == 0 and self.ready_file.exists():
                url = self.ready_file.read_text().strip()
                self.host, port = url.rsplit("//", 1)[1].rsplit(":", 1)
                self.port = int(port)
            if self.port:
                try:
                    status, _ = await Client(self.host, self.port).request(
                        "GET", "/v1/readyz")
                except OSError:
                    status = 0
                if status == 200:
                    return time.perf_counter() - self.started
            await asyncio.sleep(0.002)
        raise RuntimeError("serve daemon not ready in time")

    def cpu_s(self) -> float:
        """CPU seconds the live daemon has used so far (all threads)."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text() \
            .rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    def stop(self, timeout_s: float = 60.0) -> tuple[int, float, float]:
        """SIGTERM, then reap: (exit code, cpu s, peak RSS MB)."""
        if self.proc.returncode is not None:  # already reaped by poll()
            self.out.close()
            return self.proc.returncode, 0.0, 0.0
        self.proc.send_signal(signal.SIGTERM)
        killer = threading.Timer(timeout_s, self.proc.kill)
        killer.start()
        try:
            return reap(self.proc)
        finally:
            killer.cancel()
            self.out.close()
