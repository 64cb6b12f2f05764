"""The four workloads, each a closed loop driving the package's public API.

A workload has a set-up (timed several times by the runner), timed
passes, a finish step and output checks that run outside the timed
passes.  Each pass is one researcher session: a run step (a cold sweep,
a warm re-run or a batch of service jobs), then ``analyze`` and the full
``report`` over what the run step produced.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from perfbench.common import (
    Checker,
    Pass,
    Session,
    check_sweep_records,
    coverage,
    disseminated,
    kernel_layers,
    layer_table,
    make_spec,
    record_counts,
    recorder_layers,
    sub_seed,
)
from perfbench.spans import Recorder, install

#: The paper's unicast family, all against churn (ROADMAP item 1 shows here).
UNICAST_ALGORITHMS = ("single-source", "multi-source", "naive-unicast",
                      "one-shot-flooding", "oblivious")


@dataclass(frozen=True)
class Sizes:
    """Every size knob of the four workloads."""

    unicast_nodes: Tuple[int, ...]
    unicast_repetitions: int
    adaptive_nodes: int
    adaptive_repetitions: int
    flooding_nodes: Tuple[int, ...]
    spanning_tree_nodes: int
    flood_repetitions: int
    store_nodes: Tuple[int, ...]
    store_seeds: int
    store_repetitions: int
    service_jobs_per_client: int
    service_nodes: int
    service_repetitions: int


FULL = Sizes(
    unicast_nodes=(32, 48), unicast_repetitions=4,
    adaptive_nodes=16, adaptive_repetitions=2,
    flooding_nodes=(128, 160), spanning_tree_nodes=48, flood_repetitions=32,
    store_nodes=(8, 12, 16), store_seeds=30, store_repetitions=12,
    service_jobs_per_client=15, service_nodes=16, service_repetitions=8,
)

#: The smoke-test size: every code path, a few seconds per workload.
TINY = Sizes(
    unicast_nodes=(8,), unicast_repetitions=2,
    adaptive_nodes=8, adaptive_repetitions=2,
    flooding_nodes=(16,), spanning_tree_nodes=8, flood_repetitions=2,
    store_nodes=(8,), store_seeds=2, store_repetitions=3,
    service_jobs_per_client=2, service_nodes=8, service_repetitions=2,
)


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class StageCollector:
    """The ``Experiment.observe(timings=True)`` callback of a traced pass."""

    def __init__(self) -> None:
        self.stage_seconds: Dict[str, float] = {}
        self.batch_cells = 0

    def __call__(self, event: Any) -> None:
        from repro.obs import CellCompleted

        if isinstance(event, CellCompleted):
            for stage, seconds in (event.stage_seconds or {}).items():
                self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds
            self.batch_cells += event.backend == "batch"


class Workload:
    """Shared plumbing: a private work directory inside the checkout."""

    name = ""
    #: Peak resident memory of the processes doing the work.
    peak_rss_mb = 0.0

    def __init__(self, root: Path, seed: int, sizes: Sizes) -> None:
        self.root = root
        self.seed = seed
        self.sizes = sizes
        self.work = root / ".perfbench" / "work" / f"{self.name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def fresh_dir(self, label: str) -> Path:
        path = self.work / label
        shutil.rmtree(path, ignore_errors=True)
        return path

    def finish(self, passes: List[Pass]) -> None:
        """Runs after the last pass, before the checks."""

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _import_in_fresh_interpreter(root: Path) -> None:
    """What every ``repro`` command pays before it does any work."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, "-c", "import repro.cli, repro.backends, repro.batch"],
                   cwd=root, env=env, check=True, timeout=120)


#: Untraced passes repeat the quick, read-only analyze and report steps of
#: the sweeps and the service, so their medians rest on more samples.
READ_REPEATS = 3


def _last_repetition(record: Mapping[str, Any]) -> bool:
    """Whether ``record`` closes its scenario's group in a plan-order stream."""
    return record["repetition"] == record["spec"]["repetitions"] - 1


def _in_process_pass(experiment: Any, traced: bool, analyze: Callable[[], Any],
                     report: Callable[[], Any], repeats: int,
                     boundary: Callable[[Any], bool] = _last_repetition) -> Tuple:
    """Time the run step, then ``repeats`` analyze and report steps, under
    span recorders when ``traced``.  The run step streams its records and
    recalibrates after each ``boundary`` record.  Returns the session, the
    run set, its records, the last report document and the recorder and
    collector."""
    recorder = collector = installation = None
    if traced:
        recorder, collector = Recorder(), StageCollector()
        experiment = experiment.observe(collector, timings=True)
        installation = install(recorder)
    session = Session()
    runsets = []

    def stream() -> Iterator[Dict[str, Any]]:
        # Planning happens in run(), so it is part of the timed step.
        runsets.append(experiment.run())
        yield from runsets[0]

    try:
        records = session.stream("run", stream(), boundary)
        runset = runsets[0]
        for _ in range(repeats):
            session.step("analyze", analyze)
        for _ in range(repeats):
            document = session.step("report", report)
    finally:
        if installation is not None:
            installation.uninstall()
    return session, runset, records, document, recorder, collector


def _in_process_layers(recorder: Recorder, collector: StageCollector, session: Session,
                       executed: Sequence[Mapping[str, Any]], plan_cells: int,
                       cached_cells: int) -> Tuple[Dict, Dict]:
    layers = recorder_layers(recorder)
    layers.update(kernel_layers(collector.stage_seconds, recorder.seconds("api.execute_group"),
                                executed, collector.batch_cells))
    layers.update({
        "api.cached_ratio": cached_cells / plan_cells if plan_cells else 0.0,
        "service.queue_wait_s": 0.0, "service.cell_run_s": 0.0,
        "service.overhead_s": 0.0, "service.coalesced_cells": 0,
        "obs.coverage": coverage(recorder.spans, session.windows),
    })
    table = layer_table(recorder.spans, session.windows, collector.stage_seconds,
                        "api.execute_group")
    return layers, table


# -- cold sweeps --------------------------------------------------------------


class SweepWorkload(Workload):
    """One in-process caller runs ``Experiment.run()`` cold into a fresh
    store, then analyzes and reports the store by shard scan."""

    def specs(self) -> List[Any]:
        raise NotImplementedError

    def setup(self) -> None:
        from repro import Experiment

        _import_in_fresh_interpreter(self.root)
        self.grid = self.specs()
        # Warm lazy imports and registries with one tiny cell per algorithm.
        warm = [make_spec(spec.algorithm, 8, 2, spec.seed + 1, spec.adversary)
                for spec in self.grid]
        Experiment.from_specs(warm).store(self.fresh_dir("warm")).run().records()
        self.first_records: Optional[List[Dict[str, Any]]] = None
        self.report_ok = True
        self.pass_records_equal: List[bool] = []

    def run_pass(self, index: int, traced: bool) -> Pass:
        from repro import Experiment, load_runs

        store = str(self.fresh_dir(f"pass{index}"))
        session, runset, records, document, recorder, collector = _in_process_pass(
            Experiment.from_specs(self.grid).store(store), traced,
            lambda: load_runs(store).aggregate().table(),
            lambda: load_runs(store).report(),
            1 if traced else READ_REPEATS)
        counts = {"cells": len(records), "executed": runset.executed_count,
                  **record_counts(records)}
        if self.first_records is None:
            self.first_records = records
        else:
            self.pass_records_equal.append(records == self.first_records)
        self.report_ok &= f"records: **{len(records)}**" in document
        shutil.rmtree(store, ignore_errors=True)
        result = Pass(traced=traced, session=session, cells=len(records),
                      jobs=session.reference("run"), counts=counts)
        if traced:
            result.layers, result.table = _in_process_layers(
                recorder, collector, session, records, len(records), 0)
            result.spans = {"in_process": recorder.spans}
            result.counts["bootstrap_draws"] = recorder.total("bootstrap_draws")
        self.peak_rss_mb = own_peak_rss_mb()
        return result

    def check(self, checker: Checker) -> None:
        check_sweep_records(checker, sum(spec.repetitions for spec in self.grid),
                            self.first_records or [])
        checker.expect(self.report_ok, "a report does not list every record")
        for equal in self.pass_records_equal:
            checker.expect(equal, "a later pass produced different records (determinism)")


class UnicastSweep(SweepWorkload):
    """Unicast family against churn, plus one adaptive cell on the
    reference engine (adaptive adversaries cannot be vectorized)."""

    name = "unicast-sweep"

    def specs(self) -> List[Any]:
        sizes = self.sizes
        seed = sub_seed(self.seed, self.name)
        grid = [make_spec(algorithm, n, sizes.unicast_repetitions, seed)
                for n in sizes.unicast_nodes for algorithm in UNICAST_ALGORITHMS]
        grid.append(make_spec("single-source", sizes.adaptive_nodes,
                              sizes.adaptive_repetitions, seed, "adaptive-rewiring"))
        return grid


class FloodSweep(SweepWorkload):
    """Flooding with k = n and spanning-tree on a static random graph."""

    name = "flood-sweep"

    def specs(self) -> List[Any]:
        sizes = self.sizes
        seed = sub_seed(self.seed, self.name)
        grid = [make_spec("flooding", n, sizes.flood_repetitions, seed, "static-random")
                for n in sizes.flooding_nodes]
        grid.append(make_spec("spanning-tree", sizes.spanning_tree_nodes,
                              sizes.flood_repetitions, seed, "static-random"))
        return grid


# -- warm re-analysis -----------------------------------------------------------


#: Algorithms whose executed records seed the replicated store.
STORE_ALGORITHMS = (("single-source", "churn"), ("multi-source", "churn"),
                    ("one-shot-flooding", "churn"), ("flooding", "static-random"))

#: Distinct real repetitions executed per template before replication.
REAL_REPETITIONS = 8


class StoreReanalyze(Workload):
    """A warehouse-indexed store of replicated real records; each pass
    re-runs its grid plus a small delta, analyzes through the index and
    renders the full report."""

    name = "store-reanalyze"

    def setup(self) -> None:
        from repro import RunStore
        from repro.api import execute_group
        from repro.scenarios import repetition_seed
        from repro.warehouse import WarehouseIndex

        sizes = self.sizes
        path = self.fresh_dir("pristine")
        store = RunStore(str(path))
        self.grid = []
        copies = sub_seed(self.seed, self.name)
        for algorithm, adversary in STORE_ALGORITHMS:
            for n in sizes.store_nodes:
                template = make_spec(algorithm, n, REAL_REPETITIONS,
                                     sub_seed(self.seed, "template", algorithm, n), adversary)
                real = [record for record, _ in
                        execute_group(template, list(range(REAL_REPETITIONS)))]
                for copy in range(sizes.store_seeds):
                    spec = replace(template, seed=copies + copy,
                                   repetitions=sizes.store_repetitions)
                    batch = []
                    for repetition in range(spec.repetitions):
                        record = dict(real[repetition % REAL_REPETITIONS])
                        record.update(scenario=spec.label, spec=spec.to_dict(),
                                      repetition=repetition,
                                      seed=repetition_seed(spec, repetition))
                        batch.append(record)
                    store.add(batch, save_manifest=False)
                    self.grid.append(spec)
        store.flush()
        index = WarehouseIndex(str(path))
        try:
            index.sync()
            index.query().aggregate()  # an earlier analyze left the group cache warm
        finally:
            index.close()
        self.pristine = path
        self.records_total = len(self.grid) * sizes.store_repetitions
        # The delta: two scenarios grow by two repetitions, one is new.
        grown = {0, len(self.grid) // 2}
        self.rerun_grid = [replace(spec, repetitions=spec.repetitions + 2) if i in grown else spec
                           for i, spec in enumerate(self.grid)]
        self.rerun_grid.append(replace(self.grid[-1], seed=copies + sizes.store_seeds))
        self.delta_cells = 2 * len(grown) + sizes.store_repetitions
        self.last_store: Optional[Path] = None
        self.observed: List[Dict[str, Any]] = []

    def run_pass(self, index: int, traced: bool) -> Pass:
        from repro import Experiment, RunSet
        from repro.results.aggregate import aggregate_columns
        from repro.results.report import rows_to_table
        from repro.warehouse import WarehouseIndex

        store = self.fresh_dir(f"pass{index}")
        shutil.copytree(self.pristine, store)
        outputs: Dict[str, Any] = {}

        def analyze() -> str:
            warehouse = WarehouseIndex(str(store))
            try:
                outputs["analyze_sync"] = warehouse.sync()
                outputs["rows"] = warehouse.query().aggregate()
            finally:
                warehouse.close()
            return rows_to_table(outputs["rows"], aggregate_columns(), "md")

        def report() -> str:
            warehouse = WarehouseIndex(str(store))
            try:
                outputs["report_sync"] = warehouse.sync()
                records = warehouse.query().records()
            finally:
                warehouse.close()
            return RunSet.from_records(records).report()

        # Analyze runs once: a second call would find the folded delta cached.
        # The re-run is one piece: it resolves hundreds of small groups.
        session, runset, records, document, recorder, collector = _in_process_pass(
            Experiment.from_specs(self.rerun_grid).store(str(store)), traced, analyze, report, 1,
            boundary=lambda _: False)
        executed_count = runset.executed_count
        executed = self._fresh_records(records)
        counts = {
            "cells": len(records), "executed": executed_count,
            "shards_read": (outputs["analyze_sync"].shards_read
                            + outputs["report_sync"].shards_read),
            **record_counts(executed),
        }
        self.observed.append({
            "cells": len(records), "executed": executed_count,
            "fresh_completed": all(disseminated(record) for record in executed),
            "report_lists_all": (f"records: **{self.records_total + self.delta_cells}**"
                                 in document),
        })
        if self.last_store is not None:
            shutil.rmtree(self.last_store, ignore_errors=True)
        self.last_store, self.last_rows = store, outputs["rows"]
        result = Pass(traced=traced, session=session, cells=len(records),
                      jobs=session.reference("run"), counts=counts)
        if traced:
            result.layers, result.table = _in_process_layers(
                recorder, collector, session, executed, len(records),
                len(records) - executed_count)
            result.spans = {"in_process": recorder.spans}
            result.counts["bootstrap_draws"] = recorder.total("bootstrap_draws")
        self.peak_rss_mb = own_peak_rss_mb()
        return result

    def _fresh_records(self, records: Sequence[Mapping[str, Any]]) -> List[Mapping[str, Any]]:
        """The delta's records: repetitions beyond the replicated ones and
        every record of the new scenario."""
        known = {json.dumps(spec.to_dict(), sort_keys=True) for spec in self.grid}
        return [record for record in records
                if record["repetition"] >= self.sizes.store_repetitions
                or json.dumps(dict(record["spec"], repetitions=self.sizes.store_repetitions),
                              sort_keys=True) not in known]

    def check(self, checker: Checker) -> None:
        from repro import RunStore, aggregate

        plan_cells = sum(spec.repetitions for spec in self.rerun_grid)
        for observed in self.observed:
            checker.expect(observed["cells"] == plan_cells,
                           f"{observed['cells']} records for {plan_cells} plan cells")
            checker.expect(observed["executed"] == self.delta_cells,
                           f"re-run executed {observed['executed']} cells, "
                           f"expected the {self.delta_cells}-cell delta")
            checker.expect(observed["fresh_completed"], "a delta cell did not complete")
            checker.expect(observed["report_lists_all"], "the report does not list every record")
        scanned = aggregate(RunStore(str(self.last_store)).records())
        checker.expect(scanned == self.last_rows,
                       "indexed analyze rows differ from the shard-scan aggregate")


# -- the service -----------------------------------------------------------------


SERVICE_ALGORITHMS = (("single-source", "churn"), ("multi-source", "churn"),
                      ("naive-unicast", "churn"), ("one-shot-flooding", "churn"),
                      ("flooding", "static-random"), ("spanning-tree", "static-random"))

#: Worker processes of the daemon (the box has two cores).
SERVICE_WORKERS = 2

#: The clients pause together after this many jobs each, so the machine's
#: speed is calibrated again between rounds of a pass.
JOBS_PER_ROUND = 5


class Daemon:
    """One ``repro serve`` process started through ``perfbench/serve.py``."""

    def __init__(self, root: Path, work: Path, label: str, traced: bool) -> None:
        self.root = root
        self.traced = traced
        self.store = work / f"{label}-store"
        # A relative socket path keeps it under the UNIX socket length limit.
        self.socket = os.path.relpath(work / f"{label}.sock", root)
        self.spans_file = work / f"{label}-spans.json" if traced else None
        self.log = work / f"{label}.log"
        command = [sys.executable, str(root / "perfbench" / "serve.py")]
        if self.spans_file is not None:
            command += ["--spans", str(self.spans_file)]
        command += ["--", "serve", "--store", str(self.store), "--workers",
                    str(SERVICE_WORKERS), "--socket", self.socket]
        if traced:
            command.append("--timings")
        env = dict(os.environ, PYTHONPATH=str(root / "src") + os.pathsep + str(root))
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(command, cwd=root, env=env, stdout=log,
                                            stderr=subprocess.STDOUT)

    def wait_ready(self, timeout: float = 120.0) -> None:
        from repro.service import connect_with_retry

        deadline = time.monotonic() + timeout
        while b"listening on" not in self.log.read_bytes():
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"daemon did not start: {self.log.read_text()[-2000:]}")
            time.sleep(0.01)
        with connect_with_retry(socket_path=self.socket, deadline=timeout) as client:
            client.ping()

    def client(self) -> Any:
        from repro.service import ServiceClient

        return ServiceClient(socket_path=self.socket, timeout=120)

    def workers(self) -> List[int]:
        """Process ids of the daemon's worker processes."""
        pids = []
        for entry in Path("/proc").iterdir():
            if entry.name.isdigit():
                try:
                    fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
                except OSError:
                    continue
                if int(fields[1]) == self.process.pid:
                    pids.append(int(entry.name))
        return pids

    def peak_rss_mb(self) -> float:
        """VmHWM of the daemon plus its worker processes."""
        total_kb = 0
        for pid in [self.process.pid, *self.workers()]:
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        """Shut down through the protocol; a daemon that does not exit in
        time is killed together with its workers, which would outlive it."""
        if self.process.poll() is not None:
            return
        workers = self.workers()
        try:
            with self.client() as client:
                client.shutdown()
            self.process.wait(timeout=60)
        except Exception:  # noqa: BLE001 - a hung daemon must still be reaped
            self.process.kill()
            self.process.wait(timeout=60)
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


@dataclass
class JobOutcome:
    """One submitted job as its client saw it."""

    job: str
    cells: int
    cached: int
    latency_s: float
    ack_s: float
    completed_events: List[Any]
    error: Optional[str] = None


class ServiceJobs(Workload):
    """Two closed-loop clients submit small overlapping sweep jobs to
    ``repro serve``; each waits for its job to finish before the next."""

    name = "service-jobs"

    def __init__(self, root: Path, seed: int, sizes: Sizes) -> None:
        super().__init__(root, seed, sizes)
        self.daemon: Optional[Daemon] = None
        self.daemon_used = False
        self.daemons_started = 0
        self.daemon_spans: list = []
        self.report_ok = True
        self.pass_jobs: List[List[JobOutcome]] = []
        self.pass_records: List[List[List[Dict[str, Any]]]] = []
        self.pass_unique: List[List[Dict[str, Any]]] = []
        self.pass_status: List[List[Dict[str, Any]]] = []
        self.harness_spans: List[Optional[list]] = []

    def setup(self) -> None:
        """Start a daemon on a fresh store and let its workers warm up."""
        self._replace_daemon(traced=False)

    def _replace_daemon(self, traced: bool) -> None:
        """Stop the current daemon (keeping its spans) and start a fresh one."""
        self._retire_daemon()
        self.daemons_started += 1
        self.daemon = Daemon(self.root, self.work, f"daemon{self.daemons_started}", traced)
        self.daemon.wait_ready()
        self.daemon_used = False
        # One job of several groups, so every worker process finishes its
        # lazy imports before a timed pass (a long-running daemon pays them once).
        specs = [make_spec(algorithm, 8, 2, sub_seed(self.seed, "warm"), adversary)
                 for algorithm, adversary in SERVICE_ALGORITHMS]
        with self.daemon.client() as client:
            client.submit(specs, watch=True)
            for _ in client.events():
                pass

    def _retire_daemon(self) -> None:
        if self.daemon is None:
            return
        self.daemon.stop()
        if self.daemon.spans_file is not None:
            self.daemon_spans.extend(json.loads(self.daemon.spans_file.read_text()))
        self.daemon = None

    def job_specs(self, client: int, job: int) -> List[Any]:
        """A shared scenario both clients submit, plus a private one."""
        sizes = self.sizes
        shared = SERVICE_ALGORITHMS[job % len(SERVICE_ALGORITHMS)]
        private = SERVICE_ALGORITHMS[(job + client + 2) % len(SERVICE_ALGORITHMS)]
        seed = sub_seed(self.seed, self.name) + 3 * job
        return [
            make_spec(shared[0], sizes.service_nodes, sizes.service_repetitions, seed,
                      shared[1]),
            make_spec(private[0], sizes.service_nodes, sizes.service_repetitions,
                      seed + 1 + client, private[1]),
        ]

    def _client_loop(self, daemon: Daemon, client_index: int, jobs: range,
                     outcomes: List[JobOutcome]) -> None:
        from repro.obs import CellCompleted

        try:
            client = daemon.client()
        except OSError as error:
            outcomes.append(JobOutcome("", 0, 0, 0.0, 0.0, [], f"connect: {error}"))
            return
        with client:
            for job in jobs:
                specs = self.job_specs(client_index, job)
                sent = time.monotonic()
                try:
                    ack = client.submit(specs, watch=True)
                    acked = time.monotonic()
                    events = [event for event in client.events()
                              if isinstance(event, CellCompleted)]
                except Exception as error:  # noqa: BLE001 - counted as a failed job
                    outcomes.append(JobOutcome("", 0, 0, time.monotonic() - sent, 0.0, [],
                                               f"{type(error).__name__}: {error}"))
                    continue
                outcomes.append(JobOutcome(ack["job"], ack["cells"], ack["cached"],
                                           time.monotonic() - sent, acked - sent, events))

    def run_pass(self, index: int, traced: bool) -> Pass:
        from repro import RunSet

        # Every pass runs on a fresh daemon and store, like the sweeps'
        # fresh stores: a growing store would make later passes slower.
        if self.daemon is None or self.daemon_used or self.daemon.traced != traced:
            self._replace_daemon(traced)
        daemon = self.daemon
        self.daemon_used = True
        session = Session()

        def run_round(first: int) -> Callable[[], List[JobOutcome]]:
            def run_clients() -> List[JobOutcome]:
                outcomes: List[List[JobOutcome]] = [[], []]
                jobs = range(first, min(first + JOBS_PER_ROUND,
                                        self.sizes.service_jobs_per_client))
                threads = [threading.Thread(target=self._client_loop,
                                            args=(daemon, client, jobs, outcomes[client]))
                           for client in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                return outcomes[0] + outcomes[1]

            return run_clients

        rounds = session.stream(
            "run", [run_round(first) for first in
                    range(0, self.sizes.service_jobs_per_client, JOBS_PER_ROUND)],
            lambda _: True)
        jobs = [outcome for outcomes in rounds for outcome in outcomes]
        with daemon.client() as client:
            status = [client.status(outcome.job)[0] for outcome in jobs if outcome.job]
        outputs: Dict[str, Any] = {}

        def analyze() -> str:
            with daemon.client() as client:
                outputs["fetched"] = [client.results(outcome.job)
                                      for outcome in jobs if outcome.job]
            unique = {(json.dumps(record["spec"], sort_keys=True), record["repetition"]): record
                      for records in outputs["fetched"] for record in records}
            outputs["records"] = [unique[key] for key in sorted(unique)]
            return RunSet.from_records(outputs["records"]).aggregate().table()

        recorder = installation = None
        if traced:
            recorder = Recorder()
            installation = install(recorder)
        try:
            repeats = 1 if traced else READ_REPEATS
            for _ in range(repeats):
                session.step("analyze", analyze)
            for _ in range(repeats):
                document = session.step(
                    "report", lambda: RunSet.from_records(outputs["records"]).report())
        finally:
            if installation is not None:
                installation.uninstall()
        fetched = outputs["fetched"]
        self.pass_jobs.append(jobs)
        self.pass_records.append(fetched)
        self.pass_unique.append(outputs["records"])
        self.pass_status.append(status)
        self.harness_spans.append(recorder.spans if recorder is not None else None)
        self.report_ok &= f"records: **{len(outputs['records'])}**" in document
        executed = [record for records in fetched for record in records]
        counts = {
            "cells": sum(outcome.cells for outcome in jobs),
            "executed": sum(entry["executed"] for entry in status),
            "shared_cells": sum(entry["cells"] - entry["executed"] for entry in status),
            **record_counts(executed),
        }
        if not traced:
            self.peak_rss_mb = max(self.peak_rss_mb, daemon.peak_rss_mb())
        latencies = [outcome.latency_s * factor
                     for outcomes, (_, _, factor) in zip(rounds, session.pieces("run"))
                     for outcome in outcomes]
        return Pass(traced=traced, session=session, cells=counts["cells"], jobs=latencies,
                    counts=counts)

    def finish(self, passes: List[Pass]) -> None:
        """Stop the last daemon; traced daemons hand over their spans on exit."""
        self._retire_daemon()
        for index, result in enumerate(passes):
            if result.traced:
                self._service_layers(index, result, self.daemon_spans)

    def _service_layers(self, index: int, result: Pass, daemon_spans: list) -> None:
        windows = result.session.windows
        rounds = [(start, end) for start, end, _ in result.session.pieces("run")]
        jobs, status = self.pass_jobs[index], self.pass_status[index]
        kept = [position for position, span in enumerate(daemon_spans)
                if span[2] is not None
                and any(start <= span[1] and span[2] <= end for start, end in rounds)]
        renumbered = {old: new for new, old in enumerate(kept)}
        in_run = [[*daemon_spans[old][:3], renumbered.get(daemon_spans[old][3]),
                   daemon_spans[old][4]] for old in kept]
        harness = self.harness_spans[index] or []
        recorder = Recorder()
        recorder.spans = list(in_run)
        offset = len(recorder.spans)
        for span in harness:
            parent = span[3] + offset if span[3] is not None else None
            recorder.spans.append([span[0], span[1], span[2], parent, span[4]])
        events = [event for outcome in jobs for event in outcome.completed_events]
        stage_seconds: Dict[str, float] = {}
        for event in events:
            for stage, seconds in (event.stage_seconds or {}).items():
                stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
        dispatches = [span for span in in_run if span[0] == "service.dispatch"]
        execute_s = sum(span[4].get("execute_s", 0.0) for span in dispatches)
        batch_cells = sum(1 for event in events if event.backend == "batch")
        layers = recorder_layers(recorder)
        # Each distinct cell of a pass executes once on its fresh daemon.
        layers.update(kernel_layers(stage_seconds, execute_s, self.pass_unique[index],
                                    batch_cells))
        cells = sum(outcome.cells for outcome in jobs)
        layers.update({
            "api.cached_ratio": sum(outcome.cached for outcome in jobs) / cells if cells else 0.0,
            "service.queue_wait_s": sum((span[2] - span[1]) - span[4].get("execute_s", 0.0)
                                        for span in dispatches),
            "service.cell_run_s": sum(event.seconds or 0.0 for event in events),
            "service.overhead_s": sum(outcome.ack_s for outcome in jobs),
            "service.coalesced_cells": sum(entry["coalesced"] for entry in status),
            "obs.coverage": coverage(recorder.spans, windows),
        })
        result.layers = layers
        result.table = layer_table(recorder.spans, windows, stage_seconds, "service.dispatch")
        result.spans = {"daemon": in_run, "in_process": harness}
        result.counts["bootstrap_draws"] = recorder.total("bootstrap_draws")

    def check(self, checker: Checker) -> None:
        checker.expect(self.report_ok, "a report does not list every record")
        for jobs, fetched, status in zip(self.pass_jobs, self.pass_records, self.pass_status):
            for outcome in jobs:
                checker.expect(outcome.error is None, f"job failed: {outcome.error}")
            for entry, records in zip(status, fetched):
                checker.expect(entry["state"] == "done",
                               f"{entry['job']} ended {entry['state']}: {entry['error']}")
                checker.expect(len(records) == entry["cells"],
                               f"{entry['job']} returned {len(records)} of "
                               f"{entry['cells']} records")
                checker.expect(all(disseminated(record) for record in records),
                               f"{entry['job']} has an incomplete record")

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
        super().close()


WORKLOADS = {workload.name: workload
             for workload in (UnicastSweep, FloodSweep, StoreReanalyze, ServiceJobs)}
