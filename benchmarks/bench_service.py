"""Endpoints-service benchmark (emits BENCH_service.json).

Two measurements of the churn-resilient dynamic-process layer:

* **Measured churn run** — a real 1-server world serves waves of
  session clients through connect/accept (each wave joins the running
  world, talks, and leaves), including one client that vanishes
  unannounced and is confirmed dead by the heartbeat detector.  The
  run reports the sustained request rate, proves zero leaked requests
  at close, and snapshots the port-registry and detector counters.
* **Occupancy-model projection** — measure the per-request server-side
  instruction counts once on the real runtime (total ``I`` and
  CS-resident ``C`` of the charged reply-send path), then project the
  sustained aggregate request rate with
  :func:`repro.perf.msgrate.modeled_service_rate`: clients sharded
  over VCIs by the real :meth:`VCIMap.shard_of_client`, each shard the
  min of its client demand and its serialized service capacity.  The
  closed form is what scales the sweep to **millions of simulated
  clients** — the headline row holds >= 1M — which no wall-clock run
  of a thread-per-rank substrate could touch.

Run standalone (writes ``BENCH_service.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_service.py [--quick]

or through pytest (same JSON, plus assertions)::

    pytest benchmarks/bench_service.py -s
"""

from __future__ import annotations

import json
import pickle
import threading
import time
from pathlib import Path

from repro.core import extensions as ext
from repro.core.config import BuildConfig
from repro.errors import MPIErrProcFailed, MPIErrRevoked
from repro.fabric.model import fabric_by_name
from repro.ft import ERRORS_RETURN, DetectorConfig, FaultPlan
from repro.ft.recovery import RankKilled  # noqa: F401 - doc pointer
from repro.mpi.intercomm import comm_accept
from repro.mpi.session import Session
from repro.perf.msgrate import measure_cs_instructions, modeled_service_rate
from repro.runtime.world import World

#: Client-population sweep of the projection (headline: the 1M row).
CLIENT_COUNTS = (1_000, 10_000, 100_000, 1_000_000, 4_000_000)
#: VCI counts of the projection sweep.
VCI_COUNTS = (1, 4, 16)
#: Per-client think time between requests in the projection.
THINK_S = 1e-3
#: Measured churn-run shape (full mode).
WAVES, CLIENTS_PER_WAVE, REQUESTS_PER_CLIENT = 3, 4, 10
#: Per-request poll deadline of the measured server (backstop only).
_REQUEST_TIMEOUT_S = 5.0
_OUT = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def _serve_one(inter, detector):
    """Serve one client until bye or death; returns (#requests, ok)."""
    served = 0
    while True:
        req = inter.irecv(source=0, tag=0)
        deadline = time.monotonic() + _REQUEST_TIMEOUT_S
        revoked = False
        while not req.is_complete():
            if detector is not None:
                detector.maybe_tick()
            if not revoked and time.monotonic() >= deadline:
                ext.MPIX_Comm_revoke(inter)
                revoked = True
            time.sleep(0.001)
        try:
            req.wait()
        except (MPIErrProcFailed, MPIErrRevoked):
            ext.MPIX_Comm_revoke(inter)
            return served, False
        message = pickle.loads(req.payload)
        inter.proc.request_pool.release(req)
        if message[0] == "bye":
            return served, True
        served += 1
        inter.send(("ack", message[1]), dest=0, tag=0)


def _server(comm, port, total_clients):
    """Accept *total_clients* sequentially; tally outcomes and leaks."""
    comm.set_errhandler(ERRORS_RETURN)
    detector = comm.world.detector
    vci_map = comm.proc.vci_map
    shards: dict[int, int] = {}
    completed = failed = served = 0
    t0 = time.perf_counter()
    for client_id in range(total_clients):
        inter = comm_accept(port, comm, timeout=30.0)
        inter.set_errhandler(ERRORS_RETURN)
        shard = vci_map.shard_of_client(client_id)
        shards[shard] = shards.get(shard, 0) + 1
        n, ok = _serve_one(inter, detector)
        served += n
        completed += ok
        failed += not ok
    wall_s = time.perf_counter() - t0
    posted, unexpected = comm.proc.engine.pending_counts()
    return {"requests_completed": served, "clients_completed": completed,
            "clients_failed": failed, "wall_s": wall_s,
            "requests_leaked": posted + unexpected,
            "per_shard": dict(sorted(shards.items()))}


def _client(world, port, requests, crash):
    """One session client; a crasher vanishes without bye/finalize."""
    session = Session(world, name="bench-client")
    inter = session.connect(port)
    inter.set_errhandler(ERRORS_RETURN)
    for i in range(1 if crash else requests):
        inter.send(("work", i), dest=0, tag=0)
        inter.recv(source=0)
    if crash:
        return   # unannounced death: the detector's problem now
    inter.send(("bye",), dest=0, tag=0)
    session.finalize()


def measured_service(waves=WAVES, clients_per_wave=CLIENTS_PER_WAVE,
                     requests=REQUESTS_PER_CLIENT) -> dict:
    """The real churn run: waves of sessions, one unannounced death."""
    config = BuildConfig(
        fault_plan=FaultPlan(),
        detector=DetectorConfig(period_s=0.005, suspect_s=0.05,
                                confirm_s=0.2),
        num_vcis=4)
    world = World(1, config)
    port = world.ports.open_port()
    total = waves * clients_per_wave

    def churn():
        for wave in range(waves):
            threads = [
                threading.Thread(
                    target=_client,
                    args=(world, port, requests,
                          wave == 1 and idx == 0),
                    daemon=True)
                for idx in range(clients_per_wave)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)

    driver = threading.Thread(target=churn, daemon=True)
    driver.start()
    stats = world.run(_server, args=(port, total))[0]
    driver.join(timeout=60.0)
    stats["num_waves"] = waves
    stats["num_clients"] = total
    stats["rate_requests_per_s"] = round(
        stats["requests_completed"] / stats["wall_s"], 1)
    stats["wall_s"] = round(stats["wall_s"], 3)
    stats["ports"] = world.ports.stats()
    stats["detector"] = world.detector.stats()
    return stats


def projection_sweep(total: int, cs: int, client_counts=CLIENT_COUNTS,
                     vci_counts=VCI_COUNTS) -> list[dict]:
    """The modeled clients x VCIs rate grid (closed-form occupancy)."""
    spec = fabric_by_name("infinite")
    rows = []
    for num_clients in client_counts:
        for num_vcis in vci_counts:
            row = modeled_service_rate(
                spec, instructions_request=total, instructions_cs=cs,
                num_vcis=num_vcis, num_clients=num_clients,
                think_s=THINK_S)
            row["rate_requests_per_s"] = round(
                row["rate_requests_per_s"], 1)
            rows.append(row)
    return rows


def run_benchmark(quick: bool = False) -> dict:
    """Run both measurements; returns (and writes) the JSON artifact."""
    measured = (measured_service(waves=2, clients_per_wave=3, requests=5)
                if quick else measured_service())
    config = BuildConfig(fabric="infinite")
    total, cs = measure_cs_instructions(config, "isend")
    client_counts = (10_000, 1_000_000) if quick else CLIENT_COUNTS
    vci_counts = (1, 4) if quick else VCI_COUNTS
    rows = projection_sweep(total, cs, client_counts, vci_counts)

    top = max(r["num_clients"] for r in rows)
    headline = max((r for r in rows if r["num_clients"] == top),
                   key=lambda r: r["rate_requests_per_s"])
    result = {
        "benchmark": "service",
        "fabric": "infinite",
        "instructions_per_request": {"total": total, "cs": cs},
        "model": "per VCI: rate_v = min(n_v/(service+think), "
                 "1/service); see perf/msgrate.modeled_service_rate",
        "measured": measured,
        "projection": {"think_s": THINK_S, "sweep": rows,
                       "headline": headline},
    }
    if not quick:   # the quick CI smoke must not clobber the artifact
        _OUT.write_text(json.dumps(result, indent=2) + "\n")
    return result


def test_service_scales_to_a_million_clients(print_artifact):
    """Acceptance: the churn run leaks nothing and loses only the
    crashed client; the occupancy projection sustains a positive rate
    at >= 1M simulated clients and VCI sharding lifts the server-bound
    ceiling."""
    result = run_benchmark()
    print_artifact("Endpoints-service benchmark (BENCH_service.json)",
                   json.dumps(result, indent=2))
    measured = result["measured"]
    assert measured["requests_leaked"] == 0, measured
    assert measured["clients_failed"] == 1, measured
    assert measured["detector"]["n_confirmed"] == 1, measured
    sweep = result["projection"]["sweep"]
    headline = result["projection"]["headline"]
    assert headline["num_clients"] >= 1_000_000
    assert headline["rate_requests_per_s"] > 0

    def rate_at(clients, vcis):
        return next(r["rate_requests_per_s"] for r in sweep
                    if r["num_clients"] == clients
                    and r["num_vcis"] == vcis)

    # At 1M clients the service is server-bound: more VCI lanes mean
    # more aggregate critical-section capacity.
    assert rate_at(1_000_000, 16) > rate_at(1_000_000, 1)
    assert _OUT.exists()


if __name__ == "__main__":
    import argparse
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small churn run + two-point projection")
    print(json.dumps(run_benchmark(quick=parser.parse_args().quick),
                     indent=2))
