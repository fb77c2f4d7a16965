#!/usr/bin/env python
"""Endpoints service: waves of short-lived clients against one server.

One static server rank opens a port and serves three waves of session
clients (MPI-4 sessions joining a *running* world — the world grows by
one rank per client and shrinks back as each finalizes).  Each accepted
client is sharded across the server's VCIs by
``VCIMap.shard_of_client``, so concurrent client streams land on
distinct lanes of the sharded runtime.

One client of the middle wave **vanishes unannounced**: it sends a
request, reads the reply, and returns without ``bye`` and without
``Session.finalize`` — a crashed process.  Nothing on the wire says so;
the heartbeat failure detector (``BuildConfig(detector=...)``) notices
the silence, escalates suspect → confirmed-dead, and the server's
pending receive fails with ``MPI_ERR_PROC_FAILED`` instead of hanging.
The server revokes that client's intercommunicator (ULFM cleanup — the
per-request deadline below is only the backstop for a detector-less
build) and moves on to the next accept.  At close of business the
server proves **zero leaked requests**: nothing posted, nothing
unexpected, every wave survived.

    python examples/endpoint_service.py
"""

import pickle
import threading
import time

from repro import BuildConfig, World
from repro.core import extensions as ext
from repro.errors import MPIErrProcFailed, MPIErrRevoked
from repro.ft import ERRORS_RETURN, DetectorConfig, FaultPlan
from repro.mpi import Session, close_port, comm_accept

#: Waves of clients the server must survive.
WAVES = 3
#: Concurrent session clients per wave.
CLIENTS_PER_WAVE = 3
#: Requests each well-behaved client issues before saying bye.
REQUESTS_PER_CLIENT = 4
#: The wave whose first client crashes mid-conversation.
CRASH_WAVE = 1
#: Per-request service deadline (backstop when no detector is armed).
REQUEST_TIMEOUT_S = 5.0
#: How long the server waits for the next client of a wave.
ACCEPT_TIMEOUT_S = 30.0


def recv_request(inter, detector):
    """One served request: post the receive, poll it with a deadline.

    The poll loop is what MPI_Test does inside a real implementation:
    each slice pokes progress (here the detector's roster scan, so a
    vanished client's silence is actually observed).  Raises
    ``MPI_ERR_PROC_FAILED`` when the detector confirms the client dead,
    ``MPI_ERR_REVOKED`` when the deadline backstop revoked the
    intercommunicator — either way the pending receive is *failed*,
    not leaked.
    """
    req = inter.irecv(source=0, tag=0)
    deadline = time.monotonic() + REQUEST_TIMEOUT_S
    revoked = False
    while not req.is_complete():
        if detector is not None:
            detector.maybe_tick()
        if not revoked and time.monotonic() >= deadline:
            ext.MPIX_Comm_revoke(inter)   # fail the stuck receive
            revoked = True
        time.sleep(0.002)
    req.wait()                            # raises for a dead client
    payload = pickle.loads(req.payload)
    inter.proc.request_pool.release(req)
    return payload


def serve_one(inter, shard, detector):
    """Serve one client until it says bye or dies; returns the tally."""
    served = 0
    while True:
        try:
            message = recv_request(inter, detector)
        except (MPIErrProcFailed, MPIErrRevoked) as exc:
            ext.MPIX_Comm_revoke(inter)   # ULFM cleanup: drop the rest
            return served, type(exc).__name__
        if message[0] == "bye":
            return served, "completed"
        served += 1
        # Replies carry the client's shard as their tag, so each
        # client's stream stays on its own VCI lane.
        inter.send(("ack", message[1] ** 2), dest=0, tag=shard)


def server_main(comm, port, total_clients):
    """The endpoints server: accept, shard, serve, survive, account."""
    comm.set_errhandler(ERRORS_RETURN)
    detector = comm.world.detector
    vci_map = comm.proc.vci_map
    stats = {"accepted": 0, "completed": 0, "failed": 0,
             "requests": 0, "per_shard": {}, "failures": []}
    for client_id in range(total_clients):
        inter = comm_accept(port, comm, timeout=ACCEPT_TIMEOUT_S)
        inter.set_errhandler(ERRORS_RETURN)
        shard = vci_map.shard_of_client(client_id)
        stats["accepted"] += 1
        stats["per_shard"][shard] = stats["per_shard"].get(shard, 0) + 1
        served, outcome = serve_one(inter, shard, detector)
        stats["requests"] += served
        if outcome == "completed":
            stats["completed"] += 1
        else:
            stats["failed"] += 1
            stats["failures"].append(outcome)
    close_port(comm, port)
    posted, unexpected = comm.proc.engine.pending_counts()
    stats["leaked_posted"] = posted
    stats["leaked_unexpected"] = unexpected
    return stats


def client_main(world, port, label, crash):
    """One session client: join the world, talk, leave (or vanish)."""
    session = Session(world, name=label)
    inter = session.connect(port)
    inter.set_errhandler(ERRORS_RETURN)
    total = 0
    n_requests = 1 if crash else REQUESTS_PER_CLIENT
    for i in range(n_requests):
        inter.send(("square", i), dest=0, tag=0)
        kind, value = inter.recv(source=0)
        assert kind == "ack"
        total += value
    if crash:
        # Unannounced death: no bye, no finalize — the thread just
        # stops.  Detecting this is the heartbeat detector's job.
        return None
    inter.send(("bye",), dest=0, tag=0)
    session.finalize()
    return total


def run_waves(world, port, outcomes):
    """Drive the client churn: WAVES waves of concurrent sessions."""
    for wave in range(WAVES):
        threads, results = [], [None] * CLIENTS_PER_WAVE

        def body(idx, wave=wave, results=results):
            crash = wave == CRASH_WAVE and idx == 0
            results[idx] = client_main(
                world, port, f"w{wave}c{idx}", crash)

        for idx in range(CLIENTS_PER_WAVE):
            thread = threading.Thread(target=body, args=(idx,),
                                      name=f"client-w{wave}c{idx}",
                                      daemon=True)
            threads.append(thread)
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        outcomes.append(results)


if __name__ == "__main__":
    config = BuildConfig(
        fault_plan=FaultPlan(),                  # lossless wire, ULFM on
        detector=DetectorConfig(period_s=0.005, suspect_s=0.06,
                                confirm_s=0.25),
        num_vcis=4)
    world = World(1, config)
    port = world.ports.open_port()
    total = WAVES * CLIENTS_PER_WAVE

    outcomes = []
    churn = threading.Thread(target=run_waves,
                             args=(world, port, outcomes),
                             name="client-churn", daemon=True)
    churn.start()
    stats = world.run(server_main, args=(port, total))[0]
    churn.join(timeout=60.0)

    expected_total = sum(i ** 2 for i in range(REQUESTS_PER_CLIENT))
    finished = [r for wave in outcomes for r in wave if r is not None]
    assert len(outcomes) == WAVES, "every wave must complete"
    assert stats["accepted"] == total
    assert stats["completed"] == total - 1
    assert stats["failed"] == 1, "exactly the crashed client fails"
    assert stats["failures"] == ["MPIErrProcFailed"], \
        "the detector, not the timeout backstop, must catch the crash"
    assert stats["requests"] == (total - 1) * REQUESTS_PER_CLIENT + 1
    assert all(r == expected_total for r in finished)
    assert stats["leaked_posted"] == 0, stats
    assert stats["leaked_unexpected"] == 0, stats
    assert len(stats["per_shard"]) > 1, "clients must spread over VCIs"

    det = world.detector.stats()
    assert det["n_confirmed"] == 1, det
    assert det["n_departed"] == total - 1, det

    print(f"served {stats['requests']} requests from "
          f"{stats['accepted']} clients over {WAVES} waves "
          f"(shards: {dict(sorted(stats['per_shard'].items()))})")
    print(f"{stats['completed']} clients finished cleanly; "
          f"{stats['failed']} vanished mid-conversation and was "
          f"confirmed dead by the heartbeat detector "
          f"({stats['failures'][0]}), its receive failed — not hung")
    print(f"zero leaked requests at close "
          f"(posted={stats['leaked_posted']}, "
          f"unexpected={stats['leaked_unexpected']}); detector saw "
          f"{det['n_monitored']} clients, {det['n_departed']} departed "
          f"cleanly, {det['n_confirmed']} confirmed dead")
