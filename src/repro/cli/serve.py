"""``gitcite serve`` — host a working copy over a real HTTP socket, durably.

Loads the working copy through the full crash-recovery pipeline
(:func:`~repro.hub.durability.recover_working_copy`: orphan sweep, fsck with
repair, journal replay), hosts it on a fresh
:class:`~repro.hub.server.HostingPlatform` under its recorded owner/name
slug, issues the owner a push token, and serves the full REST API
(contents, forks, ``/healthz``, and the three ``git/*`` sync endpoints —
see ``docs/WIRE_PROTOCOL.md``) on a :class:`~repro.hub.httpd.HubHttpServer`
until SIGINT or SIGTERM.  Anonymous reads are allowed (the repository is
hosted public); pushes need the printed token.

Durability contract (``docs/OPERATIONS.md`` has the operator's view):

* every acknowledged mutation is appended to the write-ahead journal
  **before** its 2xx leaves the socket (``--write-behind`` batches the
  fsyncs, trading a bounded loss window for throughput);
* a ``kill -9`` at any instant loses at most the un-acknowledged work in
  flight — the next ``gitcite serve`` replays the journal onto the last
  checkpoint before accepting the first request;
* the repository is hosted bare (writes move refs only); the directory's
  files follow the head branch at startup and shutdown, keeping local edits;
* SIGTERM and SIGINT both drain: stop accepting, finish in-flight requests
  under ``--drain-timeout``, flush the journal, save the working copy.  If
  the final save fails the process exits non-zero, but nothing is lost —
  the journal still holds every acknowledgement and prints where.
* if startup recovery quarantined unrecoverable history the hub comes up
  **degraded (read-only)**: clones and reads work, writes answer a
  retryable 503 until an operator intervenes.
"""

from __future__ import annotations

import argparse
import os
import signal
import threading

from repro import faults
from repro.errors import CLIError, ReproError
from repro.hub.api import RestApi
from repro.hub.durability import PushJournal, journal_path, recover_working_copy
from repro.hub.httpd import HubHttpServer
from repro.hub.lifecycle import GuardedApi, ServingState, drain
from repro.hub.ratelimit import RateLimiter
from repro.hub.server import HostingPlatform
from repro.vcs.workingcopy import save_checkout

__all__ = ["cmd_serve", "FAULTS_ENV"]

#: Environment hook the chaos suite uses to arm failpoints *inside* the
#: serve subprocess: comma-separated ``name[:kind[:at]]`` entries, e.g.
#: ``GITCITE_SERVE_FAULTS="journal.append:crash:3,wire.response:error"``.
#: ``kind`` defaults to ``crash``; ``error`` arms an injected ``OSError``
#: (the disk-failure signal the lifecycle layer turns into degraded mode).
FAULTS_ENV = "GITCITE_SERVE_FAULTS"


def _arm_env_faults() -> None:
    spec = os.environ.get(FAULTS_ENV, "").strip()
    if not spec:
        return
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        name = parts[0]
        kind = parts[1] if len(parts) > 1 and parts[1] else "crash"
        at = int(parts[2]) if len(parts) > 2 else 1
        if kind == "error":
            faults.arm(name, "error", at=at,
                       error=lambda: OSError("injected disk failure"))
        else:
            faults.arm(name, kind, at=at)


def cmd_serve(args: argparse.Namespace) -> int:
    _arm_env_faults()
    write_behind = bool(getattr(args, "write_behind", False))
    flush_every = int(getattr(args, "flush_every", 8))
    max_inflight = int(getattr(args, "max_inflight", 64))
    max_body_mb = int(getattr(args, "max_body_mb", 64))
    request_timeout = float(getattr(args, "request_timeout", 30.0))
    drain_timeout = float(getattr(args, "drain_timeout", 10.0))

    # Recovery first: fsck + checkpoint load + journal replay.  The hub
    # never answers a request for state it has not finished reconstructing.
    try:
        repo, recovery = recover_working_copy(args.directory)
    except ReproError as exc:
        raise CLIError(f"startup recovery failed: {exc}") from exc
    files_head = repo.head_oid()  # what the directory's files now hold

    limiter = RateLimiter(enabled=not args.no_rate_limit)
    platform = HostingPlatform(rate_limiter=limiter)
    platform.host_repository(repo)
    token = platform.issue_token(repo.owner)
    slug = repo.full_name

    try:
        journal = PushJournal(
            journal_path(args.directory),
            durable=not write_behind,
            flush_every=flush_every,
        )
    except OSError as exc:
        raise CLIError(f"cannot open the push journal: {exc}") from exc
    platform.attach_journal(slug, journal)

    state = ServingState(max_in_flight=max_inflight, request_deadline=request_timeout)
    platform.bind_lifecycle(state)
    if recovery.degraded:
        # Quarantined history or unreplayable journal records: an operator
        # has to look, so a /healthz probe must not silently clear it.
        state.mark_degraded(recovery.degraded_reason, recoverable=False)

    api = GuardedApi(RestApi(platform), state, probe=journal.verify_writable)
    try:
        server = HubHttpServer(
            api,
            host=args.host,
            port=args.port,
            request_timeout=request_timeout,
            max_body_bytes=max_body_mb * 1024 * 1024,
            exit_on_crash=True,
        )
    except OSError as exc:
        journal.close()
        raise CLIError(f"cannot bind {args.host}:{args.port}: {exc}") from exc

    print(f"serving {slug} on {server.url}", flush=True)
    print(f"  token ({repo.owner}): {token.value}", flush=True)
    print(f"  refs: GET {server.url}/repos/{slug}/git/refs", flush=True)
    print(
        f"  journal: {'write-behind' if write_behind else 'durable'} ({journal.path})",
        flush=True,
    )
    if recovery.records_replayed or recovery.repairs:
        print(
            f"  recovered: {recovery.records_replayed}/{recovery.records_found} "
            f"journalled update(s) replayed ({recovery.objects_restored} object(s), "
            f"{len(recovery.refs_restored)} ref(s)); {len(recovery.repairs)} repair(s)",
            flush=True,
        )
    if recovery.kept_local:
        print(f"  kept local changes: {', '.join(recovery.kept_local)}", flush=True)
    if recovery.degraded:
        print(f"  DEGRADED (read-only): {recovery.degraded_reason}", flush=True)
    print("  stop with Ctrl-C or SIGTERM (drains in-flight requests, then saves)",
          flush=True)

    # Both shutdown signals funnel into one event; the accept loop runs on a
    # daemon thread so the main thread is free to field the signal and run
    # the drain sequence itself.
    stop = threading.Event()

    def _request_stop(signum, frame):
        stop.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, _request_stop)
    server.start()
    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    # Drain: shed new requests, stop accepting, let in-flight work finish.
    if not drain(state, http_server=server, timeout=drain_timeout):
        print(f"  drain timed out after {drain_timeout:.1f}s; saving anyway", flush=True)
    try:
        journal.flush()
    except OSError as exc:
        print(f"  warning: journal flush failed on shutdown: {exc}", flush=True)
    try:
        kept = save_checkout(repo, args.directory, files_head)
    except (ReproError, OSError) as exc:
        # The checkpoint failed, but every acknowledged update is still in
        # the journal — the next serve replays it.  Exit non-zero so
        # supervisors notice, after telling the operator exactly that.
        print(
            f"could not save {slug}: {exc}\n"
            f"  acknowledged updates are safe in the journal ({journal.path});\n"
            f"  restart with `gitcite serve -C {args.directory}` to replay them",
            flush=True,
        )
        journal.close()
        raise CLIError(f"shutdown: could not save the working copy: {exc}") from exc
    if state.degraded is None:
        # The checkpoint now holds everything the journal does; reset it.
        # A degraded hub keeps its journal — it is the evidence trail.
        try:
            journal.truncate()
        except OSError:
            pass  # stale records replay as no-ops on the next serve
    journal.close()
    if kept:
        print(f"  kept local changes: {', '.join(kept)}", flush=True)
    print(f"stopped; {slug} saved", flush=True)
    return 0
