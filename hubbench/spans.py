"""Layer spans recorded from outside the program.

The benchmark does not edit the program to trace it.  :class:`Tracer` wraps
the entry point of each layer — a class method or a module function — in a
span that records its count, its total time and its self time (total minus
the time spent in nested spans on the same thread).  The client process
installs :func:`install_client`; the traced server process installs
:func:`install_server` before it runs ``gitcite serve``.

Span aggregates stay in memory; :meth:`Tracer.snapshot` hands them out as
plain JSON-ready data.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time

#: Server-side layers, outermost first: (label, module, class or None, attributes).
SERVER_LAYERS = (
    ("http", "repro.hub.httpd", "_HubRequestHandler", ("_dispatch",)),
    ("guard", "repro.hub.lifecycle", "GuardedApi", ("request",)),
    ("rest", "repro.hub.api", "RestApi", ("request",)),
    ("platform", "repro.hub.server", "HostingPlatform", (
        "get_repository", "get_user", "permission_for", "git_refs", "upload_pack",
        "receive_pack", "get_file", "list_tree", "put_file", "delete_file",
        "branches", "commits",
    )),
    ("transfer", "repro.vcs.transfer", None, (
        "advertise_refs", "create_bundle", "apply_bundle", "update_refs_from_bundle",
    )),
    ("delta", "repro.vcs.storage.pack", None, ("encode_delta",)),
    ("vcs", "repro.vcs.repository", "Repository", (
        "resolve", "checkout", "commit", "write_file", "remove_file", "file_exists",
        "read_file_at", "path_exists_at", "tree_oid_of", "log",
    )),
    ("store", "repro.vcs.object_store", "ObjectStore", (
        "put", "put_many", "put_raw_many", "get", "get_raw", "get_type", "get_blobs",
    )),
    ("journal", "repro.hub.durability", "PushJournal", ("append",)),
    ("fsync", "os", None, ("fsync",)),
)

#: Client-side layers (the op itself is the root span, ``op``).
CLIENT_LAYERS = (
    ("client_http", "repro.hub.httpd", "HttpTransport", ("request",)),
    ("client_transfer", "repro.vcs.transfer", None, ("create_bundle", "apply_bundle")),
    ("client_delta", "repro.vcs.storage.pack", None, ("encode_delta",)),
)


class Tracer:
    """Thread-safe span aggregates: ``{label: [count, total_s, self_s]}``."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stats: dict[str, list] = {}
        self.missing: list[str] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, label: str, elapsed: float, self_time: float) -> None:
        with self._lock:
            entry = self.stats.setdefault(label, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += self_time

    def wrap(self, label: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.add(label, elapsed, elapsed - nested)

        return traced

    @contextlib.contextmanager
    def waiting(self, label: str, lock):
        """Hold ``lock``, recording the time spent acquiring it as ``label``."""
        start = time.perf_counter()
        with lock:
            waited = time.perf_counter() - start
            stack = self._stack()
            if stack:
                stack[-1] += waited
            self.add(label, waited, waited)
            yield

    def snapshot(self, reset: bool = False) -> dict:
        with self._lock:
            stats = {label: list(entry) for label, entry in self.stats.items()}
            if reset:
                self.stats = {}
        return {"stats": stats, "missing": list(self.missing), "cpu_s": time.process_time()}

    def install(self, layers) -> None:
        """Wrap every layer entry point; record the ones this tree lacks."""
        for label, module_name, class_name, attributes in layers:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(module_name)
                continue
            owner = getattr(module, class_name, None) if class_name else module
            if owner is None:
                self.missing.append(f"{module_name}.{class_name}")
                continue
            for attribute in attributes:
                original = getattr(owner, attribute, None)
                if original is None:
                    self.missing.append(f"{module_name}.{class_name or ''}.{attribute}")
                    continue
                wrapped = self.wrap(label, original)
                if class_name:
                    setattr(owner, attribute, wrapped)
                    continue
                # A module function is bound by name wherever it was
                # imported; rebind every module-level reference to it.
                for loaded in list(sys.modules.values()):
                    if loaded is not None and getattr(loaded, attribute, None) is original:
                        setattr(loaded, attribute, wrapped)


def install_server(tracer: Tracer) -> None:
    """Trace the served request path, including the per-repository lock wait."""
    importlib.import_module("repro.cli.main")  # bind every module before rebinding
    tracer.install(SERVER_LAYERS)
    from repro.hub.server import HostingPlatform

    original = getattr(HostingPlatform, "_repo_lock", None)
    if original is None:
        tracer.missing.append("repro.hub.server.HostingPlatform._repo_lock")
        return

    def timed_lock(platform, slug):
        return tracer.waiting("lock_wait", original(platform, slug))

    HostingPlatform._repo_lock = timed_lock


def install_client(tracer: Tracer) -> None:
    importlib.import_module("repro.hub.sync")
    importlib.import_module("repro.extension.client")
    tracer.install(CLIENT_LAYERS)
