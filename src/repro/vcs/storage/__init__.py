"""Pluggable storage backends for the content-addressable object store.

:class:`~repro.vcs.object_store.ObjectStore` delegates raw byte storage to an
:class:`ObjectBackend`:

* :class:`MemoryBackend` — one dict entry per object (fastest; default for
  repositories that live only in the process);
* :class:`PackBackend` — buffered writes appended as pack files with a
  sorted fanout index and blob delta compression, plus ``repack()``/gc; the
  layout every saved working copy uses.

:mod:`repro.vcs.storage.loose` reads the legacy loose-object layout that
older working copies used; nothing writes it any more.

Use :func:`make_backend` to build one from a ``storage=`` specification.
"""

from repro.vcs.storage.base import BackendSpec, ObjectBackend, backend_kinds, make_backend
from repro.vcs.storage.memory import MemoryBackend
from repro.vcs.storage.pack import PackBackend

__all__ = [
    "ObjectBackend",
    "BackendSpec",
    "backend_kinds",
    "make_backend",
    "MemoryBackend",
    "PackBackend",
]
