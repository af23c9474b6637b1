"""Software Heritage identifiers (SWHIDs) over the local object store.

Section 5 of the paper lists integration with the Software Heritage archive
as future work.  Software Heritage identifies artifacts *intrinsically*: a
SWHID is ``swh:1:<type>:<40-hex-digest>`` where the digest is computed from
the artifact's content — which is exactly what our content-addressed object
store already provides.  The identifiers produced here are therefore stable
across runs and across repositories containing the same content, which is the
property the citation model cares about (two forks of the same version cite
the same directory identifier).

Note: real SWHIDs for directories/revisions are computed over Git's binary
object encoding; our substrate uses a simpler textual tree/commit encoding,
so digests differ from softwareheritage.org's for the same content, but the
identifier *structure* and intrinsic-ness are preserved.
"""

from __future__ import annotations

from repro.errors import ArchiveError
from repro.vcs.object_store import ObjectStore
from repro.vcs.repository import Repository

__all__ = [
    "SWHID_SCHEME_VERSION",
    "content_swhid",
    "directory_swhid",
    "revision_swhid",
    "snapshot_swhid",
    "swhid_for_path",
]

SWHID_SCHEME_VERSION = 1


def _swhid(object_type: str, digest: str) -> str:
    if len(digest) != 40:
        raise ArchiveError(f"SWHIDs require a 40-character digest, got {digest!r}")
    return f"swh:{SWHID_SCHEME_VERSION}:{object_type}:{digest}"


def content_swhid(store: ObjectStore, blob_oid: str) -> str:
    """The SWHID of a file content (``cnt``)."""
    store.get_blob(blob_oid)  # validates existence and type
    return _swhid("cnt", blob_oid)


def directory_swhid(store: ObjectStore, tree_oid: str) -> str:
    """The SWHID of a directory (``dir``)."""
    store.get_tree(tree_oid)
    return _swhid("dir", tree_oid)


def revision_swhid(store: ObjectStore, commit_oid: str) -> str:
    """The SWHID of a revision/commit (``rev``)."""
    store.get_commit(commit_oid)
    return _swhid("rev", commit_oid)


def snapshot_swhid(repo: Repository) -> str:
    """A snapshot identifier covering all branches of a repository (``snp``).

    Computed from the sorted (branch, tip) pairs, mirroring how Software
    Heritage hashes the set of branches of an origin visit.
    """
    from repro.utils.hashing import sha1_hex

    description = "\n".join(
        f"{name} {oid}" for name, oid in sorted(repo.branches().items())
    ).encode("utf-8")
    return _swhid("snp", sha1_hex(description))


def swhid_for_path(repo: Repository, ref: str, path: str) -> str:
    """The SWHID of the file or directory at ``path`` in version ``ref``.

    Directories get ``dir`` identifiers, files get ``cnt`` identifiers — the
    right identifier to embed in a fine-grained citation for that node.
    """
    from repro.utils.paths import ROOT, normalize_path
    from repro.vcs.treeops import lookup_path

    tree_oid = repo.tree_oid_of(ref)
    canonical = normalize_path(path)
    if canonical == ROOT:
        return directory_swhid(repo.store, tree_oid)
    resolved = lookup_path(repo.store, tree_oid, canonical)
    if resolved is None:
        raise ArchiveError(f"no such path in {ref!r}: {canonical!r}")
    oid, mode = resolved
    if mode == "040000":
        return directory_swhid(repo.store, oid)
    return content_swhid(repo.store, oid)
