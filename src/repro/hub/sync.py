"""A remote repository spoken to entirely over the hub's REST wire.

:class:`HubRemote` supplies the three transport primitives of
:class:`~repro.vcs.remote.Remote` — ``GET git/refs``,
``POST git/upload-pack`` and ``POST git/receive-pack`` — for a hosted
repository; clone, fetch, pull and push themselves are the ones every remote
shares.  Bundles travel base64-encoded in JSON bodies, and every failure
arrives as a status code that :func:`_raise_for_status` turns back into the
matching client exception (a rejected non-fast-forward push is the 422
:class:`~repro.errors.ValidationError`).

Pair it with :class:`~repro.hub.retry.RetryingApi` and the operations become
crash-convergent: a push whose response was lost in flight is simply
re-sent, and the receiver's idempotent ``apply_bundle`` plus fast-forward
ref updates make the retry a no-op instead of a duplicate.
"""

from __future__ import annotations

from base64 import b64decode, b64encode
from typing import Optional

from repro.errors import RemoteError
from repro.hub.api import raise_for_status
from repro.vcs.remote import Remote
from repro.vcs.transfer import RefAdvertisement

__all__ = ["HubRemote"]


def _raise_for_status(response, context: str) -> None:
    """Turn a non-2xx wire response back into the matching client exception."""
    if response is None:
        raise RemoteError(f"{context}: no response from hub")
    if response.ok:
        return
    raise_for_status(response, lambda message: RemoteError(f"{context}: {message}"))


class HubRemote(Remote):
    """Clone, fetch, pull and push against one hosted repository over REST.

    ``api`` is anything with the :class:`~repro.hub.api.RestApi` verb surface
    — pass a :class:`~repro.hub.retry.RetryingApi` to get transparent retry
    of transport faults, 429s and 5xxs on every wire round trip.
    """

    def __init__(self, api, slug: str, token: Optional[str] = None) -> None:
        self.api = api
        self.slug = slug
        self.token = token

    def refs(self) -> RefAdvertisement:
        """The remote's current ref advertisement (one ``git/refs`` GET)."""
        response = self.api.get(f"/repos/{self.slug}/git/refs", token=self.token)
        _raise_for_status(response, f"cannot read refs of {self.slug}")
        return RefAdvertisement.from_dict(response.json)

    def repository_info(self) -> dict:
        """The hosted repository's metadata (name, owner, default branch …)."""
        response = self.api.get(f"/repos/{self.slug}", token=self.token)
        _raise_for_status(response, f"cannot read {self.slug}")
        return response.json

    def upload_pack(self, wants, haves) -> bytes:
        response = self.api.post(
            f"/repos/{self.slug}/git/upload-pack",
            payload={"wants": sorted(wants), "haves": sorted(haves)},
            token=self.token,
        )
        _raise_for_status(response, f"cannot fetch from {self.slug}")
        return b64decode(response.json["bundle"])

    def receive_pack(self, bundle_data: bytes, force: bool) -> dict:
        response = self.api.post(
            f"/repos/{self.slug}/git/receive-pack",
            payload={
                "bundle": b64encode(bundle_data).decode("ascii"),
                "force": force,
            },
            token=self.token,
        )
        _raise_for_status(response, f"cannot push to {self.slug}")
        return response.json

    def _identity(self) -> tuple[str, str, str]:
        info = self.repository_info()
        return info["name"], info["owner"]["login"], info.get("description") or ""
