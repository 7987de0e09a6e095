"""Storage server: serves a directory over the framed channel protocol.

Protocol (msgpack maps over frames)::

    request:  {"op": "read",    "path": str, "offset": int, "nbytes": int}
              {"op": "stat",    "path": str}
              {"op": "ping"}
    response: {"ok": true,  ...op-specific fields...}
              {"ok": false, "error": str}

Every operation is one request/response exchange — one network round trip —
which is the property that makes per-sample loaders collapse at high RTT.
"""

from __future__ import annotations

import threading

from repro.net.channel import Channel, Listener
from repro.net.emulation import NetworkProfile
from repro.net.framing import ConnectionClosed
from repro.serialize.msgpack import packb, unpackb
from repro.storage.localfs import LocalStorage


class StorageServer:
    """Threaded server exposing one LocalStorage over TCP."""

    def __init__(
        self,
        root: str,
        host: str = "127.0.0.1",
        port: int = 0,
        profile: NetworkProfile | None = None,
    ) -> None:
        self.storage = LocalStorage(root)
        self._channels: list[Channel] = []
        self._chan_lock = threading.Lock()
        self._closed = False
        self._listener = Listener(host=host, port=port, profile=profile)
        self._listener.serve_forever(self._serve)
        self.requests_served = 0
        self._count_lock = threading.Lock()

    @property
    def address(self) -> tuple[str, int]:
        """Bound ``(host, port)`` address."""
        return self._listener.address

    @property
    def port(self) -> int:
        """Bound TCP port."""
        return self._listener.port

    def _serve(self, chan: Channel) -> None:
        with self._chan_lock:
            if self._closed:
                chan.close()
                return
            self._channels.append(chan)
        try:
            while True:
                try:
                    req = unpackb(chan.recv())
                except (ConnectionClosed, ConnectionError, OSError):
                    return
                chan.send(packb(self._handle(req)))
                with self._count_lock:
                    self.requests_served += 1
        finally:
            chan.close()
            with self._chan_lock:
                if chan in self._channels:
                    self._channels.remove(chan)

    def _handle(self, req: dict) -> dict:
        try:
            op = req.get("op")
            if op == "read":
                data = self.storage.read_at(req["path"], req["offset"], req["nbytes"])
                return {"ok": True, "data": data}
            if op == "stat":
                return {"ok": True, "size": self.storage.size(req["path"])}
            if op == "ping":
                return {"ok": True}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except (OSError, ValueError, PermissionError, KeyError) as err:
            return {"ok": False, "error": f"{type(err).__name__}: {err}"}

    def close(self) -> None:
        """Stop serving and sever every established connection.

        Dropping live channels matters for fault emulation: a "dead"
        server whose accepted connections keep answering reads is not
        dead — clients mid-epoch must observe connection errors, exactly
        as they would if the process crashed.
        """
        with self._chan_lock:
            self._closed = True
            channels = list(self._channels)
        self._listener.close()
        for chan in channels:
            chan.close()
        self.storage.close()
