"""Storage server: serves a directory over the framed channel protocol.

Protocol (msgpack maps over frames), one operation::

    request:  {"op": "read", "path": str, "offset": int >= 0, "nbytes": int >= 0}
    response: {"ok": true,  "data": bytes}
              {"ok": false, "error": str}

Every read is one request/response exchange — one network round trip —
which is the property that makes per-sample loaders collapse at high RTT.
A frame that does not decode to such a request (not msgpack, not a map,
an unknown op, a mistyped field) gets an error response, and the
connection keeps serving.
"""

from __future__ import annotations

import threading

from repro.net.channel import Channel, Listener
from repro.net.emulation import NetworkProfile
from repro.net.framing import ConnectionClosed
from repro.serialize.msgpack import UnpackError, packb, unpackb
from repro.storage.localfs import LocalStorage


def _is_count(value: object) -> bool:
    return type(value) is int and value >= 0


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
                    frame = chan.recv()
                    chan.send(packb(self._handle(frame)))
                except (ConnectionClosed, ConnectionError, OSError):
                    return
                with self._count_lock:
                    self.requests_served += 1
        finally:
            chan.close()
            with self._chan_lock:
                if chan in self._channels:
                    self._channels.remove(chan)

    def _handle(self, frame: bytes) -> dict:
        try:
            req = unpackb(frame)
        except UnpackError as err:
            return {"ok": False, "error": f"malformed request: {type(err).__name__}: {err}"}
        if not isinstance(req, dict):
            return {"ok": False, "error": f"malformed request: {type(req).__name__}, not a map"}
        if req.get("op") != "read":
            return {"ok": False, "error": f"unknown op {req.get('op')!r}"}
        path, offset, nbytes = req.get("path"), req.get("offset"), req.get("nbytes")
        if not (isinstance(path, str) and _is_count(offset) and _is_count(nbytes)):
            return {
                "ok": False,
                "error": "malformed read: want a str path and non-negative int "
                f"offset and nbytes, got {path!r}, {offset!r}, {nbytes!r}",
            }
        try:
            return {"ok": True, "data": self.storage.read_at(path, offset, nbytes)}
        except (OSError, ValueError, OverflowError, MemoryError) as err:
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
