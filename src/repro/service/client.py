"""Client for the batch scheduling daemon (``repro serve``).

Speaks the ``repro-service/2`` JSON protocol over localhost TCP or a
unix-domain socket::

    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8123")
    reply = client.schedule([block], "paper-simulation")
    reply["entries"][0]["cache"]        # "hit" | "miss" | "bypass"

Blocks may be :class:`repro.ir.BasicBlock` instances (formatted through
the linear tuple notation) or already-formatted tuple text; the machine
a preset name or a :class:`repro.machine.MachineDescription`.  Errors
the server answers with HTTP 4xx/5xx raise :class:`ServiceClientError`
carrying the server's message.

Transient failures retry: schedule requests are idempotent (the daemon
deduplicates by canonical fingerprint, so re-sending a batch can only
hit the cache), which makes it safe to retry connection refusal/reset,
timeouts, 429 shed answers (honouring ``Retry-After``) and 5xx with
bounded exponential backoff plus jitter — ``max_retries``/``backoff``
tune it, ``max_retries=0`` disables it.  Definite rejections (400/404/
413) never retry.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Union

from ..ir.block import BasicBlock
from ..ir.textual import format_block
from ..machine.machine import MachineDescription
from ..machine.serialize import machine_to_dict
from ..telemetry import Telemetry
from . import SCHEMA

__all__ = ["ServiceClient", "ServiceClientError"]

#: Backoff ceiling (seconds) — mirrors the supervisor's cap.
_BACKOFF_CAP = 8.0


class ServiceClientError(RuntimeError):
    """The server refused or failed a request."""

    def __init__(self, status: int, message: str, retry_after: Optional[float] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.retry_after = retry_after


class _UnixHTTPConnection(http.client.HTTPConnection):
    """An HTTPConnection whose transport is a unix-domain socket."""

    def __init__(self, path: str, timeout: Optional[float] = None):
        super().__init__("localhost", timeout=timeout)
        self._unix_path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout is not None:
            sock.settimeout(self.timeout)
        sock.connect(self._unix_path)
        self.sock = sock


class ServiceClient:
    """Blocking JSON client for one ``repro serve`` endpoint."""

    def __init__(
        self,
        url: str,
        timeout: Optional[float] = 60.0,
        max_retries: int = 2,
        backoff: float = 0.25,
        telemetry: Optional[Telemetry] = None,
        rng: Optional[random.Random] = None,
    ):
        self.url = url
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None to block)")
        self.timeout = timeout
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if backoff < 0:
            raise ValueError("backoff must be non-negative")
        self.max_retries = max_retries
        self.backoff = backoff
        self.telemetry = telemetry
        self._rng = rng if rng is not None else random.Random()
        if url.startswith("unix://"):
            self._unix_path: Optional[str] = url[len("unix://"):]
            self._netloc = None
        elif url.startswith("http://"):
            self._unix_path = None
            self._netloc = url[len("http://"):].rstrip("/")
        else:
            raise ValueError(
                f"unsupported service url {url!r} (want http://host:port "
                "or unix:///path/to.sock)"
            )

    def _connection(self) -> http.client.HTTPConnection:
        if self._unix_path is not None:
            return _UnixHTTPConnection(self._unix_path, timeout=self.timeout)
        return http.client.HTTPConnection(self._netloc, timeout=self.timeout)

    def _request_once(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        conn = self._connection()
        try:
            body = None if payload is None else json.dumps(payload).encode("utf-8")
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read().decode("utf-8", errors="replace")
            try:
                data = json.loads(raw)
            except json.JSONDecodeError:
                data = {"error": raw.strip() or "empty response"}
            if response.status != 200:
                retry_after: Optional[float] = None
                header = response.getheader("Retry-After")
                if header is not None:
                    try:
                        retry_after = float(header)
                    except ValueError:
                        retry_after = None
                raise ServiceClientError(
                    response.status, str(data.get("error", raw)), retry_after
                )
            return data
        finally:
            conn.close()

    def _retry_delay(self, attempt: int, retry_after: Optional[float]) -> float:
        """Capped exponential backoff with full jitter, floored by the
        server's ``Retry-After`` when it sent one."""
        delay = min(_BACKOFF_CAP, self.backoff * (2 ** (attempt - 1)))
        delay *= 0.5 + self._rng.random()  # jitter in [0.5x, 1.5x)
        if retry_after is not None:
            delay = max(delay, retry_after)
        return delay

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        attempt = 0
        while True:
            retry_after: Optional[float] = None
            try:
                return self._request_once(method, path, payload)
            except ServiceClientError as exc:
                # 429 means the daemon shed us (come back later); 5xx
                # may be a worker mid-recycle.  Anything else is a
                # definite answer — retrying cannot change it.
                if exc.status != 429 and exc.status < 500:
                    raise
                if attempt >= self.max_retries:
                    raise
                retry_after = exc.retry_after
            except (http.client.HTTPException, OSError):
                # Connection refused/reset, timeout, torn response —
                # the daemon may be restarting a listener or draining
                # a worker; safe to resend an idempotent batch.
                if attempt >= self.max_retries:
                    raise
            attempt += 1
            if self.telemetry is not None:
                self.telemetry.count("service.client.retries")
            time.sleep(self._retry_delay(attempt, retry_after))

    # -- protocol ------------------------------------------------------
    def schedule(
        self,
        blocks: Sequence[Union[BasicBlock, str]],
        machine: Union[str, MachineDescription],
        options: Optional[Dict[str, Any]] = None,
        names: Optional[Sequence[str]] = None,
        deadline: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Schedule a batch; returns the decoded ``repro-service/2`` reply.

        ``deadline`` (seconds) asks the daemon to bound the batch's
        wall clock: blocks past it publish shed seed entries.
        """
        specs: List[Dict[str, str]] = []
        for i, b in enumerate(blocks):
            if isinstance(b, BasicBlock):
                name = b.name
                text = format_block(b)
            else:
                name = f"block{i}"
                text = str(b)
            if names is not None:
                name = names[i]
            specs.append({"name": name, "tuples": text})
        payload: Dict[str, Any] = {
            "schema": SCHEMA,
            "machine": (
                machine
                if isinstance(machine, str)
                else machine_to_dict(machine)
            ),
            "blocks": specs,
        }
        if options is not None:
            payload["options"] = options
        if deadline is not None:
            payload["deadline"] = deadline
        return self._request("POST", "/v1/schedule", payload)

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/health")

    def live(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/health/live")

    def ready(self) -> Dict[str, Any]:
        """Raises :class:`ServiceClientError` (503) when not ready."""
        return self._request("GET", "/v1/health/ready")
