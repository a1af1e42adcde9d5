"""HTTP surface of the broker.

Callers use HEAD requests; queries, handles, and results travel in
headers, never bodies:

    HEAD /yellow            PSvc-Service: {"Purpose": "authentication"}
                            PSvc-Callback: http://sp:8080/cb
                            Referer: sp:8080
    HEAD /white             same fields, multi-attribute query
    HEAD /resolve?ref=XYZ   PSvc-Service: <handle text>
                            Referer: sp:8080

Every reply is a 313 whose Location is the callback (listings) or
``:<ref>`` (resolution), with PSvc-Service carrying the envelope or
endpoint and PSvc-Error naming any failure.  POST /reload swaps in a
fresh catalog snapshot.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..kit import KitRequest, KitResponse, ServiceServer, header_value
from ..protocol import (
    ERR_PARAMETERS,
    H_CALLBACK,
    H_ERROR,
    H_SERVICE,
    MalformedDirective,
    decode_white_query,
    decode_yellow_query,
)
from ..transcript import SERVE, SPAWN, Transcript
from .core import Broker, BrokerOptions, BrokerReply, write_endpoint_file
from .runtime import ServiceLauncher


class BrokerServer(ServiceServer):
    """Runs a Broker behind a loopback HTTP endpoint and publishes it."""

    def __init__(
        self,
        ps_dir: Path | str,
        *,
        port: int = 0,
        publish_endpoint: bool = True,
        broker: Broker | None = None,
        options: BrokerOptions | None = None,
    ):
        self.ps_dir = Path(ps_dir)
        self.transcript = Transcript.from_env("Broker")
        if broker is None:
            launcher = ServiceLauncher(on_spawn=self._on_spawn)
            broker = Broker(self.ps_dir, options=options, launcher=launcher)
        self.broker = broker
        super().__init__(("127.0.0.1", port), self._handle)
        if publish_endpoint:
            write_endpoint_file(self.ps_dir, self.port)

    def _on_spawn(self, descriptor_id: str, port: int, pid: int, count: int) -> None:
        self.transcript.emit(SPAWN, "spawn", descriptor_id, port=port, pid=pid, n=count)

    @property
    def endpoint(self) -> str:
        return f"127.0.0.1:{self.port}"

    def _reply(self, reply: BrokerReply, path: str, svc_tag: str | None) -> KitResponse:
        # Log before the bytes leave: the caller reacts the moment it has
        # them, and transcript order must reflect causality.
        self.transcript.emit(
            SERVE,
            "HEAD",
            path,
            reply.status,
            loc=reply.location,
            svc=svc_tag if reply.error is None else None,
            err=reply.error,
        )
        headers = [("Location", reply.location)]
        if reply.service is not None:
            headers.append((H_SERVICE, reply.service))
        if reply.error is not None:
            headers.append((H_ERROR, reply.error))
        return KitResponse(reply.status, tuple(headers))

    def _handle(self, request: KitRequest) -> KitResponse:
        if request.method == "POST":
            if request.path != "/reload":
                return KitResponse.text("unknown path\n", 404)
            catalog = self.broker.reload_catalog()
            self.transcript.emit(SERVE, "POST", "/reload", 200)
            return KitResponse.text(f"catalog reloaded: {len(catalog)} services\n")
        if request.method != "HEAD":
            return KitResponse.text("use HEAD for broker calls\n", 405)

        service = header_value(request.headers, H_SERVICE)
        callback = header_value(request.headers, H_CALLBACK)
        sp_host = header_value(request.headers, "Referer")
        if request.path == "/resolve":
            ref = request.query.get("ref", "")
            if not service or not sp_host or not ref:
                reply = BrokerReply(location=f":{ref}", error=ERR_PARAMETERS)
                return self._reply(reply, request.target, None)
            reply = self.broker.resolve_handle(service, sp_host, ref)
            return self._reply(reply, request.target, "endpoint")

        if request.path not in ("/yellow", "/white"):
            return KitResponse.text("unknown path\n", 404)
        if not service or not callback or not sp_host:
            reply = BrokerReply(location=callback or ":", error=ERR_PARAMETERS)
            return self._reply(reply, request.path, None)
        try:
            if request.path == "/yellow":
                reply = self.broker.serve_yellow(decode_yellow_query(service), sp_host, callback)
                names = len(json.loads(reply.service)["response"]) if reply.service else 0
                return self._reply(reply, request.path, f"names[{names}]")
            reply = self.broker.serve_white(decode_white_query(service), sp_host, callback)
            return self._reply(reply, request.path, "handle")
        except MalformedDirective:
            reply = BrokerReply(location=callback, error=ERR_PARAMETERS)
            return self._reply(reply, request.path, None)

    def shutdown(self) -> None:
        super().shutdown()
        self.broker.shutdown()
