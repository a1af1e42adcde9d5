"""Run one psvc party with spans recorded around layer entry points.

    python perfbench/tracer.py --spans FILE -- <psvc command line>

The launcher wraps public functions of the layer modules under the name
each caller looks up (for example ``psvc.broker.core.list_matching``),
then calls ``psvc.cli.main``.  The program itself is unchanged.  Spans
stay in memory and are written to FILE as JSON when the party exits,
with the span names this party patched.  A target is patched in every
party that loads its module; spans.py fails the run when some target
was patched in no party, so a renamed function cannot pass as a zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import signal
import sys
import threading
import time

# (module, attribute path, span name)
TARGETS = [
    ("psvc.proxy", "PersonalServiceProxy.handle_transaction", "proxy.transaction"),
    ("psvc.proxy", "send_request", "proxy.send_request"),
    ("psvc.proxy", "BrokerLink.endpoint", "proxy.broker_endpoint"),
    ("psvc.proxy", "BrokerLink.endpoint_or_none", "proxy.broker_endpoint_or_none"),
    ("psvc.proxy", "BrokerLink._connectable", "proxy.broker_probe"),
    ("psvc.broker.core", "Broker.serve_white", "broker.serve_white"),
    ("psvc.broker.core", "Broker.serve_yellow", "broker.serve_yellow"),
    ("psvc.broker.core", "Broker.resolve_handle", "broker.resolve_handle"),
    ("psvc.broker.core", "list_matching", "registry.list_matching"),
    ("psvc.broker.core", "list_matching_white", "registry.list_matching_white"),
    ("psvc.broker.core", "load_catalog", "registry.load_catalog"),
    ("psvc.broker.core", "encode_broker_result", "protocol.encode_result"),
    ("psvc.broker.handles", "HandleCodec.mint", "handles.mint"),
    ("psvc.broker.handles", "HandleCodec.open", "handles.open"),
    ("psvc.broker.runtime", "ServiceLauncher.ensure_live", "runtime.ensure_live"),
    ("psvc.broker.runtime", "wait_connectable", "runtime.wait_connectable"),
    ("psvc.transcript", "Transcript.emit", "transcript.emit"),
]

# The module each command runs; only targets in modules it loads anyway
# are patched, so a traced party starts like an untraced one.
ENTRY_MODULES = {
    "broker": "psvc.broker.server",
    "proxy": "psvc.proxy",
    "demo sp": "psvc.demo.sp",
    "demo service": "psvc.demo.service",
}

# Span fields, in the order each span is stored and written.
FIELDS = ("id", "parent", "name", "thread", "start_ns", "end_ns", "error", "size")


class Recorder:
    """Collects spans; the parent is the innermost open span on the thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.patched: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            error = size = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, list):
                    size = len(result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append(
                    (span_id, parent, name, threading.get_ident(), start, end, error, size)
                )

        return traced

    def install(self, psvc_args: list[str]) -> None:
        """Patch the targets in the modules the command loads."""
        command = " ".join(psvc_args[:2] if psvc_args[:1] == ["demo"] else psvc_args[:1])
        if command in ENTRY_MODULES:
            importlib.import_module(ENTRY_MODULES[command])
        for module_name, path, span_name in TARGETS:
            owner = sys.modules.get(module_name)
            if owner is None:
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                continue
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self.wrap(raw.__func__, span_name)))
            else:
                setattr(owner, attr, self.wrap(raw, span_name))
            self.patched.append(span_name)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "patched": self.patched, "spans": self.spans}, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans FILE -- <psvc arguments>", file=sys.stderr)
        return 2
    spans_path, psvc_args = argv[1], argv[3:]
    # The demo service only stops on KeyboardInterrupt; make SIGTERM one so
    # its spans get written.  Broker, proxy and SP install their own handler.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    import psvc.cli

    recorder = Recorder()
    recorder.install(psvc_args)

    try:
        return psvc.cli.main(psvc_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
