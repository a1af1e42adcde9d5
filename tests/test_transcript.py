"""Event-log round trips and the rendered line format."""

from __future__ import annotations

import json
import threading
import time

from psvc.transcript import (
    ENV_VAR,
    Event,
    RECV,
    SEND,
    SERVE,
    SPAWN,
    Transcript,
    read_events,
)


class TestEmitAndRead:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        transcript = Transcript(path, "Proxy")
        transcript.emit(SEND, "GET", "http://sp.test/")
        transcript.emit(SERVE, "GET", "http://sp.test/", 200, loc="/cb")
        events = read_events(path)
        assert [e.direction for e in events] == [SEND, SERVE]
        assert events[0].actor == "Proxy"
        assert events[0].status is None
        assert events[1].status == 200
        assert events[1].detail == {"loc": "/cb"}
        assert events[0].ts < events[1].ts

    def test_none_details_are_dropped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        Transcript(path, "Broker").emit(
            SERVE, "HEAD", "/white", 313, svc="handle", err=None
        )
        (event,) = read_events(path)
        assert event.detail == {"svc": "handle"}

    def test_line_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(time, "monotonic_ns", lambda: 42)
        path = tmp_path / "t.jsonl"
        Transcript(path, "Broker").emit(SERVE, "HEAD", "/white", 313, svc="handle", err=None, n=2)
        Transcript(path, "Proxy").emit(SEND, "GET", "http://sp.test/\u00e9")
        assert path.read_bytes() == (
            b'{"ts": 42, "actor": "Broker", "direction": "=", "method": "HEAD", "path": "/white", '
            b'"status": 313, "detail": {"svc": "handle", "n": 2}}\n'
            b'{"ts": 42, "actor": "Proxy", "direction": ">", "method": "GET", '
            b'"path": "http://sp.test/\\u00e9", "status": null, "detail": {}}\n'
        )

    def test_fifty_events_open_the_file_once(self, tmp_path):
        path = tmp_path / "t.jsonl"
        transcript = Transcript(path, "Proxy")
        transcript.emit(SEND, "GET", "/0")
        moved = path.rename(tmp_path / "moved.jsonl")  # a file opened again would be a new one
        for n in range(1, 50):
            transcript.emit(SEND, "GET", f"/{n}")
        transcript.close()
        assert not path.exists()
        assert [e.path for e in read_events(moved)] == [f"/{n}" for n in range(50)]

    def test_an_event_after_close_is_dropped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        transcript = Transcript(path, "Proxy")
        transcript.emit(SEND, "GET", "/kept")
        transcript.close()
        transcript.emit(SEND, "GET", "/dropped")
        transcript.close()  # a second close does nothing
        assert [e.path for e in read_events(path)] == ["/kept"]

    def test_reading_orders_by_timestamp(self, tmp_path):
        path = tmp_path / "t.jsonl"
        lines = [
            {"ts": 20, "actor": "B", "direction": "=", "method": "GET", "path": "/b", "status": None},
            {"ts": 10, "actor": "A", "direction": "=", "method": "GET", "path": "/a", "status": None},
        ]
        path.write_text("".join(json.dumps(l) + "\n" for l in lines), "ascii")
        assert [e.actor for e in read_events(path)] == ["A", "B"]

    def test_blank_lines_skipped_and_missing_file_empty(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("\n\n", "ascii")
        assert read_events(path) == []
        assert read_events(tmp_path / "never-written.jsonl") == []

    def test_concurrent_writers_never_interleave(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writers = [Transcript(path, f"Actor{i}") for i in range(4)]

        def pump(transcript: Transcript) -> None:
            for n in range(50):
                transcript.emit(SEND, "GET", f"/step/{n}", n)

        threads = [threading.Thread(target=pump, args=(w,)) for w in writers]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = read_events(path)
        assert len(events) == 200
        assert [e.ts for e in events] == sorted(e.ts for e in events)


class TestNoOpMode:
    def test_unset_environment_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        monkeypatch.chdir(tmp_path)
        Transcript.from_env("SP").emit(SEND, "GET", "/x")
        assert list(tmp_path.iterdir()) == []

    def test_environment_selects_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "run.jsonl"
        monkeypatch.setenv(ENV_VAR, str(path))
        Transcript.from_env("SP").emit(SPAWN, "spawn", "svc", port=5, pid=9, n=1)
        (event,) = read_events(path)
        assert event.actor == "SP"
        assert event.detail == {"port": 5, "pid": 9, "n": 1}


class TestRendering:
    def test_actor_column_is_padded(self):
        line = Event(1, "SP", SEND, "GET", "http://x/").render()
        assert line == "SP      > GET http://x/"

    def test_status_and_sorted_details(self):
        line = Event(
            1, "Broker", SERVE, "HEAD", "/white", 313, {"svc": "handle", "loc": "/cb"}
        ).render()
        assert line == "Broker  = HEAD /white -> 313 loc=/cb svc=handle"

    def test_long_actor_is_not_truncated(self):
        line = Event(1, "Watchdog9", RECV, "GET", "/x", 200).render()
        assert line.startswith("Watchdog9 < GET /x")

    def test_render_events_maps_each(self):
        events = [
            Event(1, "A", SEND, "GET", "/one"),
            Event(2, "B", SERVE, "GET", "/one", 200),
        ]
        assert [e.render() for e in events] == ["A       > GET /one", "B       = GET /one -> 200"]
