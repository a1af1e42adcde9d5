"""Opaque handle minting and validation."""

import random
import threading
import time

import pytest

import psvc.broker.handles
from psvc.broker.handles import HandleCodec, HandleError

URL_SAFE = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_=")


class TestRoundTrip:
    def test_mint_open(self):
        codec = HandleCodec()
        handle = codec.mint("sp.example.org:8080", "cc-personal-service")
        opened = codec.open(handle)
        assert opened.requester_host == "sp.example.org:8080"
        assert opened.descriptor_id == "cc-personal-service"
        assert abs(opened.mint_time - time.clock_gettime(time.CLOCK_BOOTTIME)) < 5

    def test_text_is_transport_safe(self):
        codec = HandleCodec()
        for i in range(50):
            handle = codec.mint(f"sp{i}:80", f"svc-{i}")
            assert set(handle) <= URL_SAFE

    def test_same_inputs_give_distinct_handles(self):
        codec = HandleCodec()
        a = codec.mint("sp:80", "svc")
        b = codec.mint("sp:80", "svc")
        assert a != b
        assert codec.open(a).descriptor_id == codec.open(b).descriptor_id == "svc"

    def test_no_plaintext_leakage(self):
        codec = HandleCodec()
        host, service = "secret-host.example:4443", "very-secret-service"
        handle = codec.mint(host, service)
        assert host not in handle
        assert service not in handle
        assert "secret" not in handle


class TestRejection:
    def test_random_byte_strings_rejected(self):
        codec = HandleCodec()
        real = codec.mint("sp:80", "svc")
        rng = random.Random(616)
        for _ in range(500):
            length = rng.choice([0, len(real), rng.randint(1, 80)])
            text = rng.choice(
                ["".join(rng.choices("0123456789abcdef", k=length)),
                 rng.randbytes(length).decode("latin-1")]
            )
            with pytest.raises(HandleError):
                codec.open(text)

    def test_single_character_mutations_rejected(self):
        # any position: only the exact text that was minted opens
        codec = HandleCodec()
        rng = random.Random(2718)
        alphabet = sorted(URL_SAFE)
        for _ in range(200):
            handle = codec.mint("sp:80", "svc")
            pos = rng.randrange(len(handle))
            replacement = rng.choice([c for c in alphabet if c != handle[pos]])
            mutated = handle[:pos] + replacement + handle[pos + 1 :]
            with pytest.raises(HandleError):
                codec.open(mutated)

    def test_not_base64_rejected(self):
        codec = HandleCodec()
        with pytest.raises(HandleError):
            codec.open("!!!not//even\\base64!!!")

    def test_truncated_rejected(self):
        codec = HandleCodec()
        handle = codec.mint("sp:80", "svc")
        with pytest.raises(HandleError):
            codec.open(handle[: len(handle) // 2])
        with pytest.raises(HandleError):
            codec.open("")

    def test_other_codec_rejects(self):
        ours = HandleCodec()
        theirs = HandleCodec()
        with pytest.raises(HandleError):
            theirs.open(ours.mint("sp:80", "svc"))


class TestTable:
    def test_handle_is_128_random_bits_as_hex(self):
        handle = HandleCodec().mint("sp:80", "svc")
        assert len(handle) == 32
        assert set(handle) <= set("0123456789abcdef")

    def test_cap_evicts_oldest_first(self, monkeypatch):
        monkeypatch.setattr(psvc.broker.handles, "MAX_LIVE_HANDLES", 3)
        codec = HandleCodec()
        handles = [codec.mint("sp:80", f"svc-{n}") for n in range(5)]
        for gone in handles[:2]:
            with pytest.raises(HandleError):
                codec.open(gone)
        assert [codec.open(h).descriptor_id for h in handles[2:]] == ["svc-2", "svc-3", "svc-4"]
        assert len(codec._live) == 3

    def test_concurrent_mints_never_collide(self):
        codec = HandleCodec()
        minted: list[list[tuple[str, str]]] = [[] for _ in range(8)]

        def mint_many(n: int) -> None:
            for i in range(400):
                minted[n].append((codec.mint(f"sp{n}:80", f"svc-{n}-{i}"), f"svc-{n}-{i}"))

        threads = [threading.Thread(target=mint_many, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        pairs = [pair for per_thread in minted for pair in per_thread]
        assert len({handle for handle, _ in pairs}) == len(pairs) == 3200
        for handle, descriptor_id in pairs:
            assert codec.open(handle).descriptor_id == descriptor_id


class TestExpiry:
    def test_fresh_handle_lives(self):
        codec = HandleCodec()
        assert codec.open(codec.mint("sp:80", "svc")).descriptor_id == "svc"

    def test_old_handle_dies(self, monkeypatch):
        monkeypatch.setattr(psvc.broker.handles, "HANDLE_MAX_AGE_S", 0.05)
        codec = HandleCodec()
        handle = codec.mint("sp:80", "svc")
        time.sleep(0.1)
        with pytest.raises(HandleError):
            codec.open(handle)

    @pytest.fixture
    def step_wall_clock(self, monkeypatch):
        """Step the handle module's wall clock by the seconds given."""

        class SteppedTime:
            offset = 0.0

            def time(self) -> float:
                return time.time() + self.offset

            def __getattr__(self, name):
                return getattr(time, name)

        stepped = SteppedTime()
        monkeypatch.setattr(psvc.broker.handles, "time", stepped)
        return lambda seconds: setattr(stepped, "offset", stepped.offset + seconds)

    def test_a_forward_wall_clock_step_keeps_a_live_handle(self, step_wall_clock):
        codec = HandleCodec()
        handle = codec.mint("sp:80", "svc")
        step_wall_clock(1000.0)
        assert codec.open(handle).descriptor_id == "svc"

    def test_a_backward_wall_clock_step_revives_no_expired_handle(
        self, monkeypatch, step_wall_clock
    ):
        monkeypatch.setattr(psvc.broker.handles, "HANDLE_MAX_AGE_S", 0.05)
        codec = HandleCodec()
        handle = codec.mint("sp:80", "svc")
        time.sleep(0.1)
        step_wall_clock(-1000.0)
        with pytest.raises(HandleError, match="expired"):
            codec.open(handle)
