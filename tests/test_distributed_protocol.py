"""Property tests for the distributed wire protocol.

The coordinator/worker link is length-prefixed canonical JSON with
sealed (checksum-footer) payload blobs riding inside ``result`` frames.
The load-bearing contract: **every** well-formed message round-trips
through any byte-chunking the TCP stack chooses, and **no** malformed
input — truncated, oversized, garbage, bit-flipped — can do anything
but raise :class:`ProtocolError` (rejection, never a crash, never a
misparsed frame). Hypothesis drives both directions.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.engine.cache import (CorruptPayloadError,
                                            seal_payload, unseal_payload)
from repro.experiments.engine.distributed import (MESSAGE_TYPES,
                                                  MSG_HELLO,
                                                  PROTOCOL_NAME,
                                                  PROTOCOL_VERSION,
                                                  FrameDecoder,
                                                  ProtocolError,
                                                  decode_payload,
                                                  encode_frame,
                                                  encode_payload,
                                                  faults_from_wire,
                                                  faults_to_wire,
                                                  parse_hostport,
                                                  unit_from_wire,
                                                  unit_to_wire)
from repro.experiments.engine.faults import MODES, FaultSpec
from repro.experiments.engine.spec import WorkUnit

#: JSON-able values for message fields (no NaN: canonical JSON refuses).
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(),
              st.integers(min_value=-2**53, max_value=2**53),
              st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=30)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4)),
    max_leaves=10)

#: A well-formed message: string "type" drawn from the defined set plus
#: arbitrary JSON-able extra fields (forward compatibility is part of
#: the contract — receivers ignore fields they don't know).
messages = st.fixed_dictionaries(
    {"type": st.sampled_from(MESSAGE_TYPES)},
    optional={"worker": st.text(max_size=20),
              "key": st.text(max_size=40),
              "attempt": st.integers(min_value=0, max_value=100),
              "dispatch": st.integers(min_value=0, max_value=100),
              "extra": json_values})


def chunked(blob: bytes, sizes) -> list[bytes]:
    """Split ``blob`` into chunks following the ``sizes`` cycle."""
    chunks, i, j = [], 0, 0
    while i < len(blob):
        step = max(1, sizes[j % len(sizes)])
        chunks.append(blob[i:i + step])
        i += step
        j += 1
    return chunks


class TestRoundTrip:
    def test_every_message_type_round_trips(self):
        for mtype in MESSAGE_TYPES:
            message = {"type": mtype, "n": 1}
            decoded = FrameDecoder().feed(encode_frame(message))
            assert decoded == [message]

    @given(message=messages)
    def test_arbitrary_messages_round_trip(self, message):
        assert FrameDecoder().feed(encode_frame(message)) == [message]

    @given(batch=st.lists(messages, min_size=1, max_size=5),
           sizes=st.lists(st.integers(min_value=1, max_value=7),
                          min_size=1, max_size=4))
    def test_round_trip_survives_any_chunking(self, batch, sizes):
        """TCP may deliver any byte split — down to one byte per recv —
        and the decoder must reassemble the exact message sequence."""
        stream = b"".join(encode_frame(m) for m in batch)
        decoder = FrameDecoder()
        out = []
        for chunk in chunked(stream, sizes):
            out.extend(decoder.feed(chunk))
        assert out == batch
        assert decoder.pending_bytes == 0

    def test_frames_are_canonical_json(self):
        """Key order can't change the bytes (byte-identity across runs
        of the coordinator depends on it)."""
        a = encode_frame({"type": "result", "b": 1, "a": 2})
        b = encode_frame({"a": 2, "b": 1, "type": "result"})
        assert a == b
        body = a[4:]
        assert json.loads(body) == {"type": "result", "a": 2, "b": 1}


class TestRejection:
    @given(prefix=st.binary(min_size=0, max_size=20))
    def test_truncated_frames_pend_without_yielding(self, prefix):
        """A truncated frame is *incomplete*, not invalid: no message,
        no exception, bytes held for the rest of the frame."""
        frame = encode_frame({"type": "request", "worker": "w0"})
        decoder = FrameDecoder()
        assert decoder.feed(prefix[:0] + frame[:-1]) == []
        assert decoder.pending_bytes == len(frame) - 1
        # Completing the frame releases exactly the one message.
        assert decoder.feed(frame[-1:]) == \
            [{"type": "request", "worker": "w0"}]
        assert decoder.pending_bytes == 0

    @given(body=st.binary(min_size=1, max_size=64))
    def test_garbage_bodies_reject_never_crash(self, body):
        """Any byte body that is not a canonical message object must
        raise ProtocolError — no other exception type ever escapes."""
        frame = len(body).to_bytes(4, "big") + body
        try:
            decoded = json.loads(body.decode("utf-8"))
            is_message = isinstance(decoded, dict) \
                and isinstance(decoded.get("type"), str)
        except (UnicodeDecodeError, json.JSONDecodeError):
            is_message = False
        decoder = FrameDecoder()
        if is_message:
            assert decoder.feed(frame) == [decoded]
        else:
            with pytest.raises(ProtocolError):
                decoder.feed(frame)

    @given(declared=st.integers(min_value=65, max_value=2**32 - 1))
    def test_oversized_declared_length_rejects_before_buffering(
            self, declared):
        """A corrupt length prefix must not make the decoder wait for
        (or allocate) gigabytes — it rejects on the prefix alone."""
        decoder = FrameDecoder(max_frame_bytes=64)
        with pytest.raises(ProtocolError, match="exceeds"):
            decoder.feed(declared.to_bytes(4, "big"))

    def test_encode_rejects_oversized_and_unserializable(self):
        with pytest.raises(ProtocolError, match="JSON-serializable"):
            encode_frame({"type": "result", "payload": object()})
        with pytest.raises(ProtocolError, match="string 'type'"):
            encode_frame({"no_type": True})
        with pytest.raises(ProtocolError, match="string 'type'"):
            encode_frame(["not", "a", "dict"])

    def test_decoder_poisons_after_error(self):
        """Once out of sync there is no resynchronization heuristic —
        every later feed refuses, forcing the connection to drop."""
        decoder = FrameDecoder(max_frame_bytes=64)
        with pytest.raises(ProtocolError):
            decoder.feed((2**30).to_bytes(4, "big"))
        with pytest.raises(ProtocolError, match="already failed"):
            decoder.feed(encode_frame({"type": "request"}))

    def test_version_mismatch_hello_is_rejectable_data(self):
        """The mismatch frame itself is well-formed — rejection is a
        coordinator *decision* (answered with ``reject``), not a parse
        failure, so the worker gets a clean reason string."""
        hello = {"type": MSG_HELLO, "protocol": PROTOCOL_NAME,
                 "version": PROTOCOL_VERSION + 1, "worker": "w0"}
        (decoded,) = FrameDecoder().feed(encode_frame(hello))
        assert decoded["version"] != PROTOCOL_VERSION


class TestSealedPayloads:
    @given(payload=json_values)
    def test_payload_round_trip(self, payload):
        assert decode_payload(encode_payload(payload)) == payload
        assert unseal_payload(seal_payload(payload)) == payload

    @given(payload=json_values,
           flip=st.integers(min_value=0, max_value=2**31))
    def test_any_bit_flip_is_detected(self, payload, flip):
        """The checksum footer catches a torn or tampered transfer —
        corruption costs a recompute, never a wrong payload."""
        blob = bytearray(seal_payload(payload))
        index = flip % len(blob)
        blob[index] ^= 1 << (flip % 8)
        if bytes(blob) == seal_payload(payload):  # flip in ignored bit?
            return  # cannot happen with sha256 footer, but be explicit
        with pytest.raises(CorruptPayloadError):
            unseal_payload(bytes(blob))

    @given(text=st.text(max_size=40))
    def test_garbage_base64_rejects(self, text):
        try:
            decoded = decode_payload(text)
        except ProtocolError:
            return  # rejection is the expected path
        # Only a genuine sealed blob may decode successfully.
        assert decode_payload(encode_payload(decoded)) == decoded


class TestUnitAndFaultWire:
    params = st.dictionaries(
        st.text(min_size=1, max_size=10),
        st.one_of(st.integers(min_value=-1000, max_value=1000),
                  st.floats(allow_nan=False, allow_infinity=False),
                  st.text(max_size=10)),
        max_size=4)

    @given(params=params, seed=st.integers(min_value=0, max_value=2**31),
           scale=st.floats(min_value=1e-3, max_value=10.0,
                           allow_nan=False))
    def test_unit_round_trip_preserves_identity(self, params, seed, scale):
        unit = WorkUnit(experiment="fig6", unit_id="flows:50",
                        fn="repro.experiments.sweep:run_unit",
                        params=params, scale=scale, seed=seed)
        back = unit_from_wire(unit_to_wire(unit))
        assert back == unit
        assert back.cache_key() == unit.cache_key()

    def test_unit_from_wire_rejects_malformed(self):
        good = unit_to_wire(WorkUnit(
            experiment="fig6", unit_id="flows:50",
            fn="repro.experiments.sweep:run_unit"))
        with pytest.raises(ProtocolError, match="object"):
            unit_from_wire(["nope"])
        with pytest.raises(ProtocolError, match="unknown fields"):
            unit_from_wire({**good, "banana": 1})
        with pytest.raises(ProtocolError, match="invalid unit spec"):
            unit_from_wire({k: v for k, v in good.items()
                            if k != "experiment"})

    @given(mode=st.sampled_from(MODES),
           times=st.integers(min_value=-1, max_value=5),
           hang_s=st.floats(min_value=0.1, max_value=100.0,
                            allow_nan=False))
    def test_fault_specs_round_trip(self, mode, times, hang_s):
        spec = FaultSpec(unit="fig6/*", mode=mode, times=times,
                         hang_s=hang_s)
        assert faults_from_wire(faults_to_wire([spec])) == (spec,)

    def test_fault_specs_reject_malformed(self):
        with pytest.raises(ProtocolError, match="objects"):
            faults_from_wire(["nope"])
        with pytest.raises(ProtocolError, match="invalid fault spec"):
            faults_from_wire([{"unit": "x", "mode": "explode"}])
        with pytest.raises(ProtocolError, match="invalid fault spec"):
            faults_from_wire([{"unit": "x", "banana": 1}])


class TestHostPort:
    @pytest.mark.parametrize("text,expected", [
        ("127.0.0.1:7777", ("127.0.0.1", 7777)),
        (":7777", ("127.0.0.1", 7777)),
        ("7777", ("127.0.0.1", 7777)),
        ("example.com:0", ("example.com", 0)),
        (" 10.0.0.2:65535 ", ("10.0.0.2", 65535)),
    ])
    def test_accepts_cli_notations(self, text, expected):
        assert parse_hostport(text) == expected

    @pytest.mark.parametrize("text", ["", "host:", "host:banana",
                                      "host:-1", "host:65536", ":"])
    def test_rejects_unparseable_addresses(self, text):
        with pytest.raises(ValueError):
            parse_hostport(text)

    @settings(max_examples=50)
    @given(port=st.integers(min_value=0, max_value=65535))
    def test_port_round_trip(self, port):
        assert parse_hostport(f"host:{port}") == ("host", port)
