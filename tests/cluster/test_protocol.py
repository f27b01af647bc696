"""The length-prefixed JSON wire protocol."""

import pytest

from repro.cluster import protocol
from repro.cluster.protocol import ProtocolError


class TestFraming:
    def test_roundtrip(self):
        message = {"type": "lock", "id": 7, "txn": "T1", "entity": "x"}
        assert protocol.decode(protocol.encode(message)) == message

    def test_prefix_is_big_endian_length(self):
        frame = protocol.encode({"type": "ping", "id": 1})
        assert int.from_bytes(frame[:4], "big") == len(frame) - 4

    def test_encoding_is_canonical(self):
        a = protocol.encode({"type": "ping", "id": 1, "z": 0, "a": 1})
        b = protocol.encode({"a": 1, "z": 0, "id": 1, "type": "ping"})
        assert a == b

    def test_truncated_frame_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode(b"\x00\x00")

    def test_length_mismatch_rejected(self):
        frame = protocol.encode({"type": "ping", "id": 1})
        with pytest.raises(ProtocolError):
            protocol.decode(frame + b"extra")

    def test_oversized_length_rejected(self):
        huge = (protocol.MAX_FRAME + 1).to_bytes(4, "big") + b"{}"
        with pytest.raises(ProtocolError):
            protocol.decode(huge)

    def test_non_json_payload_rejected(self):
        frame = len(b"not json").to_bytes(4, "big") + b"not json"
        with pytest.raises(ProtocolError):
            protocol.decode(frame)

    def test_untyped_message_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_payload(b'{"id": 1}')

    def test_surrounding_whitespace_is_accepted(self):
        payload = b' \n{"type": "ping", "id": 1}\t \n'
        assert protocol.decode_payload(payload) == {"type": "ping", "id": 1}

    @pytest.mark.parametrize(
        "payload, error",
        [
            (b'{"type":"ping","id":1} {}', "Extra data: line 1 column 24 (char 23)"),
            (b"not json", "Expecting value: line 1 column 1 (char 0)"),
            (
                b'{"type": "ping",',
                "Expecting property name enclosed in double quotes: line 1 column 17 (char 16)",
            ),
            (b" \n", "Expecting value: line 2 column 1 (char 2)"),
        ],
    )
    def test_bad_json_is_worded_as_before(self, payload, error):
        with pytest.raises(ProtocolError) as caught:
            protocol.decode_payload(payload)
        assert str(caught.value) == f"frame payload is not valid JSON: {error}"

    def test_deep_nesting_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="not valid JSON: maximum recursion depth"):
            protocol.decode_payload(b"[" * 100_000)

    def test_a_failed_encode_leaves_no_circularity_marks(self):
        # The C encoder marks every container it is inside; an encode
        # that raises half-way must not leave those marks behind for
        # the next encode of the same objects to trip over.
        message = {"type": "ping", "a": {"b": {1}}}
        with pytest.raises(TypeError):
            protocol.encode(message)
        message["a"]["b"] = [1]
        assert protocol.decode(protocol.encode(message)) == {"type": "ping", "a": {"b": [1]}}

    def test_a_circular_message_still_raises_and_leaves_no_marks(self):
        message = {"type": "ping", "a": {}}
        message["a"]["loop"] = message
        with pytest.raises(ValueError, match="Circular reference"):
            protocol.encode(message)
        del message["a"]["loop"]
        assert protocol.decode(protocol.encode(message)) == {"type": "ping", "a": {}}


class TestMessages:
    def test_request_builder(self):
        message = protocol.request("lock", 3, txn="T1", entity="x")
        assert message == {"type": "lock", "id": 3, "txn": "T1", "entity": "x"}

    def test_unknown_request_kind_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.request("gossip", 1)

    def test_reply_builder(self):
        message = protocol.reply(3, "granted", entity="x")
        assert message["type"] == "reply"
        assert message["id"] == 3
        assert message["status"] == "granted"

    def test_kind_tables_are_disjoint(self):
        assert not set(protocol.REQUEST_KINDS) & set(protocol.PEER_KINDS)


class TestTraceContext:
    """The optional ``trace``/``wire`` fields ride the frame untouched."""

    def test_trace_field_survives_the_roundtrip(self):
        message = {
            "type": "lock",
            "id": 7,
            "txn": "T1",
            "entity": "x",
            "trace": {"id": "T1#42.1", "span": 3, "pid": 42},
            "wire": {"send_ns": 123456789},
        }
        assert protocol.decode(protocol.encode(message)) == message

    def test_messages_without_trace_still_decode(self):
        message = {"type": "lock", "id": 7, "txn": "T1", "entity": "x"}
        decoded = protocol.decode(protocol.encode(message))
        assert decoded == message
        assert "trace" not in decoded

