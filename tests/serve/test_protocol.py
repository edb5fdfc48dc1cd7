"""Wire-protocol tests: framing, validation, and key injectivity."""

import asyncio
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import protocol
from repro.serve.handlers import prepare_cell, request_key


def roundtrip(doc: dict) -> dict:
    return protocol.decode_frame(protocol.encode_frame(doc))


class TestFraming:
    def test_roundtrip(self):
        doc = {"endpoint": "cell", "params": {"app": "QMCPACK/HDF5"},
               "id": 3, "v": 1}
        assert roundtrip(doc) == doc

    def test_canonical_bytes(self):
        # the same document always frames to the same bytes,
        # independent of insertion order
        a = protocol.encode_frame({"b": 1, "a": 2})
        b = protocol.encode_frame({"a": 2, "b": 1})
        assert a == b

    def test_header_is_big_endian_length(self):
        frame = protocol.encode_frame({})
        (length,) = struct.unpack(">I", frame[:protocol.HEADER_SIZE])
        assert length == len(frame) - protocol.HEADER_SIZE

    def test_decode_truncated_header(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_frame(b"\x00")

    def test_decode_length_mismatch(self):
        frame = protocol.encode_frame({"x": 1})
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_frame(frame + b"extra")

    def test_oversized_body_refused_at_encode(self):
        doc = {"blob": "x" * (protocol.MAX_FRAME + 1)}
        with pytest.raises(protocol.FrameTooLarge):
            protocol.encode_frame(doc)

    def test_non_object_body_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_body(b"[1,2,3]")

    def test_garbage_body_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_body(b"\xff\xfe not json")

    @given(st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.recursive(
            st.none() | st.booleans()
            | st.integers(min_value=-2**31, max_value=2**31)
            | st.text(max_size=12),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=6), inner, max_size=3),
            max_leaves=8),
        max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_any_json_object(self, doc):
        assert roundtrip(doc) == doc


class TestReadFrame:
    """Stream-level behavior of the async reader."""

    def feed(self, data: bytes, **kwargs) -> dict:
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await protocol.read_frame(reader, **kwargs)

        return asyncio.run(go())

    def test_reads_one_frame(self):
        doc = {"endpoint": "healthz", "params": {}}
        assert self.feed(protocol.encode_frame(doc)) == doc

    def test_clean_eof(self):
        with pytest.raises(EOFError):
            self.feed(b"")

    def test_truncated_header(self):
        with pytest.raises(protocol.ProtocolError):
            self.feed(b"\x00\x01")

    def test_oversized_prefix(self):
        header = struct.pack(">I", protocol.MAX_FRAME + 1)
        with pytest.raises(protocol.FrameTooLarge):
            self.feed(header)

    def test_garbage_prefix_reads_as_too_large(self):
        # random high bytes decode to an absurd length: the reader
        # refuses before buffering gigabytes
        with pytest.raises(protocol.FrameTooLarge):
            self.feed(b"\xde\xad\xbe\xef garbage")

    def test_non_json_body(self):
        body = b"not json at all"
        with pytest.raises(protocol.ProtocolError):
            self.feed(struct.pack(">I", len(body)) + body)

    def test_custom_frame_limit(self):
        doc = {"blob": "x" * 256}
        frame = protocol.encode_frame(doc)
        with pytest.raises(protocol.FrameTooLarge):
            self.feed(frame, max_frame=64)


class TestParseRequest:
    def test_minimal(self):
        req = protocol.parse_request({"endpoint": "healthz"})
        assert req.endpoint == "healthz"
        assert req.params == {}
        assert req.id is None
        assert req.deadline_s is None

    def test_full(self):
        req = protocol.parse_request(
            {"v": 1, "endpoint": "cell", "params": {"app": "X"},
             "id": "r-1", "deadline_s": 2})
        assert req.deadline_s == 2.0
        assert isinstance(req.deadline_s, float)

    def test_to_dict_roundtrip(self):
        req = protocol.Request(endpoint="cell", params={"app": "X"},
                               id=9, deadline_s=1.5)
        assert protocol.parse_request(req.to_dict()) == req

    @pytest.mark.parametrize("doc", [
        {},
        {"endpoint": ""},
        {"endpoint": 7},
        {"endpoint": "cell", "params": [1]},
        {"endpoint": "cell", "id": 1.5},
        {"endpoint": "cell", "deadline_s": 0},
        {"endpoint": "cell", "deadline_s": -1},
        {"endpoint": "cell", "deadline_s": True},
        {"endpoint": "cell", "deadline_s": "soon"},
        {"endpoint": "cell", "v": 99},
    ])
    def test_rejects(self, doc):
        with pytest.raises(protocol.BadRequest):
            protocol.parse_request(doc)


class TestResponses:
    def test_ok_shape(self):
        doc = protocol.ok_response(4, {"x": 1}, cached=True)
        assert doc["ok"] is True
        assert doc["cached"] is True
        assert doc["coalesced"] is False
        assert protocol.response_error_code(doc) is None

    def test_error_shape(self):
        doc = protocol.error_response(
            None, protocol.ERR_OVERLOADED, "queue full")
        assert doc["ok"] is False
        assert protocol.response_error_code(doc) \
            == protocol.ERR_OVERLOADED

    def test_unknown_code_refused(self):
        with pytest.raises(ValueError):
            protocol.error_response(None, "teapot", "no")

    def test_malformed_error_reads_as_internal(self):
        assert protocol.response_error_code({"ok": False}) \
            == protocol.ERR_INTERNAL

    def test_taxonomy_is_closed(self):
        assert protocol.ERROR_CODES == {
            "bad_request", "overloaded", "deadline", "internal"}
        assert protocol.RETRYABLE_CODES == {"overloaded"}


class TestRequestKeys:
    """Service keys are exactly the batch CLI's cache keys."""

    def test_cell_request_hits_study_all_cache(self, tmp_path):
        # `study all` fills the store; a served `cell` request for the
        # same configuration must be answered from it, not recomputed
        from repro.serve.client import request_sync
        from repro.serve.handlers import resolve_one_variant
        from repro.serve.server import ServeConfig, start_background
        from repro.study.cache import ResultCache
        from repro.study.runner import study_cells

        cache = ResultCache(root=tmp_path / "cache")
        batch = study_cells(nranks=2, seed=7, cache=cache,
                            variants=[resolve_one_variant("QMCPACK/HDF5")])
        handle = start_background(ServeConfig(workers=1, drain_s=2.0),
                                  cache=cache)
        try:
            doc = request_sync(handle.host, handle.port, "cell",
                               {"app": "QMCPACK/HDF5", "nranks": 2,
                                "seed": 7}, deadline_s=120)
        finally:
            handle.stop()
        assert doc["ok"] is True, doc
        assert doc["cached"] is True
        assert doc["result"] == batch.payloads[0]

    def test_request_key_rejects_like_the_server(self):
        with pytest.raises(protocol.BadRequest):
            request_key("cell", {"app": "NOPE"})
        with pytest.raises(protocol.BadRequest):
            request_key("healthz", {})  # inline: nothing to cache

    def test_comma_string_names_key_like_a_list(self):
        # --param rules=L001,L002 reaches the handler as one string;
        # it must key identically to the JSON-list form
        base = {"app": "QMCPACK/HDF5", "nranks": 4, "seed": 7}
        assert request_key("lint", {**base, "rules": "L002, L001"}) \
            == request_key("lint", {**base, "rules": ["L001", "L002"]})
        assert request_key("chaos", {**base, "plans": "ost-crash"}) \
            == request_key("chaos", {**base, "plans": ["ost-crash"]})
        for bad in ("", ",", ["ok", 3], 7):
            with pytest.raises(protocol.BadRequest):
                request_key("lint", {**base, "rules": bad})

    def test_ambiguous_selector_names_candidates(self):
        # FLASH ships two HDF5 variants; a query answers for exactly
        # one configuration, so the selector must disambiguate
        with pytest.raises(protocol.BadRequest) as excinfo:
            request_key("cell", {"app": "FLASH/HDF5"})
        assert "ambiguous" in str(excinfo.value)
        assert "FLASH-HDF5 fbs" in str(excinfo.value)
        # the full label resolves fine
        request_key("cell", {"app": "FLASH-HDF5 fbs"})

    @given(
        nranks=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        nranks2=st.integers(min_value=1, max_value=64),
        seed2=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_cell_key_injective(self, nranks, seed, nranks2, seed2):
        a = request_key("cell", {"app": "QMCPACK/HDF5",
                                 "nranks": nranks, "seed": seed})
        b = request_key("cell", {"app": "QMCPACK/HDF5",
                                 "nranks": nranks2, "seed": seed2})
        assert (a == b) == ((nranks, seed) == (nranks2, seed2))

    def test_distinct_endpoints_never_collide(self):
        params = {"app": "QMCPACK/HDF5", "nranks": 2, "seed": 7}
        keys = {request_key(ep, dict(params))
                for ep in ("cell", "lint", "advise", "chaos")}
        assert len(keys) == 4

    def test_param_order_is_irrelevant(self):
        a = request_key("cell", json.loads(
            '{"app":"QMCPACK/HDF5","nranks":2,"seed":7}'))
        b = request_key("cell", json.loads(
            '{"seed":7,"app":"QMCPACK/HDF5","nranks":2}'))
        assert a == b
