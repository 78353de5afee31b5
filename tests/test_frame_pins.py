"""Pins of the live request path's frames and of its drop rule.

The live path packs a request once per op and a reply once per answer,
then opens each frame once on the other side. These tests hold both ends
to fixed bytes and to a fixed verdict, whatever shortcut either end takes:

* the request and reply frames one serve run writes for the first 2 000
  ops of ``serve_serial``'s inputs (perfbench's DTR workload, seed 7, one
  request outstanding) hash to pinned digests;
* so do each op's first request frame and the ack frame that settles it,
  taken in op-id order: bytes no routing choice moves, so this pin holds
  while a routing change adds or removes redirects in between;
* an MDS link fed an unknown tag, or a request tag over a malformed body,
  is dropped, and nothing it carried is served.
"""

import asyncio
import dataclasses
import hashlib
import struct

import pytest

from repro import registry
from repro.cluster.messages import WIRE_VERSION, ClientReply, ClientRequest
from repro.traces import DatasetProfile, TraceGenerator
from repro.transport.asyncio_net import AsyncioTransport, FrameLink
from repro.transport.live import LiveConfig, LiveMDS
from repro.transport.loadgen import LoadConfig
from repro.transport.serve import serve_workload
from tests.test_wire import FakeSocket, _framed, _request_body

SEED = 7
OPS = 2_000

#: sha256 of the concatenated request / reply frames, in write order.
REQUEST_FRAMES_SHA256 = (
    "f15bfbe591ea6fe8133c3ed8988ad78979941f075da9051f3f551619570fddfb"
)
REPLY_FRAMES_SHA256 = (
    "b79a5382217216e3e4544b5261596f45b1605b73f21a7dc1a0afd103dceaa3aa"
)
#: sha256 of each op's first request frame then its ack frame, op by op.
PER_OP_FRAMES_SHA256 = (
    "0d753cbba3b82d834756961f3634ee9e6aee9f312b522af3a41c367d35f53aec"
)


def _serve_serial_inputs():
    """perfbench's ``serve_serial`` inputs at seed 7, cut to ``OPS`` ops."""
    profile = DatasetProfile.dtr(8_000)
    profile = dataclasses.replace(
        profile.scaled(num_operations=3_000), seed=profile.seed + SEED
    )
    inputs = TraceGenerator(profile).generate()
    return dataclasses.replace(inputs, trace=inputs.trace.slice(0, OPS))


def _serve_serial(monkeypatch, record):
    """One serial serve run of the pinned inputs, every frame written
    passed to ``record(data)`` first."""
    write = FrameLink.write

    def recording(link, data):
        record(data)
        return write(link, data)

    monkeypatch.setattr(FrameLink, "write", recording)
    report = serve_workload(
        registry.create("d2-tree"), _serve_serial_inputs(),
        LiveConfig(num_servers=4, num_monitors=3, seed=SEED),
        LoadConfig(rate=1e6, max_inflight=1, seed=SEED),
    )
    assert report.violations == []
    assert report.acked == OPS and report.failovers == 0
    return report


def test_the_frames_of_a_serial_run_are_pinned(monkeypatch):
    frames = {ClientRequest.TAG: hashlib.sha256(), ClientReply.TAG: hashlib.sha256()}
    counts = dict.fromkeys(frames, 0)

    def record(data):
        digest = frames.get(data[5])
        if digest is not None:
            digest.update(data)
            counts[data[5]] += 1

    report = _serve_serial(monkeypatch, record)
    # One request and one reply per send: acks plus redirects.
    assert counts == {ClientRequest.TAG: OPS + report.redirects,
                      ClientReply.TAG: OPS + report.redirects}
    assert frames[ClientRequest.TAG].hexdigest() == REQUEST_FRAMES_SHA256
    assert frames[ClientReply.TAG].hexdigest() == REPLY_FRAMES_SHA256


def test_each_ops_first_request_and_its_ack_are_pinned(monkeypatch):
    """Where an op is sent first, and how many redirects it takes, are
    routing choices; its request bytes and the ack that settles it are
    not (a global-layer update is acked by its primary, a local-layer op
    by its owner, a read by the replica its entry draw picked)."""
    first_request, ack = {}, {}

    def record(data):
        tag = data[5]
        if tag == ClientRequest.TAG:
            first_request.setdefault(struct.unpack_from(">q", data, 6)[0], bytes(data))
        elif tag == ClientReply.TAG and data[33:33 + data[30]] == b"ack":
            ack[struct.unpack_from(">q", data, 6)[0]] = bytes(data)

    _serve_serial(monkeypatch, record)
    assert sorted(first_request) == sorted(ack) == list(range(OPS))
    digest = hashlib.sha256()
    for op_id in range(OPS):
        digest.update(first_request[op_id] + ack[op_id])
    assert digest.hexdigest() == PER_OP_FRAMES_SHA256


GOOD_REQUEST = _framed(bytes([WIRE_VERSION, ClientRequest.TAG]) + _request_body())


def _feed_mds(data: bytes):
    """Push ``data`` through one inbound link of a lone MDS; what it wrote
    back, whether it closed the link, and what ``on_lost`` reported."""

    async def go():
        mds = LiveMDS(0, AsyncioTransport(mode="tcp"), LiveConfig(num_servers=1, num_monitors=0))
        lost = []
        link = FrameLink(mds._on_frame, lambda link, exc: lost.append(exc))
        socket = FakeSocket()
        link.connection_made(socket)
        link.data_received(data)
        if socket.closed:
            link.connection_lost(None)
        return mds, socket, lost

    return asyncio.run(go())


def test_a_well_formed_request_is_answered_on_the_same_link():
    mds, socket, lost = _feed_mds(GOOD_REQUEST)
    assert len(socket.written) == 1 and not socket.closed and lost == []


@pytest.mark.parametrize("frame", [
    _framed(bytes([WIRE_VERSION, 99]) + _request_body()),
    _framed(bytes([WIRE_VERSION, ClientRequest.TAG]) + _request_body(path_len=500)),
    _framed(bytes([WIRE_VERSION, ClientRequest.TAG]) + _request_body(tail=b"read\xff")),
    _framed(bytes([WIRE_VERSION, ClientRequest.TAG])),
], ids=["unknown tag", "path overruns the body", "invalid UTF-8", "empty body"])
def test_an_mds_link_drops_an_unknown_tag_or_a_malformed_request(frame):
    """The request after the bad frame is never answered: the link closed
    on the bad one, with the ``ValueError`` the decoder raised."""
    mds, socket, lost = _feed_mds(frame + GOOD_REQUEST)
    assert socket.closed and socket.written == []
    assert mds.served == 0 and mds.redirects == 0
    assert len(lost) == 1 and isinstance(lost[0], ValueError)
