"""Golden pins for ``repro chaos``: stdout and the ``--trace-out`` JSONL.

A chaos run is deterministic, so its RMCSan event stream — which
``view_change`` / ``lease_revoked`` / ``proc_crashed`` is emitted when,
with which fields in which order — can be pinned byte for byte; a
reordered emit fails here, not in a nightly.

Cases: the default kill script under each of the seven ``--lock`` kinds
(the default is ``--lock hybrid``, so the two rows carry the same
digests), plus the chaos/partition/stall command lines that
``scripts/unreached.py`` also drives.  To re-pin after an *intended*
change of the event stream, print the new digests with ``pytest -q
tests/experiments/test_chaos_golden.py`` (the assertion message carries
them) and say why in the commit.

The ticket, server and hybrid rows were re-pinned when the ticket lock's
home came to own its queue's recovery: the recovery coordinator no longer
reads the ticket cell (one ``mem_read`` fewer per declaration), and a
dead waiter's ticket is reported revoked when the counter reaches it
instead of at the declaration.

Every row's trace was re-pinned when ``lock_rel`` came to be emitted at a
release's commit point (``BaseLock._commit``) instead of when the release
call returns: the same events, each ``lock_rel`` earlier, so no line count
and no stdout but the two ``--lock mcs`` rows' moved.  Those two moved
when the MCS home came to own its queue's order: recovery reads the
successor's ``locked`` flag instead of the dead node's ``next`` pair (one
trace line fewer) and charges one shared-memory access instead of two, so
the holder's recovery latency reads 0.1 us instead of 0.2 and the next
grant comes 0.1 us earlier.
"""

import hashlib

import pytest

from repro.cli import main

#: (chaos arguments, sha256 of stdout, sha256 of the trace, trace lines)
GOLDEN = [
    (
        "--lock ticket",
        "d7587250af47d0938018608c70ca617985b615f8f9993519c1308bdd3ccbf419",
        "8b8e40533fcb7f801a4cc3eaa97c9d02d4a8e51698fe4a5ee40bf83512b4ceaa",
        304,
    ),
    (
        "--lock lh",
        "edad67b461e541090a9a4585c6182969c04e6ee2d896ca93e35c88426c337097",
        "76fb0f7dc2537c02cac4fe211c78d85a1c103765de880f22b15a9753f3fe8703",
        329,
    ),
    (
        "--lock server",
        "ede6452be1e861bae697a1c5cdfcbd96821a4a8af80790dc4c7ef78c49bb1e87",
        "31c56a174bafaadc829bf9bdb751eb4eec4361d93c5681049f1b4ee32a4e55e3",
        640,
    ),
    (
        "--lock hybrid",
        "850526b1aad9ee826c0446de16a88ed38aad75b789d975d6a71d0c3075c5c772",
        "11af6fbb023354711b58526b8c93c6c44d75e7c1aea391f151f8b82bd3759ec9",
        643,
    ),
    (
        "--lock mcs",
        "d02db9e751cb74d0cf910e1538ed90156d9fd7180d12abb100440575b8dde91f",
        "db0e1c7d0f8b90379d480240790f0523b2ff09d61add8c90c876cbfd8eb26c9f",
        1064,
    ),
    (
        "--lock raymond",
        "bf31aac0544e0fa4cdb28646ed7f8d1ecdbaa98fc84b1b82f4e38a15a402f701",
        "46f933364f27df55dea6289d32d25db7b6492abcdef39e5c8669c077583429e7",
        543,
    ),
    (
        "--lock naimi",
        "49431fe22083e083265e11d76756abd6681c7fe927163c131af9c6e80d26e0e2",
        "94c7057abd8639e729eae11b30ec19044f7ad16ae2bb30341436d3bfd7f61f33",
        543,
    ),
    (
        "",
        "850526b1aad9ee826c0446de16a88ed38aad75b789d975d6a71d0c3075c5c772",
        "11af6fbb023354711b58526b8c93c6c44d75e7c1aea391f151f8b82bd3759ec9",
        643,
    ),
    (
        "--procs 6 --lock mcs --kill 4:60 --kill 5:900 --kill-seed 7",
        "f4a141172fc1255158849087cc7a69f16f6ab5aa0853a2170b1fb7f85dabbaf5",
        "a5b8e9a079df362220e9a2b38996f558ac5eb5c489872b118ed58d9cec99ebfe",
        656,
    ),
    (
        "--procs 6 --partition 5:200:1400",
        "44a7848cb618fa0174f3a1006b021a05f610316e2ed587955b3fb12df7a2894e",
        "f02a176c1c9c1a9ed5f133c9969e31ebffff46f57ed5980d857ca9f055db52d5",
        430,
    ),
    (
        "--procs 6 --partition 4,5:200:1400",
        "2ec8e4f796d77072b2f8a0505d701b8271df85f4415899afe6fb922ce14d0835",
        "a0434b790ab1f6c0dd488f09ae55f25bf0196c03295bedf3c6a87c9c67aa1c71",
        435,
    ),
    (
        "--procs 6 --lock naimi --partition 4:60:900",
        "cb564b71119f176fc14104b7c08b25ba507e6351193e5c1ff21adb2309435810",
        "e25bc9bf209c7083c1c481e99fe45399866d6f4205e77838fdb25c1601207495",
        343,
    ),
    (
        "--procs 6 --stall 3:300:900",
        "b5183d038168d328a1cb8da0e1ea534086a98bf6bf01c5cf2e22e2a7f87f337c",
        "d713e42f47dd8f0e4a89e64774f699e325372f23f49b977c4f7c23b38f774ca9",
        429,
    ),
    (
        "--procs 6 --lock naimi --kill 3:900 --partition 5:200:1400",
        "de0be90014dc40855840425120c5dccdcad0ce32eaf63ab9d350e1ad7fd09524",
        "533f4af948e64aed358db92c3d93c43ef8b9e364a0d8b06d4a776ce5b73337de",
        331,
    ),
]


@pytest.mark.parametrize(
    "argline, stdout_sha, trace_sha, trace_lines",
    GOLDEN,
    ids=[case[0] or "default" for case in GOLDEN],
)
def test_chaos_stdout_and_trace_are_pinned(
    argline, stdout_sha, trace_sha, trace_lines, tmp_path, capsys
):
    path = tmp_path / "trace.jsonl"
    assert main(["chaos", *argline.split(), "--trace-out", str(path)]) == 0
    # The one run-dependent token on stdout is the trace path itself.
    out = capsys.readouterr().out.replace(str(path), "TRACE")
    trace = path.read_bytes()
    got = (
        hashlib.sha256(out.encode()).hexdigest(),
        hashlib.sha256(trace).hexdigest(),
        trace.count(b"\n"),
    )
    assert got == (stdout_sha, trace_sha, trace_lines)
