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
"""

import hashlib

import pytest

from repro.cli import main

#: (chaos arguments, sha256 of stdout, sha256 of the trace, trace lines)
GOLDEN = [
    (
        "--lock ticket",
        "d7587250af47d0938018608c70ca617985b615f8f9993519c1308bdd3ccbf419",
        "c08600059a504382243ab024769aed87f04bdeb820c757098c62d739f84994d7",
        304,
    ),
    (
        "--lock lh",
        "edad67b461e541090a9a4585c6182969c04e6ee2d896ca93e35c88426c337097",
        "27d5109817832d6f6c69bf75e8c98de91ac10c8bab58323dc9f9460ec95f25ee",
        329,
    ),
    (
        "--lock server",
        "ede6452be1e861bae697a1c5cdfcbd96821a4a8af80790dc4c7ef78c49bb1e87",
        "d7fb5a84a7ae7481f419eaa9843f45b1e05a6a3006a6d53c50a6417fd59dfdaf",
        640,
    ),
    (
        "--lock hybrid",
        "850526b1aad9ee826c0446de16a88ed38aad75b789d975d6a71d0c3075c5c772",
        "a5c54efd54702a0c864c38912a63f240ec9b506011ca3df1c2255e058717530b",
        643,
    ),
    (
        "--lock mcs",
        "ad138eb1dc367bbad4f7022223d6a070059666d10b727ca311d8c7dcd03cedb6",
        "d846e0c6d37481f6fbdc630d56beab0e40f00aa8029c1cb80c243f30f79daf63",
        1065,
    ),
    (
        "--lock raymond",
        "bf31aac0544e0fa4cdb28646ed7f8d1ecdbaa98fc84b1b82f4e38a15a402f701",
        "f66d0387531704ef53384a7898ce962bce98f216e40006d91c6420baa0ff2f4c",
        543,
    ),
    (
        "--lock naimi",
        "49431fe22083e083265e11d76756abd6681c7fe927163c131af9c6e80d26e0e2",
        "c8dc8049d1cb5208c761f028f44618099a4b386002c9ed09830fabeaf8d8e61a",
        543,
    ),
    (
        "",
        "850526b1aad9ee826c0446de16a88ed38aad75b789d975d6a71d0c3075c5c772",
        "a5c54efd54702a0c864c38912a63f240ec9b506011ca3df1c2255e058717530b",
        643,
    ),
    (
        "--procs 6 --lock mcs --kill 4:60 --kill 5:900 --kill-seed 7",
        "6774d9a4f7ed653647e13cc7c987f74d7e6879898e56072679f38052f09a1371",
        "4eea5110f79b040749ca0e71e8add07b1d0b399a46908239d7810e37fcc4927a",
        657,
    ),
    (
        "--procs 6 --partition 5:200:1400",
        "44a7848cb618fa0174f3a1006b021a05f610316e2ed587955b3fb12df7a2894e",
        "c15b10ee253e543efe472f57dd5158a4ba08646c64ef4d04b51dedf6616470d8",
        430,
    ),
    (
        "--procs 6 --partition 4,5:200:1400",
        "2ec8e4f796d77072b2f8a0505d701b8271df85f4415899afe6fb922ce14d0835",
        "fcfe57a7632dc9c10bfa46a2eb326c412b34434aa7ce1b3be4b91737f5a223f1",
        435,
    ),
    (
        "--procs 6 --lock naimi --partition 4:60:900",
        "cb564b71119f176fc14104b7c08b25ba507e6351193e5c1ff21adb2309435810",
        "b22fbcf15a31b1ef211e4657e819896080b2a02aebb1f176e076e482d516b7fc",
        343,
    ),
    (
        "--procs 6 --stall 3:300:900",
        "b5183d038168d328a1cb8da0e1ea534086a98bf6bf01c5cf2e22e2a7f87f337c",
        "0112253a3605c226613fb5d995af27a48ccd3960198eb0b14dd2b86fd7096d2f",
        429,
    ),
    (
        "--procs 6 --lock naimi --kill 3:900 --partition 5:200:1400",
        "de0be90014dc40855840425120c5dccdcad0ce32eaf63ab9d350e1ad7fd09524",
        "e3c7878e93bffa09081c7de7a8a2875a3d2176871e62bd94321293c6735ac222",
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
