"""Golden pins for ``repro chaos``: stdout and the ``--trace-out`` JSONL.

A chaos run is deterministic, so its RMCSan event stream — which
``view_change`` / ``lease_revoked`` / ``proc_crashed`` is emitted when,
with which fields in which order — can be pinned byte for byte.  The
hashes below were captured at the commit *before* crash handling was
restructured (one view transition in ``runtime/membership.py``, recovery
owned by each lock); a reordered emit fails here, not in a nightly.

Cases: the default kill script under each of the seven ``--lock`` kinds,
plus the seven command lines of the CI ``chaos`` / ``chaos-partition``
jobs.  To re-pin after an *intended* change of the event stream, print
the new digests with ``pytest -q tests/experiments/test_chaos_golden.py``
(the assertion message carries them) and say why in the commit.
"""

import hashlib

import pytest

from repro.cli import main

#: (chaos arguments, sha256 of stdout, sha256 of the trace, trace lines)
GOLDEN = [
    (
        "--lock ticket",
        "741d57c859c440a27459c62bf1611d63db338447f342e3171bfb386be5b90871",
        "7158996e47ded3e59deb2ae68da4b88245b355eaf3c321ed83d9b13f21a0963d",
        306,
    ),
    (
        "--lock lh",
        "edad67b461e541090a9a4585c6182969c04e6ee2d896ca93e35c88426c337097",
        "27d5109817832d6f6c69bf75e8c98de91ac10c8bab58323dc9f9460ec95f25ee",
        329,
    ),
    (
        "--lock server",
        "0252976c71b6155996c61958aed8f6a20da8529dfbef28bb52e8977333c7fa27",
        "cb85ec76231c683e30575c70edf57655d77eea9c25a3bfdae2030c9a80d8692a",
        642,
    ),
    (
        "--lock hybrid",
        "07e94aeffedfe0696c49a0b9f2dfb6fb8fd96d64227367a0a9bceb5d80797d0b",
        "29962a8d6c45d46bd38b48c1466faeb735eb766009946f0da4b1e2055920dfd5",
        645,
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
        "07e94aeffedfe0696c49a0b9f2dfb6fb8fd96d64227367a0a9bceb5d80797d0b",
        "29962a8d6c45d46bd38b48c1466faeb735eb766009946f0da4b1e2055920dfd5",
        645,
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
