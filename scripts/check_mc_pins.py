"""Compare a ``repro mc --json-out`` report with the pinned RMCheck rows.

    python scripts/check_mc_pins.py mc.json [tests/mc/pins.json]

Each target's ``schedules_run``, ``trace_dups``, ``pruned`` and
``distinct_end_states`` must equal its pin, and the report must hold
exactly the pinned targets.  Prints one line per mismatch and exits 1, or
exits 0.  A change that is meant to move a row re-pins it in the open.
"""

import json
import sys
from pathlib import Path

PINS = Path(__file__).resolve().parent.parent / "tests" / "mc" / "pins.json"


def mismatches(report, pins):
    rows = {row["target"]: row for row in report}
    for target in sorted(set(rows) | set(pins)):
        if target not in rows or target not in pins:
            yield f"{target}: {'not pinned' if target in rows else 'not in the report'}"
            continue
        got = {key: rows[target][key] for key in pins[target]}
        if got != pins[target]:
            yield f"{target}: {got} != pinned {pins[target]}"


def main(argv):
    report = json.loads(Path(argv[1]).read_text())
    pins = json.loads(Path(argv[2] if len(argv) > 2 else PINS).read_text())
    bad = list(mismatches(report, pins))
    for line in bad:
        print(line)
    print(f"mc pins: {len(pins) - len(bad)} of {len(pins)} rows match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
