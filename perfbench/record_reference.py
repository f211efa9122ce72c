"""Record reference.json: every workload's outputs at the default seed.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are trusted; the checker compares
later commits against what it writes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import worker  # puts the checkout's src/ on sys.path
from checks import REFERENCE
from workloads import DEFAULT_SEED, WORKLOADS, build, outputs


def main() -> int:
    recorded = {}
    with tempfile.TemporaryDirectory(dir=worker.HERE) as out_root:
        for name in WORKLOADS:
            ops = build(name, DEFAULT_SEED)
            _, _, results = worker.run_pass(ops, Path(out_root))
            for op, (raw, error) in zip(ops, results):
                if error:
                    print(f"{op.name}: {error}", file=sys.stderr)
                    return 1
                recorded[op.name] = outputs(op, raw)
    lines = [f" {json.dumps(name)}: {json.dumps(recorded[name], sort_keys=True)}"
             for name in sorted(recorded)]
    REFERENCE.write_text(f'{{"seed": {DEFAULT_SEED}, "outputs": {{\n'
                         + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {REFERENCE} ({len(recorded)} operations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
