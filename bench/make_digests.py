"""Record the sha256 of every ``verify`` output the certify workload uses.

Run once, at the commit whose certificate bytes are the reference (the
byte-identity contract of ROADMAP.md), from the root of a checkout:

    python3 bench/make_digests.py

It writes bench/digests.json: for each "genus,kmax" the digest of the
``--format json`` output and of the text summary (without the line that
``--seed`` adds).  Later commits must reproduce these bytes exactly.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import DIGESTS, Certify, Op, Timer, _run_cli  # noqa: E402


def main() -> int:
    kmaxes = [k for lo, hi in Certify.DIGEST_KMAX for k in range(lo, hi + 1)]
    digests = {}
    for genus in Certify.GENERA:
        for kmax in kmaxes:
            entry = {}
            for fmt in ("json", "text"):
                argv = ["verify", "--genus", str(genus), "--kmax", str(kmax)]
                if fmt == "json":
                    argv += ["--format", "json"]
                code, text = _run_cli(Op("small", (), argv), Timer())
                if code != 0:
                    print(f"verify {argv} exited {code}", file=sys.stderr)
                    return 1
                entry[fmt] = hashlib.sha256(text.encode()).hexdigest()
            digests[f"{genus},{kmax}"] = entry
        print(f"genus {genus} done", file=sys.stderr)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
