"""Record the SHA-256 of every file a cli-files operation can write.

Run from the repository root at a commit whose output is trusted:

    python3 perfbench/record_digests.py

It runs every write group the cli-files workload can choose and stores
the digests in perfbench/digests.json, which the benchmark's correctness
gate compares against.
"""

from __future__ import annotations

import json
import shutil
import sys

import workload as wl


def main() -> int:
    dl = wl.import_deltalens()
    workdir = wl.ROOT / ".perfbench" / "record-digests"
    shutil.rmtree(workdir, ignore_errors=True)
    digests: dict[str, str] = {}
    try:
        for i, (key, kind, argvs, _) in enumerate(wl.all_cli_groups()):
            group_dir = workdir / f"g{i}"
            group_dir.mkdir(parents=True)
            for argv in argvs:
                resolved = [str(group_dir / t[1:]) if t.startswith("@") else t for t in argv]
                code, crash = wl.call_cli(dl["cli"].main, resolved)
                if kind in ("malformed", "known-defect"):
                    continue
                if crash or code != 0:
                    print(f"{key}: {' '.join(argv)} gave exit {code} {crash}", file=sys.stderr)
                    return 1
                for flag, token in zip(argv, argv[1:]):
                    if flag.startswith("--out") and token.startswith("@"):
                        digests[f"{key} {token}"] = wl.output_digest(group_dir / token[1:])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(wl.BENCH / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
