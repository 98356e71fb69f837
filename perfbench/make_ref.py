"""Regenerate the reference series the output checks compare against.

Runs each run workload once per seed and stores, per series file, its row
count and every EVERY-th row plus the last as the exact CSV line.  The
references in ref/ were made at the commit that added this benchmark; run
this again only when a change is meant to alter the physics.

Usage: python3 perfbench/make_ref.py tg64-run-resume
       python3 perfbench/make_ref.py rb16-dense-fit [SEED ...]  (default 0-23)

Entries for other seeds already in ref/ are kept.
"""

import json
import shutil
import sys

from run import REF, SRC, WORK, WORKLOADS, iteration

EVERY = 8


def sample(lines) -> dict:
    keep = sorted(set(range(0, len(lines), EVERY)) | {len(lines) - 1})
    return {"nrows": len(lines), "rows": {str(i): lines[i] for i in keep}}


def record(name: str, key: str, seed: int, path) -> None:
    table = json.loads(path.read_text()) if path.is_file() else {}
    table.pop(key, None)  # check the new run against no stale reference
    path.write_text(json.dumps(table, indent=1) + "\n")
    wl = WORKLOADS[name]
    d = WORK / f"ref-{name}-{key}"
    shutil.rmtree(d, ignore_errors=True)
    out = iteration(wl, seed, d, traced=False)
    if out["problems"]:
        raise SystemExit(f"{name} seed {seed}: {out['problems']}")
    table[key] = {
        f: sample((d / f).read_text().splitlines()[1:]) for f in wl.outputs
    }
    shutil.rmtree(d)
    path.write_text(json.dumps(table, indent=1) + "\n")
    print(f"{name} {key}: ok", flush=True)


def main(argv) -> int:
    name = argv[1]
    sys.path.insert(0, str(SRC))
    REF.mkdir(exist_ok=True)
    path = REF / f"{name}.json"
    if name == "tg64-run-resume":  # Taylor-Green does not use the seed
        record(name, "*", 0, path)
    else:
        for seed in [int(s) for s in argv[2:]] or range(24):
            record(name, str(seed), seed, path)
    WORK.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
