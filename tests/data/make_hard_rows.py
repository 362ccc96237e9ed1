"""Write `hard_rows.json`: the record witness of every check, as a replay corpus.

For each check of the catalog at n = 5..7, seeds 1..3 and 1000 samples, the
corpus keeps the witness that `verify` records (the row of the check's
minimum slack), with every float stored as `float.hex`.
`tests/test_hard_rows.py` replays each entry through `witness_slack`, so the
rows functions are held to these hard rows whatever rows the samplers draw
later.  The file names the commit that generated it.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_hard_rows.py
"""

import json
import os
import subprocess
import sys

from symcone import RunContext, registry_list, run_checks

NS = (5, 6, 7)
SEEDS = (1, 2, 3)
SAMPLES = 1000
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hard_rows.json")


def _hex(value):
    """A float, a list of floats or None, with each float as `float.hex`."""
    if value is None:
        return None
    if isinstance(value, list):
        return [float(v).hex() for v in value]
    return float(value).hex()


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    requests = [
        (c.id, RunContext(n=n, samples=SAMPLES, seed=seed))
        for seed in SEEDS
        for n in NS
        for c in registry_list()
        if n >= c.min_n
    ]
    entries = []
    for (cid, ctx), res in zip(requests, run_checks(requests)):
        if isinstance(res, Exception) or res.witness is None:
            print(f"skipped {cid} n={ctx.n} seed={ctx.seed}: no witness", file=sys.stderr)
            continue
        w = res.witness
        entries.append({
            "check": cid, "n": ctx.n, "seed": ctx.seed, "k": w["k"], "i": w["i"], "K": _hex(w["K"]),
            "kappa1": _hex(w["kappa1"]), "slack": _hex(w["slack"]), "kappa": _hex(w["kappa"]),
            "aux": {key: _hex(val) for key, val in w["aux"].items()},
        })
    head = {"commit": _commit(), "ns": list(NS), "seeds": list(SEEDS), "samples": SAMPLES}
    with open(OUT, "w") as fh:
        fh.write('{"source": ' + json.dumps(head) + ',\n "entries": [\n')
        fh.write(",\n".join(json.dumps(e, separators=(",", ":")) for e in entries))
        fh.write("\n]}\n")
    print(f"wrote {len(entries)} entries to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
