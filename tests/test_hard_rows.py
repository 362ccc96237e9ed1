"""Replay of the hard-rows corpus `data/hard_rows.json`.

Each entry is the record witness of one check (n = 5..7, seeds 1..3, 1000
samples) as the samplers drew it when the corpus was written.  Rows are
evaluated independently of their block, so `witness_slack` must give the
recorded slack bit for bit, whatever the samplers draw today, and the slack
must pass the check's tolerance.
"""

import json
import os

import pytest

from symcone import witness_slack
from symcone.registry import INEQUALITY_TOL, PSD_EPS, REGISTRY

with open(os.path.join(os.path.dirname(__file__), "data", "hard_rows.json")) as fh:
    CORPUS = json.load(fh)["entries"]


def _float(value):
    """A `float.hex` string, a list of them or None, decoded."""
    if value is None:
        return None
    if isinstance(value, list):
        return [float.fromhex(v) for v in value]
    return float.fromhex(value)


def test_corpus_covers_every_check():
    assert {e["check"] for e in CORPUS} == set(REGISTRY)
    assert len(CORPUS) >= 350


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: f"{e['check']}-n{e['n']}-s{e['seed']}")
def test_witness_replays_bit_for_bit(entry):
    witness = {
        "check": entry["check"], "kappa": _float(entry["kappa"]), "k": entry["k"], "i": entry["i"],
        "K": _float(entry["K"]), "kappa1": _float(entry["kappa1"]),
        "aux": {key: _float(val) for key, val in entry["aux"].items()},
    }
    slack = witness_slack(witness)
    assert slack.hex() == entry["slack"]
    tol = PSD_EPS if REGISTRY[entry["check"]].psd_scaled else INEQUALITY_TOL
    assert slack >= -tol
