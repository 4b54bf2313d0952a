"""The benchmark's smoke run keeps the output fingerprints recorded for it.

A fingerprint hashes every answer of a workload: exit codes, outcomes,
losses, written CSVs and reports without their timing field. The values
below were recorded before the solvers scored candidates from group
summaries, so a match means the same clusterings, losses, node counts
and prune counts.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXPECTED = {
    "exact-bnb": "6d907ef72b14501af544abbb0b1a5cbddb659366a597f19bd1e7f06f9df91415",
    "greedy": "6b48381567841874eada7ac25468e6e6d2653391aa61d1679cc1d8f72dbd9b2e",
    "audit": "c90717afa50dc745c6270147cff902c0a71844d33b68db9b5233e04b571ae222",
}


def test_smoke_fingerprints_are_unchanged():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--size", "smoke", "--seconds", "0", "--seed", "0"],  # fmt: skip
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    got: dict[str, set[str]] = {}
    workload = None
    for line in proc.stdout.splitlines():
        words = line.split()
        if words[:1] == ["workload"]:
            workload = words[1]
        elif words[:1] == ["fingerprint"]:
            got.setdefault(workload, set()).add(words[1])
    assert got == {name: {fp} for name, fp in EXPECTED.items()}


# The full-size exact-bnb run (160 instances of 12 rows, 400 nodes each),
# recorded before branch and bound kept groups as bit masks: the same
# clusterings, losses, node counts and prune counts on a workload whose
# searches nearly all stop at their node budget.
EXACT_BNB_FULL = "169f8b165d8eb2b2290a07b3a048402b946d5fc13eba95ae0e50d413fda66366"

# The full-size greedy run (50 merge instances of 30 rows and 50 repair
# instances of 20), recorded while greedy still priced phase-1 merges by
# joining tuple projections: the same clusterings, losses and move
# counts, and the same seeded tie-breaks.
GREEDY_FULL = "574665df704ca237a013f1997045be3b31118853a46b52948efc703aa9473721"


def _full_fingerprint(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--size", "full", "--seconds", "0", "--seed", "0"],  # fmt: skip
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return [line.split()[1] for line in proc.stdout.splitlines() if line.split()[:1] == ["fingerprint"]]


def test_full_exact_bnb_fingerprint_is_unchanged():
    assert _full_fingerprint("exact-bnb") == [EXACT_BNB_FULL]


def test_full_greedy_fingerprint_is_unchanged():
    assert _full_fingerprint("greedy") == [GREEDY_FULL]
