"""Pinned artifacts of the four mode-comparison commands.

``repro slo``, ``membership``, ``tenancy`` and ``prefetch`` each replay
one seeded scenario under several modes and write a report plus
per-mode logs.  Every byte of those files, and the exit code, is a
property of the code: a refactor of the comparison scaffolding must
leave them identical.  A deliberate change of simulated behaviour or of
the report layout re-records them here.
"""

import hashlib
import os

import pytest

from repro.cli import main

PINNED = {
    "membership": (0, {
        "report.txt":
            "1c705481f541cebf6e369a3efe009c41ba91036edb46cc4b6b13feee81011f33",
        "transitions.log":
            "1d502165171a6cd09b6dc3af0887c72ead197cbf33266d8de9c379bd64b7b49f",
    }),
    "prefetch": (0, {
        "report.txt":
            "785f41de7c6fdf20b34d7090c8e0717e88c57e0ed6e75a87c370edf5695b01bb",
        "windows.log":
            "645ea33af2e23b58992c023553908472bb4b2417cf6356920616c7a3900e6fee",
    }),
    "slo": (0, {
        "dashboard.txt":
            "b52d2bd2ce6423354e048f8a0ce3d40202ba976a9a30036b5df06a3de5f2befe",
        "spans_baseline.jsonl":
            "e9a1b88b3359272292d90f36fe339b0d10259c05f95937c503a604567226b206",
        "spans_crash_at_0_002s.jsonl":
            "238ceb50382884434229b532bbec9217ba1df9e8d616bc6f574994d2388aacc8",
    }),
    "tenancy": (0, {
        "report.txt":
            "90598d7f3344c5aca7f75d80ce46f86a7a1f8df9f295fa3a9fbd3ffb2f6cf221",
        "windows.log":
            "b162c9c4fd37e6a8bdbf03d96aeb44675e84241c1a6273ef3b0e0783e179b995",
    }),
}


def _digests(outdir) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("cmd", sorted(PINNED))
def test_smoke_artifacts_match_pin(cmd, tmp_path, capsys):
    rc = main([cmd, "--smoke", "--output-dir", str(tmp_path)])
    assert (rc, _digests(tmp_path)) == PINNED[cmd]
