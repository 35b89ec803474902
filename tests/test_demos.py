"""Every script under demos/ runs to completion against the source tree and
prints what the seeded-output corpus holds (see seeded_corpus.py)."""

import pytest

from seeded_corpus import DEMOS, demo_process, expected, output_differences

WANT = expected()["demos"]


def test_the_corpus_holds_every_demo():
    assert sorted(WANT) == [p.name for p in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    proc = demo_process(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    diffs = output_differences(proc.stdout, WANT[script.name], "text")
    assert not diffs, diffs[:10]
