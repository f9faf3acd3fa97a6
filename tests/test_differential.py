"""A slice of the differential runner's corpus (tests/differential.py).

The full corpus takes about a minute; Tier-1 runs every seventh run of it,
which covers every command (each input's runs start one command further on)
in a few seconds.
"""

from pathlib import Path

import differential

ROOT = Path(__file__).resolve().parents[1]
SLICE = differential.corpus_runs()[::7]


def test_commands_cover_the_corpus():
    commands = {tuple(argv[:argv.index("--")]) for _label, argv in SLICE}
    assert commands == set(differential.COMMANDS)
    assert len(differential.corpus_runs()) >= 4000


def test_slice_keeps_the_exit_code_contract():
    for label, argv in SLICE:
        code, _out, err = differential.run(argv)
        assert code in (0, 2, 3), label
        assert "Traceback" not in err, label


def test_against_this_checkout_finds_no_difference():
    labels, argvs = zip(*SLICE[::40], *SLICE[-3:])  # the last are zero polynomials
    ours = differential.run_records(argvs)
    theirs = differential.run_records_in(ROOT, list(argvs))
    assert differential.differences(labels, ours, theirs) == []
    # boundary on a Stable golden input exits 3, the zero polynomials 2
    assert {r[0] for r in ours} == {0, 2, 3}
