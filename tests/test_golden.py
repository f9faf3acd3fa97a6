"""Replay the golden behaviour corpus built by ``make_golden.py``.

Every input must give the same exit code and byte-identical ``classify
--json`` stdout as when the corpus was recorded.  The one allowed change is a
recorded failure that now gets a verdict, and only if that verdict's
certificate verifies.  Every certificate a verdict carries must verify
against its input.
"""

import json

from biquadric.bipoly import parse
from biquadric.cli import cert_from_json
from make_golden import CORPUS_PATH, corpus_inputs, run_classify, summary


def _newly_supported(text: str, stdout: str) -> bool:
    return json.loads(stdout)["certificate"] is not None and _certificate_verifies(text, stdout)


def _certificate_verifies(text: str, stdout: str) -> bool:
    """True unless the report carries a certificate that fails to verify."""
    cert = json.loads(stdout)["certificate"]
    return cert is None or cert_from_json(cert).verify(parse(text))


def test_golden_corpus_replays():
    entries = json.loads(CORPUS_PATH.read_text())
    assert len(entries) >= 200
    changed = []
    for entry in entries:
        code, stdout = run_classify(entry["text"])
        now = summary(code, stdout)
        if code == 0 and not _certificate_verifies(entry["text"], stdout):
            changed.append(f"{entry['name']}: certificate does not verify")
        if now["exit"] == entry["exit"] and now["sha256"] == entry["sha256"]:
            continue
        if entry["exit"] != 0 and code == 0 and _newly_supported(entry["text"], stdout):
            continue
        was = {k: entry.get(k) for k in ("exit", "class", "stratum", "violated")}
        changed.append(f"{entry['name']}: was {was}, now {now}")
    assert not changed, "\n".join(changed)


def test_corpus_inputs_are_the_committed_ones():
    # Re-recording the corpus replays the committed inputs, so a rebuilt
    # corpus differs from the committed one only where the output changed.
    entries = json.loads(CORPUS_PATH.read_text())
    assert corpus_inputs() == [(e["name"], e["text"]) for e in entries]
