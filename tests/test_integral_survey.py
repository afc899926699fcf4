"""``scripts/integral_survey.py`` prints the same table as when it was pinned.

It is the one caller of ``applications.dual_right_integrals``; the digest of
its stdout over each field was recorded before the matrix store changed.
"""

import hashlib
import importlib.util
import os
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "integral_survey.py")

#: --field flag -> sha256 of stdout
SURVEY_DIGESTS = {
    "Q": "490108c7557224ab8897a6beed1670cedd6a8b74e010676fea8e98111fc7cea9",
    "GF:7": "490108c7557224ab8897a6beed1670cedd6a8b74e010676fea8e98111fc7cea9",
}


@pytest.mark.parametrize("flag", sorted(SURVEY_DIGESTS))
def test_survey_output_is_pinned(flag, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("integral_survey", SCRIPT)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    monkeypatch.setattr(sys, "argv", ["integral_survey.py", "--field", flag])
    survey.main()
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SURVEY_DIGESTS[flag]
