"""The experiment scripts under scripts/, loaded by path as they are run."""

import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_scripts_run_and_share_the_acceptance_corpus(capsys):
    # criterion 9 runs sweep_corpus.py's own corpus through its own mix builder
    calibrate = runpy.run_path(str(SCRIPTS / "calibrate_thresholds.py"))
    assert calibrate["main"](["--seeds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("default thresholds: Thresholds(")
    assert lines[1] == "default private cache: CCF at h <= 64, not CCF at h >= 128"
