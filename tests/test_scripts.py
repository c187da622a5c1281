"""The experiment scripts under scripts/, loaded by path as they are run."""

import runpy
from pathlib import Path

from test_acceptance import SWEEP_CORPUS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_scripts_run_and_share_the_acceptance_corpus(capsys):
    calibrate = runpy.run_path(str(SCRIPTS / "calibrate_thresholds.py"))
    assert calibrate["main"](["--seeds", "1"]) == 0
    assert capsys.readouterr().out.startswith("default thresholds: Thresholds(")
    # the README calls the script's default corpus criterion 9's set
    sweep = runpy.run_path(str(SCRIPTS / "sweep_corpus.py"))
    assert sweep["DEFAULT_CORPUS"] == SWEEP_CORPUS
