"""The shipped scripts run end to end and print exactly what they printed before."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

SURVEY_MAX_DIM_6 = """\
        dims    MES        rank   maximal classes
-------------------------------------------------
   (2, 2, 2)  False           3                 ?
   (3, 2, 2)  False           3                 2
   (3, 3, 2)  False           4                 ?
   (3, 3, 3)  False       [4,9]                 ?
   (4, 2, 2)   True           4                 1
   (4, 3, 2)  False           5                 5
   (4, 3, 3)  False       [5,9]                 ?
   (4, 4, 2)  False           6                 ?
   (4, 4, 3)  False      [6,12]                 ?
   (4, 4, 4)  False      [7,16]                 ?
   (5, 2, 2)   True           4                 1
   (5, 3, 2)  False           5                 2
   (5, 3, 3)  False       [6,9]                 ?
   (5, 4, 2)  False           6            finite
   (5, 4, 3)  False      [7,12]                 ?
   (5, 4, 4)  False      [7,16]                 ?
   (5, 5, 2)  False      [6,10]                 ?
   (5, 5, 3)  False      [7,15]                 ?
   (5, 5, 4)  False      [8,20]                 ?
   (5, 5, 5)  False      [9,25]                 ?
   (6, 2, 2)   True           4                 1
   (6, 3, 2)   True           6                 1
   (6, 3, 3)  False           7                 ?
   (6, 4, 2)  False           7            finite
   (6, 4, 3)  False      [7,12]                 ?
   (6, 4, 4)  False      [8,16]                 ?
   (6, 5, 2)  False           8                 ?
   (6, 5, 3)  False      [8,15]                 ?
   (6, 5, 4)  False      [9,20]                 ?
   (6, 5, 5)  False     [10,25]                 ?
   (6, 6, 2)  False      [7,12]                 ?
   (6, 6, 3)  False      [9,18]                 ?
   (6, 6, 4)  False     [10,24]                 ?
   (6, 6, 5)  False     [11,30]                 ?
   (6, 6, 6)  False     [11,36]                 ?
"""


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_profile_survey_golden():
    proc = run_script("profile_survey.py", "--max-dim", "6")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == SURVEY_MAX_DIM_6


def test_strassen_demo_runs():
    proc = run_script("strassen_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "tensor rank interval: [4, 7]" in proc.stdout
