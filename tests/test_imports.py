"""What `import mes` loads: every layer module is registered at once, and
numpy is imported only by a command that needs an array."""

import os
import pathlib
import subprocess
import sys

from mes import rank, slocc, spaces

ROOT = pathlib.Path(__file__).resolve().parents[1]

# prints, after import and after each command, whether numpy is loaded
CHILD = """
import contextlib, io, sys
import mes, mes.cli
layers = ("construct", "core", "io", "rank", "slocc")
registered = all(getattr(mes, name) is sys.modules.get("mes." + name) for name in layers)
print("import", registered, "numpy" in sys.modules)
for argv in (["check-mes", "--dims", "3,2,2"], ["catalog", "--dims", "4,3,2"],
             ["rank-bounds", "--dims", "5,3,3"], ["construct", "epr", "--d", "3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = mes.cli.main(argv)
    print(argv[0], code, "numpy" in sys.modules)
"""


def test_profile_commands_run_without_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "import True False",
        "check-mes 0 False",
        "catalog 0 False",
        "rank-bounds 0 False",
        "construct 0 True",
    ]


def test_layer_modules_keep_the_profile_names_the_benchmark_calls():
    assert slocc.finite_class_catalog is spaces.finite_class_catalog
    assert rank.space_rank_bounds is spaces.space_rank_bounds
