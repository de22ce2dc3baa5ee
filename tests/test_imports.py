"""What `import mes` loads: every layer module is registered at once, and
numpy is imported only by a command that needs an array."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

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


# runs the commands given as a JSON list of argvs, then prints which of the
# other arguments are loaded modules; NUMPY_CHILD prints what numpy alone loads
LEAN_CHILD = """
import contextlib, io, json, sys
import mes, mes.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert mes.cli.main(argv) == 0
print(sorted(set(sys.argv[2:]) & set(sys.modules)))
"""
NUMPY_CHILD = "import sys, numpy; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
PROFILE_COMMANDS = [["check-mes", "--dims", "3,2,2"], ["catalog", "--dims", "4,3,2"],
                    ["rank-bounds", "--dims", "5,3,3"]]
ARRAY_COMMANDS = [["construct", "epr", "--d", "2", "-o", "epr.json"], ["maximal", "epr.json"],
                  ["construct", "canonical", "--dims", "3,2,2", "--r", "1", "-o", "c.json"],
                  ["classify", "c.json"]]


# (interpreter flags, commands, modules that must stay unloaded); with site, a
# .pth file may import typing before mes starts, and -S runs no .pth file; an
# array command may load what importing numpy alone loads, and nothing more
@pytest.mark.parametrize("flags, commands, absent", [
    ([], PROFILE_COMMANDS, ["dataclasses", "inspect", "numpy"]),
    (["-S"], PROFILE_COMMANDS, ["dataclasses", "inspect", "numpy", "typing"]),
    ([], ARRAY_COMMANDS, ["dataclasses"]),
], ids=["site", "no-site", "array"])
def test_profile_commands_load_no_dataclasses_or_typing(tmp_path, flags, commands, absent):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = lambda *args: subprocess.run([sys.executable, *flags, "-c", *args], capture_output=True,
                                       text=True, env=env, cwd=tmp_path, timeout=120)
    proc = run(LEAN_CHILD, json.dumps(commands), *absent)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("[]\n" if "numpy" in absent else run(NUMPY_CHILD, *absent).stdout)


def test_layer_modules_keep_the_profile_names_the_benchmark_calls():
    assert slocc.finite_class_catalog is spaces.finite_class_catalog
    assert rank.space_rank_bounds is spaces.space_rank_bounds
