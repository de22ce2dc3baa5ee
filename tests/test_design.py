"""Design rules the package keeps, checked on its source."""

import ast
import builtins
import sys
from collections import Counter
from pathlib import Path

import mes


def test_private_attributes_are_reached_only_through_self():
    # a private name belongs to its own object: no module reads or writes
    # another module's privates, or another object's
    hits = []
    for path in sorted(Path(mes.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
                hits.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert hits == []


def test_each_exception_class_has_its_own_exit_code():
    # errors.py holds the only exception classes, and cli.main catches each
    # one by name, so every failure class maps to one exit code
    source = {path.name: ast.parse(path.read_text(), str(path))
              for path in Path(mes.__file__).parent.glob("*.py")}
    defined = {node.name for node in ast.walk(source["errors.py"])
               if isinstance(node, ast.ClassDef)}
    main = next(node for node in ast.walk(source["cli.py"])
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = {name.id for handler in ast.walk(main) if isinstance(handler, ast.ExceptHandler)
              for name in ast.walk(handler.type) if isinstance(name, ast.Name)}
    assert defined - caught == set()
    exceptions = defined | {name for name in dir(builtins)
                            if isinstance(getattr(builtins, name), type)
                            and issubclass(getattr(builtins, name), BaseException)}
    elsewhere = [f"{name}:{node.lineno}: {node.name}"
                 for name, tree in source.items() if name != "errors.py"
                 for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                 and any(ast.unparse(base).split(".")[-1] in exceptions for base in node.bases)]
    assert elsewhere == []


def test_each_precondition_message_is_written_once():
    # a condition checked in two places drifts apart: each refusal is raised
    # from one place, so no two raises share a message
    messages = Counter(
        ast.unparse(node.args[0])
        for path in Path(mes.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "PreconditionError"
        and node.args)
    assert [message for message, count in messages.items() if count > 1] == []


def test_only_decide_turns_singular_values_into_a_rank():
    # two SVDs of one matrix round differently near the cutoff, so a second
    # decision could contradict the first: numerical_rank, the cutoff rule,
    # is used in one place, the cut decision that core.decide remembers
    uses = []
    for path in sorted(Path(mes.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        uses += [f"{path.name}:" + ".".join(f.name for f in functions if node in ast.walk(f))
                 for node in ast.walk(tree)
                 if getattr(node, "id", getattr(node, "attr", None)) == "numerical_rank"]
    assert uses == ["core.py:_cut_rank"]


def test_the_profile_layer_imports_only_the_stdlib_and_errors():
    # mes.spaces answers questions about a space alone: numpy, or a mes module
    # that imports it, there would make every profile command pay for numpy
    path = Path(mes.__file__).parent / "spaces.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert {name for name in imported
            if name.split(".")[0] not in sys.stdlib_module_names} == {".errors"}
