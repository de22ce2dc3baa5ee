"""Design rules the package keeps, checked on its source."""

import ast
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
