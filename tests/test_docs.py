"""The README's Library table against the package it describes."""

import importlib
import re
from pathlib import Path

import propeq

README = Path(__file__).resolve().parent.parent / "README.md"


def library_table():
    """{module: names} from the rows of the README's Library table."""
    text = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    rows = re.findall(r"^\| `(propeq\.\w+)` \| (.*) \|$", text.split("\n\n", 2)[1], re.M)
    return {module: re.findall(r"`(\w+)`", contents) for module, contents in rows}


def test_library_table_names_are_importable_from_their_modules():
    table = library_table()
    assert "propeq.pipeline" in table
    for module, names in table.items():
        mod = importlib.import_module(module)
        assert names, module
        for name in names:
            assert hasattr(mod, name), f"{module}.{name}"


def test_library_table_lists_every_public_name():
    listed = {name for names in library_table().values() for name in names}
    assert set(propeq.__all__) <= listed, sorted(set(propeq.__all__) - listed)
