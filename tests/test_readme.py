"""The package exports only what README.md documents."""

from pathlib import Path
import re
from types import ModuleType

import curvkind

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_is_documented():
    text = README.read_text()
    fenced = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    inline = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", text, flags=re.M | re.S))
    documented = set(re.findall(r"[A-Za-z_]\w*", " ".join(fenced + inline)))
    exported = {
        name
        for name, value in vars(curvkind).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(exported - documented) == []
