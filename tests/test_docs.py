"""README's package list names the API: every identifier it puts in backticks under a module resolves there
(prose symbols such as rho stay out of backticks in that list)."""
from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def package_list() -> dict[str, list[str]]:
    """The identifiers in backticks of each bullet ``* **`regvar.<module>`** - ...``, by module."""
    text = README.read_text(encoding="utf-8").split("The package provides:", 1)[1].split("\n## ", 1)[0]
    bullets = (re.match(r"\*\*`(regvar\.\w+)`\*\*(.*)", b, re.S).groups() for b in text.split("\n* ")[1:])
    return {module: [name for name in re.findall(r"`([^`]*)`", body) if re.fullmatch(r"[A-Za-z_][\w.]*", name)]
            for module, body in bullets}


NAMES = [(module, name) for module, names in package_list().items() for name in names]


def test_the_list_covers_every_module():
    assert set(package_list()) == {f"regvar.{m}" for m in ("popa", "quadrature", "haar", "kernels", "asymptotics",
                                                           "subadd")}


@pytest.mark.parametrize("module, name", NAMES, ids=[f"{module}:{name}" for module, name in NAMES])
def test_every_named_api_resolves(module, name):
    if name.startswith("regvar."):
        importlib.import_module(name)
        return
    obj = importlib.import_module(module)
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
