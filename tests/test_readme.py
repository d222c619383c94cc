"""Every backticked dotted name in README.md whose first part is a hypsurf
module (`groups._compose_rows`, `hypsurf.pool`, `hypsurf.cli.main(argv)`)
resolves, so the API table cannot go on naming what has moved or gone."""

import importlib
import pkgutil
import re
from pathlib import Path

import hypsurf

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(hypsurf.__path__)}
DOTTED = re.compile(r"(hypsurf\.)?(\w+)((?:\.\w+)*)")


def readme_names() -> list[str]:
    """The leading dotted name of each backticked span, for the spans
    that start with a hypsurf module and have a dot."""
    names = []
    for span in re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8")):
        m = DOTTED.match(span)
        if m and m[2] in MODULES and (m[1] or m[3]):
            names.append(m[0])
    return names


def test_readme_names_hypsurf_modules():
    names = readme_names()
    assert "groups._compose_rows" in names and "hypsurf.pool" in names


def test_readme_dotted_names_resolve():
    missing = []
    for name in readme_names():
        module, *attrs = name.removeprefix("hypsurf.").split(".")
        obj = importlib.import_module(f"hypsurf.{module}")
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(name)
                break
            obj = getattr(obj, attr)
    assert missing == []
