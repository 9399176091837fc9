"""Every name the package exports, and every module-level private name,
has a reader outside the tests.

A public name that only its own tests read is surface to maintain with
no user: it either gets a caller in the library, a demo, a script, the
benchmark or the README, or it leaves ``__init__``.  A private helper
that only tests call belongs in the tests."""

import ast
import re
import tokenize
import types
from pathlib import Path

import smallsub

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "smallsub"


def _definitions(path: Path) -> dict[str, set[int]]:
    """The lines of each top-level definition in a source file."""
    spans: dict[str, set[int]] = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            spans.setdefault(name, set()).update(range(node.lineno, node.end_lineno + 1))
    return spans


def _code_names(path: Path) -> list[tuple[int, str]]:
    """The (line, name) of each name token in a source file: code only,
    so no string, docstring or comment."""
    with path.open("rb") as f:
        return [(tok.start[0], tok.string) for tok in tokenize.tokenize(f.readline)
                if tok.type == tokenize.NAME]


def _readers() -> list[Path]:
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    files += sorted((ROOT / "scripts").glob("*.py"))
    files += sorted((ROOT / "bench").rglob("*.py"))
    return files + [ROOT / "bench" / "README.md", ROOT / "README.md"]


def test_every_exported_name_has_a_reader():
    names = [n for n in smallsub.__all__
             if not isinstance(getattr(smallsub, n), types.ModuleType)]
    texts = [(p.read_text().splitlines(), _definitions(p) if p.suffix == ".py" else {})
             for p in _readers()]
    unread = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(line) and i not in spans.get(name, ())
                   for lines, spans in texts
                   for i, line in enumerate(lines, start=1)):
            unread.append(name)
    assert names and not unread, f"exported but read only by tests: {unread}"


def test_every_private_name_has_a_reader():
    """A module-level private name in the package is read by the code of
    the library, a demo, a script or the benchmark, outside its own
    definition: a helper that only tests call is test code, whatever
    docstrings or comments mention it."""
    texts = [(_code_names(p), _definitions(p)) for p in _readers() if p.suffix == ".py"]
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for name in _definitions(path):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(token == name and i not in spans.get(name, ())
                       for names, spans in texts for i, token in names):
                unread.append(f"{path.stem}.{name}")
    assert not unread, f"private names read only by tests: {unread}"
