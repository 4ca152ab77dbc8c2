"""README stays in step with the public API: every name the package exports is
documented there."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def exported_names() -> list[str]:
    """The names src/multiris/__init__.py imports, in file order."""
    tree = ast.parse((ROOT / "src" / "multiris" / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def backticked_identifiers(text: str) -> set[str]:
    """Every identifier inside a fenced code block or an inline code span of
    text, such as `name` or `name(arg)`."""
    fenced = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
    spans = fenced.findall(text) + re.findall(r"`([^`\n]+)`", fenced.sub("", text))
    return {word for span in spans for word in re.findall(r"[A-Za-z_]\w*", span)}


def test_backticked_identifiers_read_inside_calls_and_blocks():
    text = "`assemble(ch, stack)` and `x.y`, not z\n```python\nrun(spec)\n```\nnor w ``"
    assert backticked_identifiers(text) == {"assemble", "ch", "stack", "x", "y", "run", "spec"}


def test_every_export_is_documented_in_readme():
    documented = backticked_identifiers((ROOT / "README.md").read_text())
    names = exported_names()
    assert len(names) > 50
    missing = [name for name in names if name not in documented]
    assert not missing, f"exported but not named in backticks in README.md: {missing}"
