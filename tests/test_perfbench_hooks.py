"""The program names the benchmark's span recorder rebinds must exist.

``perfbench/spans.py`` looks up each ``TARGETS`` entry by name when a
traced run starts, so renaming or deleting one of those functions would
otherwise break only ``perfbench/run.py --trace 1``. The list is read
from the file's source, without importing or executing perfbench code.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def span_targets() -> tuple[tuple[str, str, str], ...]:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"), str(SPANS))
    for statement in tree.body:
        if isinstance(statement, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TARGETS" for target in statement.targets
        ):
            return ast.literal_eval(statement.value)
    raise AssertionError(f"no TARGETS assignment in {SPANS}")


def test_every_span_target_resolves():
    targets = span_targets()
    assert targets
    missing = []
    for name, module_name, attr in targets:
        owner = importlib.import_module(module_name)
        if "." in attr:
            # Methods are rebound through the class's own __dict__.
            class_name, method = attr.split(".")
            found = callable(vars(getattr(owner, class_name, object)).get(method))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{name}: {module_name}.{attr}")
    assert not missing, missing
