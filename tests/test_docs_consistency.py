"""Tier-1 wrapper around tools/check_docs.py: docs track the registry."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_registry_axis_name_is_documented():
    """README.md and docs/PAPER_MAP.md must mention every registered
    protocol, timing, adversary, and topology name (backticked), and
    every registry entry must carry a description."""
    checker = _load_checker()
    problems = checker.find_gaps(ROOT)
    assert problems == [], "\n".join(problems)


def test_checker_detects_a_missing_name(tmp_path, monkeypatch):
    """The checker itself must actually fail on an undocumented axis
    and on a documented path that names no file."""
    checker = _load_checker()
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text("nothing documented")
    (tmp_path / "docs" / "PAPER_MAP.md").write_text(
        "also nothing but `sim/kernel.py` and the deleted `sim/queue.py`"
    )
    (tmp_path / "src").symlink_to(ROOT / "src")
    problems = checker.find_gaps(tmp_path)
    assert any("`bob-edge`" in p for p in problems)
    assert any("README.md" in p for p in problems)
    assert "docs/PAPER_MAP.md: path `sim/queue.py` does not exist" in problems
    assert not any("`sim/kernel.py`" in p for p in problems)


def _path_problems(tmp_path, documents):
    """The checker's path findings on a tree holding ``documents``
    (relative path -> text) beside the real ``src/`` and ``tools/``."""
    checker = _load_checker()
    (tmp_path / "docs").mkdir()
    for rel, text in {"README.md": "", "docs/PAPER_MAP.md": "", **documents}.items():
        (tmp_path / rel).write_text(text)
    for name in ("src", "tools"):
        (tmp_path / name).symlink_to(ROOT / name)
    return [p for p in checker.find_gaps(tmp_path) if ": path `" in p]


@pytest.mark.parametrize(
    "present, missing",
    [
        ("tools/check_docs.py", "tools/gone.py"),
        ("repro/sim/kernel.py", "repro/sim/gone.py"),
        ("sim/kernel.py", "sim/gone.py"),
    ],
    ids=["repo-root", "src", "src-repro"],
)
def test_checker_resolves_paths_under_each_root(tmp_path, present, missing):
    readme = f"see `{present}`, not `{missing}`"
    problems = _path_problems(tmp_path, {"README.md": readme})
    assert problems == [f"README.md: path `{missing}` does not exist"]


def test_checker_ignores_text_that_is_not_a_source_path(tmp_path):
    text = (
        "`queue.py` names no directory, `sim/queue.md` is no Python file "
        "and sim/queue.py is not backticked"
    )
    documents = {"README.md": text, "docs/PAPER_MAP.md": text}
    assert _path_problems(tmp_path, documents) == []


def test_checker_reads_every_document_in_docs(tmp_path):
    problems = _path_problems(tmp_path, {"docs/NOTES.md": "`sim/queue.py`"})
    assert problems == ["docs/NOTES.md: path `sim/queue.py` does not exist"]
