#!/usr/bin/env python
"""Docs-consistency check: registries and CLIs must appear in the docs.

The scenario registry (`repro.scenarios.registry`) is the single
source of truth for campaign axis names; ``--list-axes`` prints it
directly, but README.md and docs/PAPER_MAP.md carry hand-written axis
tables that can rot.  Likewise the analysis subsystem: its metric
registry (`repro.analysis.query.METRICS`) feeds ``--list-metrics``
and the ``analyze --help`` epilog, and the ``analyze`` parser's flags
are the subcommand's real interface — docs/ANALYSIS.md documents
both, and README.md documents every ``repro campaign`` and ``repro
workload`` flag.  The docs also name source files by path and class
members as ``Class.member``, which rot when a module or a method is
deleted or moved.  This script fails (exit 1) when any registered axis
name, analysis metric, or CLI flag is missing from the document that
promises it, when a backticked ``dir/file.py`` path in README.md or
docs/*.md names no file, or when a backticked ``Class.member`` there
names a class defined in ``repro`` that has no such member, naming
each gap.

Run from the repository root (CI does)::

    PYTHONPATH=src python tools/check_docs.py

Also exposed as a tier-1 test via tests/test_docs_consistency.py, so
a registry change without a docs update fails locally too.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]

#: Documents that must mention every axis name (backticked).
DOCUMENTS = ("README.md", "docs/PAPER_MAP.md")

#: The analysis cookbook: must mention every metric and analyze flag.
ANALYSIS_DOCUMENT = "docs/ANALYSIS.md"

#: The analysis cookbook's worked example grows a campaign with --resume.
RESUME_FLAGS = ("--resume",)

#: Document that must mention every `repro campaign` and `repro
#: workload` flag: each sweep CLI is its own README section, and its
#: flag set (from the same parser --help renders) must stay documented.
SWEEP_CLI_DOCUMENT = "README.md"

#: A backticked source path in the docs (``sim/kernel.py``) must exist
#: under one of these directories of the repository.
PATH_ROOTS = ("", "src", "src/repro")

_SOURCE_PATH = re.compile(r"`([^`\s]*/[^`\s]*\.py)`")

#: A backticked member reference in the docs (``Simulator.run`` or
#: ``Simulator.reset()``); only classes defined in ``repro`` are checked.
_MEMBER_REFERENCE = re.compile(r"`([A-Z]\w*)\.(\w+)(?:\([^`]*\))?`")


def _repro_classes() -> Dict[str, List[type]]:
    """Every class defined in the ``repro`` package, by name."""
    import repro

    classes: Dict[str, List[type]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        for value in vars(importlib.import_module(info.name)).values():
            if isinstance(value, type) and value.__module__ == info.name:
                classes.setdefault(value.__name__, []).append(value)
    return classes


def _has_member(cls: type, member: str) -> bool:
    """Whether ``cls`` or a base defines ``member``: as a class
    attribute (a method, a property, a slot, a defaulted field), an
    annotated field, or an attribute its code assigns on ``self``."""
    if hasattr(cls, member):
        return True
    assigned = re.compile(rf"\bself\.{member}\s*(?::[^=\n]*)?=(?!=)")
    for klass in cls.__mro__:
        if member in vars(klass).get("__annotations__", {}):
            return True
        if klass.__module__.startswith("repro.") and assigned.search(
            inspect.getsource(klass)
        ):
            return True
    return False


def _read_documents(root: Path, names, problems: List[str]) -> Dict[str, str]:
    texts: Dict[str, str] = {}
    for rel in names:
        path = root / rel
        if not path.is_file():
            problems.append(f"{rel}: missing")
            continue
        texts[rel] = path.read_text(encoding="utf-8")
    return texts


def find_gaps(root: Path = ROOT) -> List[str]:
    """All (document, axis/metric/flag, name) gaps, human-readable."""
    sys.path.insert(0, str(root / "src"))
    try:
        from repro.analysis.cli import cli_flags
        from repro.analysis.query import METRICS
        from repro.scenarios.cli import cli_flags as campaign_cli_flags
        from repro.scenarios.registry import TOPOLOGY_BUILDERS, axis_descriptions
        from repro.sim.faults import CRASH_POINT_DOCS, CRASH_POINTS
        from repro.workload.cli import cli_flags as workload_cli_flags

        classes = _repro_classes()
    finally:
        sys.path.pop(0)

    problems: List[str] = []
    texts = _read_documents(root, DOCUMENTS, problems)
    for axis, entries in axis_descriptions().items():
        for name, doc in entries.items():
            if not doc:
                problems.append(
                    f"registry: {axis} entry {name!r} has no description "
                    "(first docstring line)"
                )
            for rel, text in texts.items():
                # Axis names must appear backticked, as registry names,
                # not as prose coincidences ('none', 'weak'...).
                if f"`{name}`" not in text:
                    problems.append(f"{rel}: {axis} name `{name}` not documented")
    # PAPER_MAP's protocols table copies each registry doc verbatim.
    paper_map = texts.get("docs/PAPER_MAP.md", "")
    for name, doc in axis_descriptions()["protocols"].items():
        if f"| `{name}` | {doc} |" not in paper_map:
            problems.append(
                f"docs/PAPER_MAP.md: protocols row `{name}` does not read "
                f"| `{name}` | {doc} |"
            )

    # Topology patterns, checked straight off the builder registry (not
    # just via axis_descriptions): every registered kind must resolve
    # to a documented `kind-N` pattern with a builder docstring, so a
    # new topology cannot land without README/PAPER_MAP coverage even
    # if the axis listing is ever restructured.
    for kind, builder in TOPOLOGY_BUILDERS.items():
        if not (getattr(builder, "__doc__", "") or "").strip():
            problems.append(
                f"registry: topology builder {kind!r} has no docstring"
            )
        for rel, text in texts.items():
            if f"`{kind}-N`" not in text:
                problems.append(
                    f"{rel}: topology pattern `{kind}-N` not documented"
                )

    # Crash points: the ``crash-restart`` adversary family is named by
    # its crash points (``crash-restart-<point>-d<D>``), so every
    # declared point must be documented (backticked) wherever the axis
    # tables live — a new crash point cannot land undocumented.
    for point in CRASH_POINTS:
        if not (CRASH_POINT_DOCS.get(point) or "").strip():
            problems.append(
                f"registry: crash point {point!r} has no description "
                "(CRASH_POINT_DOCS)"
            )
        for rel, text in texts.items():
            if f"`{point}`" not in text:
                problems.append(f"{rel}: crash point `{point}` not documented")

    # The analyze subcommand: every metric and every CLI flag must be
    # documented (backticked) in the analysis cookbook, from the same
    # registry/parser that --list-metrics and --help render.
    analysis_texts = _read_documents(root, (ANALYSIS_DOCUMENT,), problems)
    analysis_text = analysis_texts.get(ANALYSIS_DOCUMENT, "")
    for name, metric in METRICS.items():
        if not metric.doc:
            problems.append(f"metrics: {name!r} has no description")
        if analysis_text and f"`{name}`" not in analysis_text:
            problems.append(
                f"{ANALYSIS_DOCUMENT}: metric `{name}` not documented"
            )
    if analysis_text:
        for flag in cli_flags():
            # Accept both bare `--flag` and usage-style `--flag VALUE`.
            if f"`{flag}`" not in analysis_text and f"`{flag} " not in analysis_text:
                problems.append(
                    f"{ANALYSIS_DOCUMENT}: analyze flag `{flag}` not documented"
                )

    # Incremental campaigns: the cookbook's worked example must name
    # --resume.
    if analysis_text:
        for flag in RESUME_FLAGS:
            if f"`{flag}`" not in analysis_text:
                problems.append(
                    f"{ANALYSIS_DOCUMENT}: campaign flag `{flag}` not documented"
                )

    # The sweep CLIs: every `repro campaign` and `repro workload` flag
    # must be documented (backticked, bare or usage-style) in the
    # README, from the same parsers that --help renders.
    sweep_texts = _read_documents(root, (SWEEP_CLI_DOCUMENT,), problems)
    sweep_text = sweep_texts.get(SWEEP_CLI_DOCUMENT, "")
    if sweep_text:
        for command, flags in (
            ("campaign", campaign_cli_flags()),
            ("workload", workload_cli_flags()),
        ):
            for flag in flags:
                if f"`{flag}`" not in sweep_text and f"`{flag} " not in sweep_text:
                    problems.append(
                        f"{SWEEP_CLI_DOCUMENT}: {command} flag `{flag}` "
                        "not documented"
                    )

    # Source paths and class members: every backticked `dir/file.py` in
    # the README and docs/*.md must name an existing file, and every
    # backticked `Class.member` of a class defined in repro a member
    # of it, so a deleted or moved module or method cannot stay
    # documented.
    path_documents = [root / "README.md", *sorted((root / "docs").glob("*.md"))]
    for document in path_documents:
        if not document.is_file():
            continue
        rel = document.relative_to(root).as_posix()
        text = document.read_text(encoding="utf-8")
        for path in sorted(set(_SOURCE_PATH.findall(text))):
            if not any((root / base / path).is_file() for base in PATH_ROOTS):
                problems.append(f"{rel}: path `{path}` does not exist")
        for name, member in sorted(set(_MEMBER_REFERENCE.findall(text))):
            if name in classes and not any(
                _has_member(cls, member) for cls in classes[name]
            ):
                problems.append(f"{rel}: member `{name}.{member}` does not exist")
    return problems


def main() -> int:
    problems = find_gaps()
    for problem in problems:
        print(f"docs-consistency: {problem}", file=sys.stderr)
    if problems:
        print(
            f"docs-consistency: {len(problems)} problem(s); update "
            f"{' / '.join(DOCUMENTS + (ANALYSIS_DOCUMENT,))} to match "
            "repro/scenarios/registry.py, repro/analysis/query.py, "
            "repro/analysis/cli.py, repro/scenarios/cli.py and "
            "repro/workload/cli.py, and every documented path and class "
            "member to the source tree",
            file=sys.stderr,
        )
        return 1
    print(
        "docs-consistency: all registry axes, analysis metrics, and "
        "analyze flags documented; every documented path and class "
        "member exists"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
