"""Source-level conventions of the ``repro`` package, checked with ``ast``."""

import ast
import importlib
import sys
from pathlib import Path

import repro
from repro.crypto.keys import KeyRing

PACKAGE = Path(repro.__file__).resolve().parent


def _unused_imports(source: str):
    """Names a module imports at module level but never references.

    Names listed in ``__all__`` count as referenced (re-exports).
    """
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= {
                item.value
                for item in ast.walk(node.value)
                if isinstance(item, ast.Constant)
            }
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_no_module_imports_a_name_it_never_uses():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue  # package namespaces re-export what they import
        for line, name in _unused_imports(path.read_text(encoding="utf-8")):
            found.append(f"{path.relative_to(PACKAGE)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def test_the_unused_import_scan_sees_every_import_form():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as codec\n"
        "from typing import Any, Dict\n"
        "from .names import exported\n"
        "x: Dict = {}\n"
        "__all__ = ['exported']\n"
    )
    assert _unused_imports(source) == [(2, "os"), (3, "codec"), (4, "Any")]


def _gc_imports(source: str):
    """Lines that import the garbage collector's module."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "gc" for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] == "gc":
                lines.append(node.lineno)
    return lines


def test_no_module_drives_the_garbage_collector():
    """Memory is released by dropping references.  A ``gc.collect()``
    per workload cell would hide a reference that pins a finished
    payment's world, and pay a full heap traversal every time."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for line in _gc_imports(path.read_text(encoding="utf-8")):
            found.append(f"{path.relative_to(PACKAGE)}:{line}")
    assert not found, "gc imported in src/:\n" + "\n".join(found)


def test_the_gc_import_scan_sees_every_import_form():
    source = (
        "import gc\n"
        "from gc import collect\n"
        "import gc as g\n"
        "import gcd, os\n"
        "from .gc import collect\n"
        "def late():\n"
        "    import os, gc\n"
        "text = 'import gc'\n"
    )
    assert _gc_imports(source) == [1, 2, 3, 7]


#: What an import may take from the crypto package to sign or verify
#: outside a signed statement: the functions, their module, or everything.
SIGNING_NAMES = {"sign", "verify", "signatures", "*"}

#: The key ring's record of what its identities signed.
RECORD = "_signatures"


def _signing_access(source: str):
    """Lines that could sign or verify outside a signed statement:
    importing ``sign``, ``verify``, the ``signatures`` module or the
    crypto package as a module object; importing ``Signature`` (a
    handle built by hand); or naming the key ring's record."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any("crypto" in alias.name.split(".") for alias in node.names):
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            taken = {alias.name for alias in node.names}
            tail = (node.module or "").split(".")[-1]
            if "crypto" in taken or "Signature" in taken or (
                tail in ("crypto", "signatures") and taken & SIGNING_NAMES
            ):
                lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == RECORD:
            lines.add(node.lineno)
        elif isinstance(node, ast.Constant) and node.value == RECORD:
            lines.add(node.lineno)
    return sorted(lines)


def test_only_the_crypto_package_signs_or_verifies():
    """A signed statement signs and verifies itself (``Signed.issue``,
    ``Signed.valid``), so no other module builds a signed body, a
    signature handle or an entry of the key ring's record by hand.
    Every participant holds the ring, so this scan is what keeps a
    verifier from writing what the ring records."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.relative_to(PACKAGE).parts[0] == "crypto":
            continue
        for line in _signing_access(path.read_text(encoding="utf-8")):
            found.append(f"{path.relative_to(PACKAGE)}:{line}")
    assert not found, "signing outside crypto/:\n" + "\n".join(found)


def test_the_signing_import_scan_sees_every_import_form():
    source = (
        "from ..crypto.signatures import sign\n"
        "from repro.crypto import Identity, verify as check\n"
        "def late():\n"
        "    from ...crypto.signatures import SignedClaim, sign\n"
        "from ..crypto.certificates import Vote\n"
        "from .verification import verify\n"
        "import repro.crypto.signatures as s\n"
        "from ..crypto import signatures\n"
        "from .. import crypto\n"
        "from ..crypto.signatures import *\n"
        "import hashlib, repro.crypto\n"
        "from ..crypto.signatures import Signature\n"
        "from repro.crypto import KeyRing, Signature as Handle\n"
        "env.keyring._signatures[handle] = body\n"
        "record = getattr(self.keyring, '_signatures')\n"
        "self._signatures_seen = {}\n"
    )
    assert _signing_access(source) == [1, 2, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15]


def test_the_scanned_record_is_the_key_rings():
    assert isinstance(getattr(KeyRing(), RECORD), dict)


def test_importing_the_main_module_runs_nothing(monkeypatch, capsys):
    """Only ``python -m repro`` runs the CLI; an import (a package
    walk, a doc generator) must not run the experiments or exit."""
    monkeypatch.setattr(sys, "argv", ["probe", "--list"])
    monkeypatch.delitem(sys.modules, "repro.__main__", raising=False)
    importlib.import_module("repro.__main__")
    assert capsys.readouterr().out == ""
