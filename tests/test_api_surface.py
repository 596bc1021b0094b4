"""The redesigned public API stays documented and tuple-free.

Wraps ``scripts/check_api_surface.py`` (which also runs standalone) into
the default pytest tier, next to ``test_docs.py`` and
``test_metrics_catalog.py``: adding an ``__all__`` export without
documenting it, or annotating a public pipeline/runtime callable to
return a bare tuple, fails CI.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).parent.parent / "scripts" / "check_api_surface.py"

spec = importlib.util.spec_from_file_location("check_api_surface", _SCRIPT)
check_api_surface = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_api_surface)


def test_public_surface_documented_and_tuple_free():
    assert check_api_surface.run_checks() == []


def test_checker_catches_undocumented_export(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro" / "runtime").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text(
        '__all__ = ["Documented", "Ghost"]\n'
    )
    (tmp_path / "src" / "repro" / "api.py").write_text("__all__ = []\n")
    (tmp_path / "src" / "repro" / "runtime" / "__init__.py").write_text(
        "__all__ = []\n"
    )
    (tmp_path / "README.md").write_text("Only `Documented` is described.\n")
    errors = check_api_surface.run_checks(tmp_path)
    assert any("'Ghost'" in e for e in errors)
    assert not any("'Documented'" in e for e in errors)


def test_checker_catches_tuple_return(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro" / "runtime").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("__all__ = []\n")
    (tmp_path / "src" / "repro" / "runtime" / "__init__.py").write_text(
        "__all__ = []\n"
    )
    (tmp_path / "src" / "repro" / "api.py").write_text(
        "def bad() -> tuple[int, str]: ...\n"
        "def also_bad() -> tuple: ...\n"
        "def fine() -> 'tuple[int, ...]': ...\n"
        "def _private() -> tuple: ...\n"
        "class Thing:\n"
        "    def bad_method(self) -> 'Tuple[int, int]': ...\n"
        "__all__ = []\n"
    )
    errors = check_api_surface.run_checks(tmp_path)
    flagged = " ".join(errors)
    assert "'bad'" in flagged
    assert "'also_bad'" in flagged
    assert "'Thing.bad_method'" in flagged
    assert "'fine'" not in flagged
    assert "_private" not in flagged


def test_http_server_stays_out():
    """One HTTP transport: the stdlib ``http.server`` is never loaded by
    the CLI, the serving layer, or the live-ops layer."""
    import os
    import subprocess
    import sys

    src = str(Path(__file__).parent.parent / "src")
    code = (
        "import sys, repro.cli, repro.serve, repro.obs.live\n"
        "assert 'http.server' not in sys.modules, 'http.server imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=src + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
