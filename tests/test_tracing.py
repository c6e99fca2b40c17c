"""The benchmark tracer finds every entry point it wraps by name.

bench/tracing.py patches words, series, bar and fplinear functions under
the names their callers look up; a deleted or renamed entry point makes
its install fail.  This keeps that contract inside the fast suite."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402


def test_tracer_installs_and_uninstalls_cleanly():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.traced_names()
    finally:
        tracer.uninstall()
    assert tracing.traced_names() == []
