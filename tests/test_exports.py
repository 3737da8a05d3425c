"""Package surface: every exported name resolves."""

import ast
import importlib
import inspect
import pkgutil

import nestiq


def test_every_export_resolves():
    missing = []
    for info in pkgutil.iter_modules(nestiq.__path__):
        module = importlib.import_module(f"nestiq.{info.name}")
        missing += [
            f"nestiq.{info.name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    for node in ast.parse(inspect.getsource(nestiq)).body:
        if isinstance(node, ast.ImportFrom):
            missing += [f"nestiq.{a.name}" for a in node.names if not hasattr(nestiq, a.name)]
    assert not missing, f"stale exports: {missing}"
