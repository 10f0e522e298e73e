import ast
import dataclasses
import importlib
import inspect
import pkgutil
import typing

import cohstates


def test_exported_names_and_annotations_resolve():
    # every name a module exports or the package imports is defined, and
    # the annotations of every public dataclass name defined types
    modules = [importlib.import_module(f"cohstates.{info.name}")
               for info in pkgutil.iter_modules(cohstates.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    tree = ast.parse(inspect.getsource(cohstates))
    missing += [f"cohstates.{alias.asname or alias.name}"
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names
                if not hasattr(cohstates, alias.asname or alias.name)]
    assert not missing
    classes = {obj for mod in modules for name, obj in vars(mod).items()
               if not name.startswith("_") and dataclasses.is_dataclass(obj)
               and isinstance(obj, type) and obj.__module__ == mod.__name__}
    assert classes
    for cls in sorted(classes, key=lambda c: c.__qualname__):
        typing.get_type_hints(cls)
