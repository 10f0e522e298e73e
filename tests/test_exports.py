import ast
import dataclasses
import importlib
import inspect
import pkgutil
import typing
from pathlib import Path

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


def test_the_package_holds_only_its_error_and_version():
    # every other name is imported from its module, e.g.
    # `from cohstates.sphere import coherent_state`
    public = {name for name, value in vars(cohstates).items()
              if (not name.startswith("_") or name == "__version__")
              and not inspect.ismodule(value)}
    assert public == {"ConstraintError", "__version__"}


def _unreferenced_public_names() -> set:
    """`__all__` names of the library's modules that no code in the library
    refers to outside the name's own top-level definition; imports,
    re-exports and `__all__` entries are not references."""
    trees = [ast.parse(p.read_text())
             for p in sorted(Path(cohstates.__file__).parent.glob("*.py"))]
    public, used = set(), set()
    for tree in trees:
        for stmt in tree.body:
            if (isinstance(stmt, ast.Assign)
                    and [t.id for t in stmt.targets
                         if isinstance(t, ast.Name)] == ["__all__"]):
                public |= set(ast.literal_eval(stmt.value))
            own = getattr(stmt, "name", None)
            used |= {n for node in ast.walk(stmt)
                     for n in [getattr(node, "id", None)
                               or getattr(node, "attr", None)]
                     if n is not None and n != own}
    return public - used


def test_every_public_name_has_a_caller_in_the_library():
    assert _unreferenced_public_names() == {
        # operator actions on a state that the CLI and verify never call.
        # The benchmark's self-test calls apply_X; its tracer hooks the
        # other two by name only and skips a name the library lacks.
        # apply_J and apply_Z stay as the library's O|s>, which the tests
        # read, e.g. test_spinor's reference for the matrix route.
        "apply_J", "apply_X", "apply_Z",
        # builds the self-test's input state
        "basis_state",
    }
