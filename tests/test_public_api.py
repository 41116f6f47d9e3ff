"""The public API, the first part of the behaviour contract, against its
committed snapshot ``public_api.txt``.

The snapshot holds every name ``honestflow`` exports, under the module whose
``__all__`` declares it: each function with its ``inspect.signature``, each
constant with its value, and each class with its constructor and every
public member, inherited ones included.  A public member is a name without a
leading underscore, or an operator method (``__add__``, ``__call__``, ...)
written in the package's source.  No line holds a memory address or a numpy
repr, so the snapshot reads the same on every supported Python and numpy.

A change to the API is a change to the contract.  Make it on purpose, name
it in CHANGES.md, and rewrite the snapshot with

    PYTHONPATH=src python tests/test_public_api.py > tests/public_api.txt
"""

import dataclasses
import difflib
import inspect
import pathlib
import types

import honestflow

SNAPSHOT = pathlib.Path(__file__).with_name("public_api.txt")
PACKAGE_DIR = pathlib.Path(honestflow.__file__).parent

# dunders that are hooks, not operations a user calls: the constructor is
# pinned by the class's own signature
HOOKS = {"__init__", "__post_init__"}


def _value(v) -> str:
    # plain values only: a numpy value's repr differs between numpy versions
    return repr(v) if isinstance(v, (bool, int, float, str, tuple)) else type(v).__name__


def _written_here(member) -> bool:
    # dataclass-generated methods are compiled from strings, not from a file
    return (inspect.isfunction(member)
            and pathlib.Path(member.__code__.co_filename).parent == PACKAGE_DIR)


def _is_public(name: str, member) -> bool:
    if not name.startswith("_"):
        return True
    return name.startswith("__") and name not in HOOKS and _written_here(member)


def _class_lines(qualified: str, cls: type) -> list[str]:
    bases = ", ".join(b.__name__ for b in cls.__bases__)
    lines = [f"class {qualified}({bases})"]
    own = [k for k in reversed(cls.__mro__) if k.__module__.startswith("honestflow.")]
    if any("__init__" in vars(k) for k in own):
        lines.append(f"  {cls.__name__}{inspect.signature(cls)}")
    fields = dataclasses.fields(cls) if dataclasses.is_dataclass(cls) else ()
    # the constructor's signature names every field but those left out of it
    named = {f.name for f in fields if f.init}
    unnamed = {f.name for f in fields if not f.init}
    members = {}
    for k in own:
        members.update(vars(k))
    for name in sorted(unnamed | set(members)):
        member = members.get(name)
        if name in unnamed:
            lines.append(f"  .{name}: field")
        elif name in named or not _is_public(name, member):
            continue
        elif isinstance(member, (classmethod, staticmethod)) or inspect.isfunction(member):
            lines.append(f"  .{name}{inspect.signature(getattr(cls, name))}")
        elif isinstance(member, property):
            lines.append(f"  .{name}: property")
        elif isinstance(member, types.MemberDescriptorType):
            lines.append(f"  .{name}: slot")
        else:
            lines.append(f"  .{name} = {_value(member)}")
    return lines


def declaring_modules() -> dict[str, list]:
    """Exported name -> the submodules whose ``__all__`` declares it."""
    modules = [m for m in vars(honestflow).values()
               if isinstance(m, types.ModuleType) and hasattr(m, "__all__")]
    return {name: [m for m in modules if name in m.__all__] for name in honestflow.__all__}


def api_lines() -> list[str]:
    lines = []
    for name, (module,) in sorted(declaring_modules().items(),
                                  key=lambda item: (item[1][0].__name__, item[0])):
        obj = getattr(honestflow, name)
        qualified = f"{module.__name__.removeprefix('honestflow.')}.{name}"
        if inspect.isclass(obj):
            lines += _class_lines(qualified, obj)
        elif callable(obj):
            lines.append(f"def {qualified}{inspect.signature(obj)}")
        else:
            lines.append(f"{qualified} = {_value(obj)}")
    return lines


def test_each_name_is_declared_once_by_the_module_defining_it():
    assert len(set(honestflow.__all__)) == len(honestflow.__all__)
    for name, modules in declaring_modules().items():
        assert len(modules) == 1, f"{name} is declared by {[m.__name__ for m in modules]}"
        obj = getattr(honestflow, name)
        assert getattr(modules[0], name) is obj
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == modules[0].__name__, f"{name} is defined in {obj.__module__}"


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from honestflow import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(honestflow.__all__)


def test_api_matches_snapshot():
    want = SNAPSHOT.read_text(encoding="utf-8").splitlines()
    got = api_lines()
    diff = "\n".join(difflib.unified_diff(want, got, "public_api.txt", "package", lineterm=""))
    assert got == want, f"the public API changed:\n{diff}"


if __name__ == "__main__":
    print("\n".join(api_lines()))
