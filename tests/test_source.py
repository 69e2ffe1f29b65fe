"""Checks on the package's own source, read as syntax trees."""
import ast
import sys

from conftest import ROOT

SOURCES = sorted((ROOT / "src" / "pseudocl").glob("*.py"))


def parsed(skip=None):
    """(path as printed, syntax tree) of each module of src/pseudocl."""
    assert SOURCES
    for path in SOURCES:
        if path.name != skip:
            yield (path.relative_to(ROOT).as_posix(),
                   ast.parse(path.read_text(encoding="utf-8")))


def test_only_data_opens_files_for_writing():
    # every artefact goes through data.py's atomic writer, so a new file
    # written by any other module fails here
    # file writers that take no mode argument
    writers = ("write_text", "write_bytes", "save", "savez",
               "savez_compressed", "savetxt", "tofile")
    found = []
    for path, tree in parsed(skip="data.py"):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", ""))
            # open(path, mode), but Path(path).open(mode)
            first = 0 if isinstance(node.func, ast.Attribute) else 1
            modes = node.args[first:2] + [k.value for k in node.keywords
                                          if k.arg == "mode"]
            if name in writers or name == "open" and any(
                    not isinstance(m, ast.Constant)
                    or set(str(m.value)) - set("rbt") for m in modes):
                found.append(f"{path}:{node.lineno}")
    assert not found, "\n".join(found)


def test_imports_only_numpy_and_the_standard_library():
    # the one runtime dependency is numpy; scipy may be installed but is
    # not declared, so an import of it (or of anything else) fails here.
    # pseudocl runs in one process, so the standard library's process and
    # thread modules fail here too
    allowed = (set(sys.stdlib_module_names) | {"numpy"}) - {
        "multiprocessing", "concurrent", "threading", "subprocess"}
    found = []
    for path, tree in parsed():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert not found, "\n".join(found)


def test_every_dataclass_is_frozen():
    # a run's settings and state are checked once, when built, so no
    # dataclass of the package may be changed after
    found = []
    for path, tree in parsed():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                name = call.func if call else dec
                if getattr(name, "id", getattr(name, "attr", "")) != \
                        "dataclass":
                    continue
                frozen = call and any(
                    k.arg == "frozen" and isinstance(k.value, ast.Constant)
                    and k.value.value is True for k in call.keywords)
                if not frozen:
                    found.append(f"{path}:{node.lineno}: {node.name}")
    assert not found, "\n".join(found)
