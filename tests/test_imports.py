"""Imports and dead code: every name a library module imports is used in
that module, every module-level private name is read somewhere in the
library, importing ratbase, or running a command that never sweeps,
leaves numpy unloaded, and importing it leaves json unloaded until the
first JSON record."""
import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ratbase import Base
from ratbase.cli import main
from helpers import scan_count, stream_prefix

SRC = Path(__file__).resolve().parent.parent / "src" / "ratbase"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def test_finds_an_unused_import():
    src = "import os\nimport sys as system\nfrom math import pi, tau\nprint(system, tau)\n"
    assert unused_imports(src) == ["os (line 1)", "pi (line 3)"]


# __init__ imports the public names in order to re-export them
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_library_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> dict[str, int]:
    """Module-level names _x (not dunders) that a def, class or assignment
    binds, with their lines."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = node.lineno
    return found


def reads(source: str) -> set[str]:
    """Names an expression reads: loaded variables and attribute names."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def unread_privates(sources: dict[str, str]) -> list[str]:
    """module:name (line n) for each private module-level name that no
    source reads."""
    used = set().union(*(reads(text) for text in sources.values()))
    return sorted(f"{module}:{name} (line {line})"
                  for module, text in sources.items()
                  for name, line in private_definitions(text).items()
                  if name not in used)


def test_finds_an_unread_private_name():
    sources = {"m": "import os\n_A = 1\n_b: int = 2\n__all__ = []\n"
                    "def _f():\n    return _A\nclass _C:\n    pass\n_d = 3\n",
               "n": "from m import _b, _d\nprint(m._d)\n"}
    assert unread_privates(sources) == ["m:_C (line 7)", "m:_b (line 3)",
                                        "m:_f (line 5)"]


def test_library_private_names_are_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unread_privates(sources) == []


def eager_imports(source: str, package: str) -> list[int]:
    """Lines of the import statements for package that run when the module
    is imported: those outside function bodies and `if TYPE_CHECKING:`."""
    lines: list[int] = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            modules = []
        if any(m.split(".")[0] == package for m in modules):
            lines.append(node.lineno)
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
                "TYPE_CHECKING", "typing.TYPE_CHECKING"):
            children = node.orelse
        else:
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child)

    visit(ast.parse(source))
    return lines


def test_finds_an_eager_import():
    src = ("import numpy\n"
           "from numpy import array\n"
           "from typing import TYPE_CHECKING\n"
           "if TYPE_CHECKING:\n"
           "    import numpy as np\n"
           "else:\n"
           "    import numpy.linalg\n"
           "def f():\n"
           "    import numpy as np\n"
           "class C:\n"
           "    from numpy import int64\n"
           "try:\n"
           "    import numpy\n"
           "except ImportError:\n"
           "    pass\n"
           "import numpyro\n")
    assert eager_imports(src, "numpy") == [1, 2, 7, 11, 13]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_numpy_is_not_imported_at_module_level(path):
    assert eager_imports(path.read_text(encoding="utf-8"), "numpy") == []


def run_fresh(code: str) -> dict:
    """Run code in a new interpreter with ratbase importable; code prints
    one JSON object, which is returned with whether numpy got loaded."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\n"
         "print(json.dumps(dict(result, numpy='numpy' in sys.modules)))"],
        capture_output=True, text=True, check=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path))
    return json.loads(out.stdout.splitlines()[-1])


def test_importing_ratbase_leaves_numpy_unloaded():
    got = run_fresh("import json, ratbase, ratbase.cli\nresult = {}")
    assert got == {"numpy": False}


@pytest.mark.parametrize("module", ["ratbase", "ratbase.cli"])
def test_importing_ratbase_leaves_json_unloaded(module):
    got = run_fresh(f"import sys, {module}\n"
                    "result = {'json': 'json' in sys.modules}\n"
                    "import json")
    assert got == {"json": False, "numpy": False}


BASE32 = ["--a", "3", "--b", "2"]


@pytest.mark.parametrize("horizons", [[], ["--horizons", "100,1e4"]],
                         ids=["record", "horizons"])
def test_patterns_json_is_json(horizons):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["patterns", *BASE32, "--w", "21", "--N", "1e4",
                     "--format", "json", *horizons]) == 0
    got = json.loads(out.getvalue())
    if horizons:
        assert [list(rec) for rec in got] == [
            ["N", "S_w", "main_term", "residual", "residual_norm"]] * 2
        assert [rec["N"] for rec in got] == [100, 10**4]
    else:
        assert got["total"] == sum(got["per_position"].values())
        assert list(got["per_position"]) == [str(k) for k in range(len(got["per_position"]))]


@pytest.mark.parametrize("argv", [
    ["encode", *BASE32, "7"],
    ["decode", *BASE32, "2122"],
    ["fourier", *BASE32, "--r", "2", "--max-xi", "5"],
    ["tiles", *BASE32, "--r", "2"],
    ["verify", *BASE32, "--suite", "tiling", "--r", "2", "--N", "5"],
], ids=lambda argv: argv[0])
def test_commands_that_never_sweep_leave_numpy_unloaded(argv):
    got = run_fresh(
        "import contextlib, io, json\n"
        "from ratbase import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    result = {{'rc': cli.main({argv!r})}}")
    assert got == {"rc": 0, "numpy": False}


def test_long_sweeps_and_the_prefix_builder_load_numpy():
    got = run_fresh(
        "import json\n"
        "from ratbase import Base, Pattern, champernowne_digits, count_pattern\n"
        "b74, b32 = Base(7, 4), Base(3, 2)\n"
        "result = {'total': count_pattern(b74, Pattern(b74, (3, 1)), 10**8).total,\n"
        "          'digits': champernowne_digits(b32, 1000)}")
    assert got == {"total": 56670352, "digits": stream_prefix(Base(3, 2), 1000),
                   "numpy": True}


def test_short_sweeps_read_the_tables_without_numpy():
    # every leftover of this count is under 32 terms; its levels 0-9 are
    # read from the tables, which are arrays of the standard library: the
    # lo tables of 3/2 and its tables in steps of 3^3
    got = run_fresh(
        "import json\n"
        "from ratbase import Base, Pattern, count_pattern\n"
        "from ratbase import patterns\n"
        "b32 = Base(3, 2)\n"
        "result = {'total': count_pattern(b32, Pattern(b32, (1, 0, 2)), 2000).total,\n"
        "          'tabled': patterns._low_levels.cache_info().currsize}")
    assert got == {"total": sum(scan_count(Base(3, 2), (1, 0, 2), k, 2000)
                                for k in range(20)),
                   "tabled": 2, "numpy": False}


def test_long_leftovers_below_the_tables_leave_numpy_unloaded():
    # levels 7 and 8 of this count have 56 and 37 leftover terms, each
    # level summed in two reads; the walk above the tables has 16
    got = run_fresh(
        "import json\n"
        "from ratbase import Base, Pattern, count_pattern\n"
        "b32 = Base(3, 2)\n"
        "result = {'total': count_pattern(b32, Pattern(b32, (1,)), 2900).total}")
    assert got == {"total": sum(scan_count(Base(3, 2), (1,), k, 2900)
                                for k in range(20)),
                   "numpy": False}


def test_negative_prefix_length_is_refused_before_numpy():
    got = run_fresh(
        "import json\n"
        "from ratbase import Base, champernowne_digits, champernowne_prefix_array\n"
        "result = {'errors': []}\n"
        "for build in (champernowne_prefix_array, champernowne_digits):\n"
        "    try:\n"
        "        build(Base(3, 2), -1)\n"
        "    except ValueError as exc:\n"
        "        result['errors'].append(str(exc))")
    assert got == {"errors": ["m must be nonnegative"] * 2, "numpy": False}
