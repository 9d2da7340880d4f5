"""The package depends on numpy alone: its modules import nothing else from
outside the standard library.  Importing it leaves the command line unloaded.
Every public name is in the README, and the package neither exports nor
defines a test oracle of ``tests/oracles.py``."""

import ast
import inspect
import re
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "leafhash"


def test_package_imports_only_the_standard_library_and_numpy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "numpy" or top in sys.stdlib_module_names, (
                    f"{path.name} imports {name}")


def test_import_loads_neither_the_cli_nor_argparse():
    # the benchmark's setup_s times a fresh `import leafhash`
    code = ("import sys, leafhash; "
            "print(sorted({'leafhash.cli', 'argparse'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent)
    assert out.stdout.strip() == "[]"


def test_import_loads_no_process_pool():
    # multiprocessing pulls in socket and queue; only training with
    # workers > 1 needs it
    code = ("import sys, leafhash; print(sorted({'concurrent.futures', 'multiprocessing'}"
            " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent)
    assert out.stdout.strip() == "[]"


def defined_names(path):
    """Names a module defines at its top level: functions, classes and
    assigned constants."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_every_public_name_is_in_the_readme():
    import leafhash

    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    public = [name for name in dir(leafhash) if not name.startswith("_")
              and not inspect.ismodule(getattr(leafhash, name))]
    assert public
    missing = [name for name in public if not re.search(rf"\b{name}\b", readme)]
    assert missing == []


def test_the_package_neither_exports_nor_defines_a_test_oracle():
    import leafhash

    oracles = defined_names(Path(__file__).with_name("oracles.py"))
    assert oracles
    assert sorted(oracles & set(dir(leafhash))) == []
    for path in sorted(PACKAGE.glob("*.py")):
        assert sorted(oracles & defined_names(path)) == [], path.name


def package_imports(module):
    """The package modules that ``module`` imports, by name."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                names.update(alias.name for alias in node.names)
            else:
                names.add(node.module.split(".")[0])
    return names


def test_each_module_imports_only_what_its_job_needs():
    # the BLAS guard stands alone, selection needs no forest, and training
    # needs no retrieval
    assert package_imports("_blas") == set()
    assert package_imports("aggregation") & {"forest", "encode"} == set()
    assert "retrieval" not in package_imports("forest")
    assert {"encode", "_blas"} <= package_imports("forest")
