"""The package depends on numpy alone: its modules import nothing else from
outside the standard library.  Importing it leaves the command line unloaded.
Every public name is in the README, every name the README's API section
lists is in the package with the parameters the README gives it, and the
package neither exports nor defines a test oracle of ``tests/oracles.py``."""

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


def readme_api_names(readme):
    """``(bullets, constants)`` of a README's API section: the names that
    open its bullets (``name(...)``, ``Class.method`` or ``leafhash.module``,
    each name before the bullet's colon), and the ``module.CONSTANT`` names of
    its constants table."""
    api = readme.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    heads = [line.split("`: ", 1)[0] for line in re.findall(r"^- (`.*)$", api, flags=re.M)]
    bullets = [name for head in heads for name in re.findall(r"`([\w.]+)", head)]
    constants = re.findall(r"^\| `(\w+\.\w+)` \|", api, flags=re.M)
    return bullets, constants


def unresolved_readme_names(readme):
    """The names of :func:`readme_api_names` that the package lacks; each
    is looked up as a chain of attributes of ``leafhash``."""
    import leafhash

    def resolves(dotted):
        owner = leafhash
        for part in dotted.split("."):
            if not hasattr(owner, part):
                return False
            owner = getattr(owner, part)
        return True

    bullets, constants = readme_api_names(readme)
    names = [name.removeprefix("leafhash.") for name in bullets] + constants
    return [name for name in names if not resolves(name)]


def test_every_name_the_readme_lists_is_in_the_package():
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    bullets, constants = readme_api_names(readme)
    assert len(bullets) >= 60 and len(constants) >= 9
    assert unresolved_readme_names(readme) == []


def readme_signature_misfits(readme):
    """Every ``name(params)`` of the README's API bullets whose parameter
    names are not the leading parameters of the package's signature, in
    order, or that leaves out a parameter without a default; ``p=default``
    counts as ``p``."""
    import leafhash

    api = readme.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    heads = [line.split("`: ", 1)[0] for line in re.findall(r"^- (`.*)$", api, flags=re.M)]
    misfits = []
    for name, listed in re.findall(r"`([\w.]+)\(([^)]*)\)", " ".join(heads)):
        owner = leafhash
        for part in name.removeprefix("leafhash.").split("."):
            owner = getattr(owner, part)
        listed = [p.split("=", 1)[0].strip() for p in listed.split(",") if p.strip()]
        params = list(inspect.signature(owner).parameters.values())
        left_out = params[len(listed):]
        if ([p.name for p in params[:len(listed)]] != listed
                or any(p.default is inspect.Parameter.empty for p in left_out)):
            misfits.append(name)
    return misfits


def test_the_readme_signatures_are_the_packages():
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    assert readme_signature_misfits(readme) == []
    # a parameter the package lacks, one it requires, and one out of order
    for listed, misfit in [("`rank_query(idx, q)`", "`rank_query(idx, q, k)`"),
                           ("`rank_query(idx, q)`", "`rank_query(idx)`"),
                           ("`pack_codes(blocks, order)`", "`pack_codes(order, blocks)`")]:
        assert listed in readme
        assert readme_signature_misfits(readme.replace(listed, misfit, 1)) != []


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
