"""The package namespace: every public name resolves, importing its home module on demand,
and the normal-ordering engine is imported by the ``wick-verify`` command alone."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

LAYERS = ("errors", "model", "hamiltonian", "eigensolve", "observables", "perturbation", "wick")

SCRIPT = """
import json, sys
import finitejj

layers = %r
# Layer modules are attributes of the package before anything imported them.
report = {"modules": [getattr(finitejj, layer).__name__ for layer in layers]}
homes = [vars(sys.modules["finitejj." + layer]) for layer in layers]
report["unresolved"] = [name for name in finitejj.__all__
                        if not any(name in home for home in homes)]
report["mismatched"] = [name for name in finitejj.__all__ for home in homes
                        if name in home and home[name] is not getattr(finitejj, name)]
namespace = {}
exec("from finitejj import *", namespace)
report["star_missing"] = sorted(set(finitejj.__all__) - set(namespace))
report["dir_missing"] = sorted(set(finitejj.__all__) - set(dir(finitejj)))
# Test-only oracles live in tests/oracles.py, not in the package.
report["oracles"] = [name for name in %r
                     if hasattr(finitejj, name) or any(name in home for home in homes)]
try:
    finitejj.no_such_name
except AttributeError as exc:
    report["missing"] = str(exc)
print(json.dumps(report))
""" % (LAYERS, ("spin_matrices", "SpinMatrices", "cpb_effective", "TwoLevelEffective",
                "fock_oracle_stable", "fock_matrix"))


def test_every_public_name_resolves_to_its_home_object(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["unresolved"] == []
    assert report["mismatched"] == []
    assert report["star_missing"] == []
    assert report["dir_missing"] == []
    assert report["modules"] == [f"finitejj.{layer}" for layer in LAYERS]
    assert report["oracles"] == []
    assert report["missing"] == "module 'finitejj' has no attribute 'no_such_name'"


def _wick_imports(tree):
    """(enclosing function, line) of every import of ``wick`` in a parsed module."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                modules = [child.module or ""] + [alias.name for alias in child.names]
            else:
                modules = []
            if any(module.split(".")[-1] == "wick" for module in modules):
                found.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return found


def test_only_wick_verify_imports_the_engine():
    found = {path.name: _wick_imports(ast.parse(path.read_text()))
             for path in sorted((SRC / "finitejj").glob("*.py"))}
    found = {name: sites for name, sites in found.items() if sites}
    assert [site[0] for site in found.pop("cli.py")] == ["_cmd_wick_verify"]
    assert found == {}


def test_first_order_theory_leaves_the_engine_unloaded(tmp_path):
    script = (
        "import sys, warnings\n"
        "from finitejj.model import CircuitParams\n"
        "from finitejj.perturbation import transmon_first_order_numeric\n"
        "warnings.simplefilter('ignore')\n"
        "transmon_first_order_numeric(CircuitParams.from_pairs(400, e_j=50.0, e_c=1.0, n_g=4.0))\n"
        "print('finitejj.wick' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
