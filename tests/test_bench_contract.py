"""The benchmark's tracer and per-layer metrics find ``finitejj`` names by string.

``bench/layers.py`` silently drops a name it cannot find, so a rename under
``src/`` would zero a per-layer metric without failing anything, and
``bench/tracer.py`` would fail inside ``instrument`` with a bare KeyError.
These checks name the missing attribute instead.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("layers"), importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH))


def resolves(name: str) -> bool:
    """Whether "layer.attr[.attr...]" names an attribute of module finitejj.<layer>.

    The last attribute must be defined on its owner itself (``vars(owner)``),
    which is where ``tracer.instrument`` looks it up.
    """
    layer, *path, attr = name.split(".")
    owner = importlib.import_module(f"finitejj.{layer}")
    for part in path:
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return attr in vars(owner)


def picked_literals() -> list[str]:
    """Every string literal that bench/layers.py passes to ``pick``."""
    tree = ast.parse((BENCH / "layers.py").read_text())
    return [
        arg.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pick"
        for arg in node.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    ]


def test_layer_names_resolve_in_finitejj(bench_modules):
    layers, tracer = bench_modules
    traced = [f"{layer}.{name}" for layer, names in tracer.EXTRA.items() for name in names]
    names = [*layers.SOLVES, *layers.ROW_SPANS, *picked_literals(), *traced]
    assert len(names) > len(layers.SOLVES) + len(layers.ROW_SPANS) + len(traced)
    assert "hamiltonian.TridiagonalHamiltonian.coefficient_bounds" in traced
    assert [name for name in names if not resolves(name)] == []


def test_tracer_installs_and_restores(bench_modules):
    _, tracer = bench_modules
    from finitejj import eigensolve

    original = eigensolve.lowest_eigenvalues
    undo = tracer.instrument(tracer.Tracer())
    try:
        assert eigensolve.lowest_eigenvalues is not original
    finally:
        tracer.restore(undo)
    assert eigensolve.lowest_eigenvalues is original


def test_traced_pass_leaves_the_package_namespace_unchanged(bench_modules):
    """A lazy name read while traced gives the wrapper, and is not kept after ``restore``."""
    _, tracer = bench_modules
    import finitejj
    from finitejj import observables

    for layer in tracer.LAYERS:
        importlib.import_module(f"finitejj.{layer}")
    before = dict(vars(finitejj))
    original = observables.band_sweep
    undo = tracer.instrument(tracer.Tracer())
    try:
        assert finitejj.band_sweep is observables.band_sweep is not original
    finally:
        tracer.restore(undo)
    assert vars(finitejj) == before
    assert finitejj.band_sweep is original


@pytest.mark.parametrize("workload",
                         ["charge-sweep", "transmon-window", "full-basis", "closed-forms"])
def test_workload_artifacts_pass_the_benchmark_oracle(workload, bench_modules, tmp_path,
                                                      monkeypatch):
    """A workload's seed-1 commands, checked as the benchmark checks them."""
    from finitejj.cli import main

    workloads, oracle = importlib.import_module("workloads"), importlib.import_module("oracle")
    assert set(workloads.WORKLOADS) == {"charge-sweep", "transmon-window", "full-basis",
                                        "closed-forms"}
    monkeypatch.chdir(tmp_path)
    for command in workloads.commands_for(workload, 1):
        assert main(list(command.argv)) == 0, command.argv
        assert oracle.check(command.argv, tmp_path / command.artifact) == [], command.argv
