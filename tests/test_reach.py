"""Every function in ``src/finitejj`` is reached by a documented command line.

The command lines are the README's ``## Command line`` block, each benchmark
workload's seed-1 argv (``bench/workloads.py``) and one argv for each documented
path those miss, run in-process through ``finitejj.cli.main`` under
``sys.setprofile``.  A function is one bound under a module-level name, or as a
member of a module-level class, whose code was compiled from a file of
``src/finitejj``.  Exempt are the public names of ``finitejj._LAZY`` (their
classes' other methods are checked, all but ``__init__``), the names that the
benchmark pins by string (``bench/tracer.py`` wraps them, ``bench/layers.py``
picks them), and the functions listed in ``UNREACHED`` with the reason no
command reaches them.
"""

import contextlib
import importlib
import inspect
import io
import os
import sys
from pathlib import Path

import pytest

import finitejj
from test_bench_contract import bench_modules, picked_literals  # noqa: F401 (a fixture)
from test_readme import _block

SRC = Path(finitejj.__file__).resolve().parent
LAYERS = {path.stem: path for path in sorted(SRC.glob("*.py"))}

# Functions that no command line reaches, and why each stays.
UNREACHED = {
    "__init__.__dir__": "lists the lazy public names for `dir(finitejj)`",
    "cli.entry": "the `finitejj` console script; the commands run through `main`",
    "hamiltonian.TridiagonalHamiltonian.__setattr__": "refuses mutation; no command mutates",
    "model.Record.__eq__": "value equality of the public records; no command compares two",
    "model.Record.__hash__": "hashing of the public records; no command hashes one",
    "model.Record.__repr__": "printing of the public records; no command prints one",
    "model.Record._values": "the fields that __eq__ and __hash__ compare",
    "model.Record.__setattr__": "refuses mutation of the public records; no command mutates",
    "model.Record.__delattr__": "refuses deletion of a field; the same code as __setattr__",
    "observables.SweepTable.grid": "numpy view of the grid; bench/tracer.py's `_band_sweep_rows`"
                                   " reads it by attribute, so it goes with ROADMAP item 7",
    "observables.SweepTable.columns": "numpy view of the columns; read by bench/tracer.py like"
                                      " `grid`",
    "wick.OperatorPoly.identity": "called by the pinned algebra (`__sub__`, `__pow__`)",
    "wick.OperatorPoly.__neg__": "called by the pinned algebra (`__sub__`)",
    "wick.OperatorPoly.__repr__": "printing of a polynomial; no command prints one",
}

# Documented paths that the README block and the workloads miss; ``{materials}``
# is a preset file.  The first exit-1 argv is refused through ``_Parser.error``; the
# exit-2 argv write flagged unconverged rows and end in ``main``'s
# ``ConvergenceError`` branch.
EXTRA_ARGV = [
    ("curvature --kind susceptibility --pairs 60 --values 10,20", 0),
    ("bands --pairs 10 --ejec 0.2 --from -1 --to 1 --steps 5 --window fixed --half-width 3"
     " --subtract-e0", 0),
    ("validity --materials-file {materials} --material custom --pairs 1e6", 0),
    ("bands --pairs 10 --ejec 0.2 --from 0 --to 1", 1),
    ("bands --pairs 5e8 --ejec 50 --from 0 --to 1 --steps 2 --w-initial 4 --w-max 4"
     " --format json", 2),
    ("curvature --kind susceptibility --pairs 1000 --values 50", 2),
]

MATERIALS = ("name = custom\ngap_meV = 0.34\nfermi_eV = 11.63\nn_e_per_cm3 = 18.06e22\n"
             "lambdaL_nm = 16\n")


def command_lines(materials: Path) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) of every command line the test runs."""
    argvs = [(line.split()[1:], 0) for line in _block("## Command line", "bash").splitlines()
             if line.startswith("finitejj ")]
    workloads = importlib.import_module("workloads")
    argvs += [(list(command.argv), 0) for name in workloads.WORKLOADS
              for command in workloads.commands_for(name, 1)]
    argvs += [(line.format(materials=materials).split(), code) for line, code in EXTRA_ARGV]
    return argvs


def pinned_names(layers, tracer) -> set[str]:
    """"layer.qualname" of every name that bench/tracer.py wraps or bench/layers.py picks."""
    traced = {f"{layer}.{name}" for layer, names in tracer.EXTRA.items() for name in names}
    return traced | {*layers.SOLVES, *layers.ROW_SPANS, *picked_literals()}


def _functions(obj):
    """The plain functions behind ``obj``: unwrapped caches, descriptors' functions."""
    if isinstance(obj, property):
        return [f for f in (obj.fget, obj.fset, obj.fdel) if f is not None]
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    obj = inspect.unwrap(obj)
    return [obj] if inspect.isfunction(obj) else []


def functions() -> dict[str, object]:
    """{"layer.qualname": code} of every function compiled from src/finitejj, less the
    public names of ``finitejj._LAZY`` and the ``__init__`` of each such class."""
    found = {}
    for layer, path in LAYERS.items():
        module = finitejj if layer == "__init__" else importlib.import_module(f"finitejj.{layer}")
        lazy = set(finitejj._LAZY.get(layer, ()))
        for name, obj in vars(module).items():
            members = [] if name in lazy else [(name, obj)]
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                members = [(f"{name}.{attr}", member) for attr, member in vars(obj).items()
                           if not (name in lazy and attr == "__init__")]
            for qualname, member in members:
                for fn in _functions(member):
                    if Path(fn.__code__.co_filename).resolve() == path:
                        found[f"{layer}.{qualname}"] = fn.__code__
    return found


def _ours(module_name: str) -> bool:
    return module_name.split(".")[0] == "finitejj"


def _key(code) -> tuple:
    """Where a code object was compiled from: the same for a fresh import of the module,
    also after its file is edited while the suite runs (no line numbers)."""
    return code.co_filename, code.co_qualname


@pytest.fixture(scope="module")
def reached(bench_modules, tmp_path_factory):
    """Keys of the code entered while a fresh import of ``finitejj.cli`` runs every command line.

    The fresh modules start with every cache empty and run their import-time calls
    under the profile too; the modules already imported are put back afterwards.
    """
    workdir = tmp_path_factory.mktemp("reach")
    materials = workdir / "materials.txt"
    materials.write_text(MATERIALS)
    argvs = command_lines(materials)
    saved = {name: module for name, module in sys.modules.items() if _ours(name)}
    codes, cwd = set(), os.getcwd()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    for name in saved:
        del sys.modules[name]
    os.chdir(workdir)
    sys.setprofile(profile)
    try:
        main = importlib.import_module("finitejj.cli").main
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            exits = [main(argv) for argv, _ in argvs]
    finally:
        sys.setprofile(None)
        os.chdir(cwd)
        for name in [name for name in sys.modules if _ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)
    assert exits == [code for _, code in argvs]
    return {_key(code) for code in codes}


def unreached(keys: set, bench_modules) -> list[str]:
    """Functions never entered, less the pinned names and ``UNREACHED``."""
    skip = pinned_names(*bench_modules) | set(UNREACHED)
    return sorted(name for name, code in functions().items()
                  if _key(code) not in keys and name not in skip)


def test_every_function_is_reached(reached, bench_modules):
    assert unreached(reached, bench_modules) == []


def test_keys_tell_code_objects_apart():
    # Aliases (`__radd__ = __add__`, one factory's closures) share a code object and a key.
    codes = {id(code): code for code in functions().values()}.values()
    assert len({_key(code) for code in codes}) == len(codes)


def test_listed_functions_exist_and_stay_unreached(reached):
    found = functions()
    assert [name for name in UNREACHED if name not in found] == []
    assert [name for name in UNREACHED if _key(found[name]) in reached] == []


# A private and a public function outside ``_LAZY``, and a public method of a ``_LAZY`` class.
@pytest.mark.parametrize("planted", ["model._planted", "model.planted",
                                     "eigensolve.EigenPair.planted"])
def test_an_uncalled_function_is_flagged(reached, bench_modules, monkeypatch, planted):
    layer, *owner, name = planted.split(".")
    module = importlib.import_module(f"finitejj.{layer}")
    namespace = {"__name__": module.__name__}
    exec(compile(f"def {name}(self=None):\n    pass\n", module.__file__, "exec"), namespace)
    target = getattr(module, owner[0]) if owner else module
    monkeypatch.setattr(target, name, namespace[name], raising=False)
    assert unreached(reached, bench_modules) == [planted]
