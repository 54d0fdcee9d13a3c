"""The package namespace: every public name resolves, importing its home module on demand."""

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
