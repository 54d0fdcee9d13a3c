"""Replay a workload's command lines in-process through ``finitejj.cli.main``.

Run by ``run.py --trace 1`` as ``python3 bench/replay.py SPEC.json`` in a fresh
interpreter (with ``src`` on ``PYTHONPATH``), so the first thing it measures is
a cold ``import finitejj.cli``.  Passes alternate untraced and traced until
``seconds`` have passed and at least two of each have run; every pass writes
its artifacts into its own directory.  Wrappers are installed only for the
traced passes, so an untraced pass runs the program exactly as shipped, and
the spans of a traced pass are written out after its clock has stopped.
Every cache in the package is emptied before each pass, so each pass starts as
cold as the child process of a ``--trace 0`` run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from time import perf_counter


def clear_caches():
    """Empty every cache (``functools.lru_cache`` and kin) of the finitejj modules."""
    for name, module in list(sys.modules.items()):
        if name == "finitejj" or name.startswith("finitejj."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    workdir = Path(spec["workdir"])

    t0 = perf_counter()
    import finitejj.cli as cli
    import_s = perf_counter() - t0

    import numpy as np

    import tracer as tracing

    tr = tracing.Tracer()
    passes = []
    begin = perf_counter()
    index = 0
    while True:
        traced = index % 2 == 1
        pass_dir = workdir / f"pass{index}"
        pass_dir.mkdir()
        os.chdir(pass_dir)
        clear_caches()
        undo = tracing.instrument(tr) if traced else []
        codes, errors = [], []
        sink = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for run_id, argv in enumerate(spec["commands"]):
                if traced:
                    tr.begin_run(run_id)
                try:
                    codes.append(cli.main(list(argv)))
                    errors.append(None)
                except Exception as exc:  # a traceback is a failed command, not a crash
                    codes.append(1)
                    errors.append(repr(exc))
        wall = perf_counter() - t0
        tracing.restore(undo)
        record = {"dir": str(pass_dir), "traced": traced, "wall_s": wall, "codes": codes,
                  "errors": errors}
        if traced:
            spans = workdir / f"spans{index}.npz"
            np.savez(spans, **tr.columns())
            record.update(spans=str(spans), names=list(tr.names), counts=tr.run_counts)
            tr.clear()
        passes.append(record)
        index += 1
        if index >= 4 and index % 2 == 0 and perf_counter() - begin >= spec["seconds"]:
            break
    os.chdir(workdir)
    (workdir / "replay.json").write_text(json.dumps({"import_s": import_s, "passes": passes}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
