"""The benchmark tracer's layer names resolve against the package.

`bench/tracer.py` patches `multlab` functions by module and attribute name
from outside the package, so renaming or deleting one of them would blind
a benchmark layer without failing any other test.
"""

import importlib
import importlib.util
import sys
from functools import reduce
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read bench/, write nothing there
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, attr, _ in tracer.TARGETS:
        target = reduce(getattr, attr.split("."), importlib.import_module(module))
        assert callable(target), (module, attr)
