"""Every name perfbench's tracer wraps still exists in whipflow.

``perfbench/spans.py`` wraps the callables of ``WRAPS`` by ``getattr`` on
each module or class path; a removed name fails only there, inside the
slow traced subprocess run.  This loads the file by path and resolves
each entry directly, naming the ones that are gone."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{path}.{attr}" for path, attr, _ in spans.WRAPS
               if not callable(getattr(spans._resolve(path), attr, None))]
    assert not missing, f"perfbench's spans.WRAPS names {missing}"
