"""The benchmark's tracer (``perfbench/spans.py``) rebinds functions by name
in ``eprsim.cli`` and ``eprsim.descriptors`` and reads the path that
``write_trials_csv`` is given. A rename there must fail here, not only in a
traced benchmark run."""
import importlib.util
import inspect
from pathlib import Path

import eprsim.cli
import eprsim.descriptors

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_function_of_its_module():
    spans = load_spans()
    traced = ((eprsim.cli, spans.CLI_SPANS), (eprsim.descriptors, spans.DESCRIPTOR_SPANS))
    for module, names in traced:
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, (module.__name__, missing)
    assert callable(eprsim.cli.chsh)


def test_write_trials_csv_takes_the_path_second():
    parameters = list(inspect.signature(eprsim.cli.write_trials_csv).parameters)
    assert parameters[1] == "path"
