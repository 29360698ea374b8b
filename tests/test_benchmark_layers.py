"""The benchmark's per-layer metrics name functions the simulator calls.

`perfbench/tracing.py` times every public layer function that
`hfedsim.simulator` imports (`layer_functions`), and reports the metrics of
`PER_LAYER_UNITS` by their 'layer.function' prefix. A layer function that is
renamed or stops being imported leaves its metrics reading 0 with no error;
this test fails instead. It loads `perfbench/tracing.py` and changes nothing
there.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
LAYER_KEYS = sorted({
    name.rpartition(".")[0]
    for name in tracing.PER_LAYER_UNITS
    if name.partition(".")[0] in tracing.LAYERS
})


@pytest.mark.parametrize("key", LAYER_KEYS)
def test_layer_metric_names_a_function_the_simulator_imports(key):
    assert key in tracing.layer_functions()
