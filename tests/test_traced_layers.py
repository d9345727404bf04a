"""The benchmark's tracer wraps every library function it names, and sees
the pipeline's calls through them.

``perfbench/spans.py`` names the wrapped layers as (module, function) pairs
in ``LAYERS`` and patches each name in the eof modules that bind it.  A
removed or renamed layer, or a call routed around the patched names, would
otherwise show only in the traced benchmark runs, the latter as spans that
read 0.  So the file is loaded here (read, never changed), each pair looked
up in the library, and a small benchmark and ``eof train`` run under it.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from eof import bench, cli

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _layers():
    return [(module, function) for module, function, *_ in _spans().LAYERS]


@pytest.mark.parametrize("module, function", _layers(),
                         ids=lambda name: name)
def test_traced_layer_resolves_in_the_library(module, function):
    assert callable(getattr(importlib.import_module(module), function, None))


def _traced(run):
    spans = _spans()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        run()
    return spans.layer_metrics(tracer)


def test_tracer_sees_every_benchmark_layer():
    ds = bench.synthetic_rkhs_dataset(N_train=80, N_test=20, seed=0)
    m = _traced(lambda: bench.run_benchmark(ds, ["eof", "rks"], [5], runs=1,
                                            seed=0))
    # each split embedded once per method
    assert m["embedding.rows"] == 100
    assert m["baselines.rf_embed.cells"] == 100 * 5
    assert m["learn.ridge_fit.M"] == 5 and m["learn.predict.s"] > 0


def test_tracer_sees_every_train_layer(tmp_path):
    ds = bench.synthetic_rkhs_dataset(N_train=100, N_test=2, seed=0)
    data = tmp_path / "train.csv"
    np.savetxt(data, np.column_stack([ds.X_train, ds.y_train]), delimiter=",",
               fmt="%.17g", header="x0,x1,target", comments="")
    m = _traced(lambda: cli.main(["train", "--task", "reg", "--level", "2",
                                  "--data", str(data), "--model-out",
                                  str(tmp_path / "model.txt")]))
    assert m["embedding.rows"] == 100
    assert m["learn.ridge_fit.M"] == 5 and m["learn.predict.s"] > 0
