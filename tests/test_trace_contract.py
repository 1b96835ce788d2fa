"""The benchmark's tracer still finds every function it traces, under the names it reports."""

import importlib.util

import numpy as np

from qccp import Runs, cli, tsv

from support import ROOT


def load_tracing():
    """``perfbench/tracing.py`` as a module, read from the tree without putting it on sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_wrapped_where_it_is_bound():
    tracing = load_tracing()
    originals = (cli.write_records_tsv, cli.write_histogram_tsv)
    tracer = tracing.Tracer()
    try:
        tracer.install()  # a traced name that no longer exists raises here
        assert cli.write_records_tsv is tsv.write_records_tsv is not originals[0]
        assert cli.write_histogram_tsv is tsv.write_histogram_tsv is not originals[1]
    finally:
        tracer.uninstall()
    assert (cli.write_records_tsv, cli.write_histogram_tsv) == originals
    assert (tsv.write_records_tsv, tsv.write_histogram_tsv) == originals


def test_accepted_counts_the_single_trigger_windows():
    counts = np.array([0, 1, 2, 1, 1])
    runs = Runs(np.zeros((5, 2), dtype=np.int64), counts, counts == 1, np.ones(5, int), np.ones(5, int))
    assert load_tracing()._accepted([(0, runs), (1, runs)]) == 6
