"""The benchmark tracer still finds every entry point it wraps.

``perfbench/tracing.py`` patches module attributes of ``srrw_lab`` by name
and binds their parameters by name.  A rename there passes the library's own
tests and breaks the benchmark, so this module runs one tiny config of each
traced kind under the tracer and checks that the artifacts are those of an
untraced run.
"""

import importlib.util
import json
import os

from srrw_lab import config, metrics, oracle, runner

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _doc(kind, group, mu, **fields):
    doc = {
        "schema_version": 1, "kind": kind, "group": group, "mu": {"type": mu},
        "alphas": [0.5], "replicas": 1, "seed": 5, "estimator": "exact",
    }
    doc.update(fields)
    return doc


DOCS = [
    # epsilon 1e-6 sits below the estimate's floor, so its scan doubles
    _doc("cutoff", {"kind": "hypercube", "d": 8}, "lazy-hypercube", sizes=[8],
         epsilons=[0.25, 1e-6], replicas=256, estimator="hypercube-weight"),
    _doc("phase-transition", {"kind": "cyclic", "L": 5}, "simple-cycle", sizes=[5],
         epsilons=[0.25], replicas=256, estimator="rao-blackwell"),
    _doc("oracle-check", {"kind": "cyclic", "L": 3}, "lazy-cycle", n_max=3),
    _doc("profiles", {"kind": "cyclic", "L": 5}, "lazy-cycle"),
    # its pass runs at modulus 41 through the traced evolve_size_histograms
    _doc("forest-stats", {"kind": "cyclic", "L": 3}, "simple-cycle",
         grid={"type": "explicit", "values": [5, 40]}, replicas=20),
]


def _run_all(out):
    arts = {}
    for i, doc in enumerate(DOCS):
        result = runner.run(config.parse_config(dict(doc, output_dir=str(out / str(i)))))
        for path in result.outputs:
            with open(path, "rb") as fh:
                data = fh.read()
            if path.endswith("summary.json"):
                summary = json.loads(data)
                del summary["wall_clock_s"], summary["outputs"]
                data = summary
            arts[(i, os.path.basename(path))] = data
    return arts


def test_traced_runs_of_every_traced_kind_write_the_untraced_artifacts(tmp_path):
    tracing = _tracing()
    untraced = _run_all(tmp_path / "plain")
    scans = untraced[(0, "summary.json")]["results"]["mixing_times"]
    assert max(len(row["horizons_tried"]) for row in scans) > 1

    originals = (metrics.hypercube_tv_curve, oracle.exact_endpoint_distribution, runner.iso_profile)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert metrics.hypercube_tv_curve is not originals[0]
        traced = _run_all(tmp_path / "traced")
    finally:
        restore()
    assert (metrics.hypercube_tv_curve, oracle.exact_endpoint_distribution,
            runner.iso_profile) == originals
    assert traced == untraced

    # every wrapper saw its layer's work
    layers = {rec[1] for rec in tracer.spans}
    assert set(tracing.LAYER_TIME) - {"runner.run"} <= layers
    assert {cv["estimator"] for cv in tracer.curves} == {
        "hypercube_tv_curve", "rao_blackwell_cycle_curve",
    }
    for name in ("metrics.horizon_doublings", "oracle.configs", "evolving.subsets"):
        assert tracer.counts[name] > 0, name
