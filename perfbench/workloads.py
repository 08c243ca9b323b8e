"""Benchmark workloads: the srrw-lab configs each one runs, and why.

Every workload is a list of config documents for ``runner.run``.  The
workload seed only changes the config ``seed`` field (through a hash), so
the amount of work is fixed by the sizes below and the Monte Carlo draws
are fresh for every benchmark seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

SCHEMA_VERSION = 1


def _threads() -> int:
    return min(2, os.cpu_count() or 1)


def config_seed(workload: str, seed: int) -> int:
    """63-bit config seed derived from (workload, benchmark seed)."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def config_hash(doc: dict) -> str:
    """sha256 of the canonical JSON of a config, without its output_dir."""
    body = {k: v for k, v in doc.items() if k != "output_dir"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _doc(kind, group, mu, **fields) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "group": group,
        "mu": {"type": mu},
        "alphas": [0.5],
        "replicas": 1,
        "estimator": "exact",
    }
    doc.update(fields)
    return doc


def _cycle_scan(replicas=1024, sizes=(33, 65, 129)):
    # from phase-transition-desk, with alpha = 0.9 so the horizon guard fires
    return [
        _doc(
            "phase-transition",
            {"kind": "cyclic", "L": sizes[0]},
            "simple-cycle",
            alphas=[0.25, 0.9],
            sizes=list(sizes),
            epsilons=[0.25],
            replicas=replicas,
            estimator="rao-blackwell",
            threads=1,
        )
    ]


def _hypercube_cutoff(replicas=4096, sizes=(64,), threads=1):
    # from cutoff-desk; 4096 replicas are two chunks of 2048, one per thread
    # at threads = 2.  The gated workload runs one thread: at two, a pass also
    # waits on the second core, whose share of a shared host drifts, and the
    # wall_s spread over seeds was twice the cpu_s spread.
    return [
        _doc(
            "cutoff",
            {"kind": "hypercube", "d": sizes[0]},
            "lazy-hypercube",
            sizes=list(sizes),
            epsilons=[0.9, 0.25, 0.1, 0.05],
            replicas=replicas,
            estimator="hypercube-weight",
            threads=threads,
        )
    ]


def _hypercube_wide(replicas=512, d=1024, n_max=12000):
    # from fig2-hypercube-desk at the largest d the estimator accepts
    return [
        _doc(
            "tv-curve",
            {"kind": "hypercube", "d": d},
            "lazy-hypercube",
            grid={"type": "geometric", "n_max": n_max},
            replicas=replicas,
            estimator="hypercube-weight",
            threads=1,
        )
    ]


def _exact_small():
    # from oracle-z2 and profiles-lazy-z5, on larger groups; sized so that a
    # pass takes about 2 s and a run has many passes behind it
    return [
        _doc("oracle-check", {"kind": "cyclic", "L": 5}, "lazy-cycle", n_max=6),
        _doc("profiles", {"kind": "cyclic", "L": 21}, "lazy-cycle"),
    ]


# the stresses and bypasses of each workload are in BENCHMARK.json and the README
WORKLOADS = {
    "cycle-scan": _cycle_scan,
    "hypercube-cutoff": _hypercube_cutoff,
    "hypercube-cutoff-2t": lambda: _hypercube_cutoff(threads=_threads()),
    "hypercube-wide": _hypercube_wide,
    "exact-small": _exact_small,
}

# Small copies of the Monte Carlo workloads for the reproducibility tests:
# each still spans two replica chunks, so threads = 2 has work to share.
REDUCED = {
    "cycle-scan": lambda: _cycle_scan(replicas=1024, sizes=(17, 33)),
    "hypercube-cutoff": lambda: _hypercube_cutoff(replicas=4096, sizes=(16,), threads=_threads()),
    "hypercube-wide": lambda: _hypercube_wide(replicas=4096, d=64, n_max=400),
}


def configs(name: str, seed: int, out_root: str, build=None) -> list[dict]:
    """The workload's config documents for benchmark seed ``seed``."""
    docs = (build or WORKLOADS[name])()
    for i, doc in enumerate(docs):
        doc["seed"] = config_seed(name, seed)
        doc["output_dir"] = os.path.join(out_root, str(i))
    return docs


def expected_ops(doc: dict) -> int:
    """Operations a config should produce: one per scan, curve, oracle n or profile."""
    kind = doc["kind"]
    if kind in ("phase-transition", "cutoff"):
        return len(doc["alphas"]) * len(doc["sizes"]) * len(doc.get("epsilons", [0.25]))
    if kind in ("tv-curve", "mixing-scan"):
        return len(doc["alphas"])
    if kind == "oracle-check":
        return len(doc["alphas"]) * doc["n_max"]
    if kind == "profiles":
        return 1
    raise ValueError(f"no operation count for kind {kind!r}")


def oracle_configs(n: int) -> int:
    """(xi, u) configurations the oracle enumerates at walk length n."""
    return 2 ** (n - 1) * math.factorial(n - 1)
