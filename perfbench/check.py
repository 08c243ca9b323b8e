"""Output checks against the references stored in ``perfbench/reference``.

One operation is one output row: a mixing-time scan, a TV curve, an oracle
n or a profile.  Each checker returns ``(work, failures)``: the work the
outputs account for (replica-steps for Monte Carlo kinds, enumerated
configurations or swept subsets for exact kinds) and one message per
operation that failed.

Monte Carlo rows are compared with a reference run at the same replica
count and another seed.  Two independent estimates differ by about
sqrt(2) stderr, so a curve point agrees if it lies within Z of those, and
a mixing time agrees if it lies between the mixing times of the reference
curve shifted down and up by that much (widened by two grid steps, since
the two runs may scan different grids).  Exact rows must match to 1e-12.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from workloads import expected_ops, oracle_configs

Z = 5.0
EXACT_TOL = 1e-12
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def load_reference(workload: str) -> dict:
    with open(os.path.join(REF_DIR, f"{workload}.json")) as fh:
        return json.load(fh)


def _rows(outdir: str, name: str) -> list[dict]:
    with open(os.path.join(outdir, name), newline="") as fh:
        return list(csv.DictReader(fh))


def _scan(ns, values, epsilon) -> int:
    """The runner's mixing time: 1 + last grid n whose value exceeds epsilon."""
    above = np.asarray(ns)[np.asarray(values) > epsilon]
    return int(above[-1]) + 1 if above.size else 1


def mixing_band(curve: dict, epsilon: float, points_per_decade: int) -> tuple[float, float]:
    ns = np.asarray(curve["ns"])
    v = np.asarray(curve["values"])
    tol = Z * math.sqrt(2.0) * np.asarray(curve["stderrs"])
    slack = 10.0 ** (2.0 / points_per_decade)
    return _scan(ns, v - tol, epsilon) / slack - 1.0, _scan(ns, v + tol, epsilon) * slack + 1.0


def _key(*vals) -> str:
    return "|".join(f"{float(v):.12g}" for v in vals)


def check_scans(doc: dict, outdir: str, ref: dict, prob_errors) -> tuple[int, list]:
    curves = {_key(c["alpha"], c["size"]): c for c in ref["curves"]}
    rows = {
        _key(r["alpha"], r["size"], r["epsilon"]): r
        for r in _rows(outdir, "mixing_times.csv")
    }
    work, failures = 0, []
    for alpha in doc["alphas"]:
        for size in doc["sizes"]:
            for eps in doc["epsilons"]:
                row = rows.get(_key(alpha, size, eps))
                what = f"scan alpha={alpha} size={size} eps={eps}"
                if row is None:
                    failures.append(f"{what}: missing")
                    continue
                work += doc["replicas"] * int(row["horizon"])
                lo, hi = mixing_band(
                    curves[_key(alpha, size)], eps, doc.get("points_per_decade", 40)
                )
                t_mix = int(row["t_mix"])
                if row["guard_triggered"] != "False":
                    failures.append(f"{what}: guard still fires at horizon {row['horizon']}")
                elif not lo <= t_mix <= hi:
                    failures.append(f"{what}: t_mix {t_mix} outside [{lo:.1f}, {hi:.1f}]")
    return work, failures


def check_curves(doc: dict, outdir: str, ref: dict, prob_errors) -> tuple[int, list]:
    rows = _rows(outdir, "curves.csv")
    work, failures = 0, []
    for curve in ref["curves"]:
        alpha = curve["alpha"]
        mine = [r for r in rows if float(r["alpha"]) == alpha]
        ns = np.array([int(r["n"]) for r in mine])
        what = f"curve alpha={alpha}"
        if not np.array_equal(ns, curve["ns"]):
            failures.append(f"{what}: grid differs from the reference")
            continue
        work += doc["replicas"] * int(ns[-1])
        v = np.array([float(r["value"]) for r in mine])
        se = np.array([float(r["stderr"]) for r in mine])
        tol = Z * np.hypot(se, curve["stderrs"]) + 1e-9
        bad = np.abs(v - curve["values"]) > tol
        if bad.any():
            i = int(np.argmax(bad))
            failures.append(
                f"{what}: {int(bad.sum())} points off, first n={ns[i]} "
                f"value {v[i]:.6g} vs {curve['values'][i]:.6g} +- {tol[i]:.3g}"
            )
    failures += ["curve: missing"] * (expected_ops(doc) - len(ref["curves"]))
    return work, failures


def check_oracle(doc: dict, outdir: str, ref: dict, prob_errors) -> tuple[int, list]:
    rows = {_key(r["alpha"], r["n"]): r for r in _rows(outdir, "oracle_check.csv")}
    work, failures = 0, []
    sums_ok = len(prob_errors) == expected_ops(doc) and max(prob_errors) <= EXACT_TOL
    for want in ref["oracle_rows"]:
        row = rows.get(_key(want["alpha"], want["n"]))
        what = f"oracle alpha={want['alpha']} n={want['n']}"
        if row is None:
            failures.append(f"{what}: missing")
            continue
        work += oracle_configs(int(row["n"]))
        off = max(abs(float(row[k]) - want[k]) for k in ("tv", "p_identity"))
        if off > EXACT_TOL:
            failures.append(f"{what}: off by {off:.3g}")
        elif not sums_ok:
            failures.append(f"{what}: probabilities do not sum to 1")
    return work, failures


def check_profiles(doc: dict, outdir: str, ref: dict, prob_errors) -> tuple[int, list]:
    rows = _rows(outdir, "profiles.csv")
    with open(os.path.join(outdir, "summary.json")) as fh:
        certified = json.load(fh)["results"].get("certified")
    order = round(1.0 / float(rows[0]["r"]))
    ok = certified is True and len(rows) == len(ref["profile_rows"])
    for row, want in zip(rows, ref["profile_rows"]):
        for k in ("r", "phi", "psi"):
            ok = ok and abs(float(row[k]) - want[k]) <= EXACT_TOL
        for k in ("phi_witness_mask", "psi_witness_mask"):
            ok = ok and row[k] == want[k]
    return (1 << order) - 1, [] if ok else ["profile: differs from the reference or uncertified"]


CHECKERS = {
    "phase-transition": check_scans,
    "cutoff": check_scans,
    "tv-curve": check_curves,
    "oracle-check": check_oracle,
    "profiles": check_profiles,
}


def check_outputs(doc: dict, ref: dict, prob_errors) -> tuple[int, list]:
    """Check one config's artifacts; a missing or unreadable artifact fails all its rows."""
    try:
        return CHECKERS[doc["kind"]](doc, doc["output_dir"], ref, prob_errors)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return 0, [f"{doc['kind']}: unreadable outputs ({exc!r})"] * expected_ops(doc)
