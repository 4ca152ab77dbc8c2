"""Correctness checks on gain tables; every failure counts against checks attempted."""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_FIELDS = ("mean_gain", "bound_mean", "eta", "rho")
KEY_FIELDS = ("model", "architecture", "l", "n_i", "rician_k", "trials")
# the reference tables were recorded at the seed commit; a LAPACK swap of the
# spectral primitive measured agreement to about 7 digits
REFERENCE_REL_TOL = 1e-6
# both the gain and its bound come out of a power iteration stopped at 1e-12
# relative, so a bound met with equality may read below the gain by rounding
BOUND_SLACK = 1e-9
# alg1 stops when a sweep gains less than rel_tol = 1e-6, which leaves up to a
# few 1e-5 of the norm-product bound (1.9e-5 the worst of 60 Rician K=0 draws);
# diagonal rows stay at least 1e-2 below it, so this still tells them apart
UNITARY_BOUND_TOL = 1e-4


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.skipped: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def table_rows(table) -> list[dict]:
    return [asdict(row) for row in table.rows]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def save_reference(workload: str, spec, rows: list[dict]):
    REFERENCE_DIR.mkdir(exist_ok=True)
    doc = {"spec": spec.to_json_dict(),
           "rows": [{k: row[k] for k in KEY_FIELDS + REFERENCE_FIELDS} for row in rows]}
    reference_path(workload).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _close(value, ref) -> bool:
    if ref is None or value is None:
        return value is ref
    return abs(value - ref) <= REFERENCE_REL_TOL * max(abs(value), abs(ref))


def check_reference(checks: Checks, workload: str, spec, rows: list[dict]):
    """Rows of the reference slice against the table recorded at the seed commit."""
    ref = json.loads(reference_path(workload).read_text())
    checks.check(ref["spec"] == spec.to_json_dict(), f"{workload}: reference spec differs")
    checks.check(len(rows) == len(ref["rows"]),
                 f"{workload}: {len(rows)} rows, reference has {len(ref['rows'])}")
    for i, (row, want) in enumerate(zip(rows, ref["rows"])):
        checks.check(all(row[k] == want[k] for k in KEY_FIELDS), f"{workload} row {i}: key differs")
        for field in REFERENCE_FIELDS:
            checks.check(_close(row[field], want[field]),
                         f"{workload} row {i} {field}: {row[field]!r} vs reference {want[field]!r}")


def check_invariants(checks: Checks, label: str, rows: list[dict]):
    """bound >= gain on bounded rows; converged unitary widely_used rows reach their bound."""
    for i, row in enumerate(rows):
        bound, gain = row["bound_mean"], row["mean_gain"]
        if bound is None:
            continue
        checks.check(bound >= gain * (1.0 - BOUND_SLACK),
                     f"{label} row {i}: gain {gain!r} above bound {bound!r}")
        if row["model"] != "widely_used" or row["architecture"] != "unitary":
            continue
        if row["converged_frac"] < 1.0:
            # the bound is the optimum's value, not that of a run stopped at
            # the sweep cap; such runs show in converged_frac instead
            checks.skipped.append(f"{label} row {i}: unitary bound not checked, "
                                  f"converged_frac {row['converged_frac']!r}")
            continue
        checks.check(abs(bound - gain) <= UNITARY_BOUND_TOL * bound,
                     f"{label} row {i}: unitary gain {gain!r} short of bound {bound!r}")


def quality_metrics(rows: list[dict]) -> dict[str, float]:
    """gain_to_bound and converged_frac of one table.

    gain_to_bound averages mean_gain / bound_mean over the bounded physics
    rows. Line-of-sight tables carry no bound (their closed forms are
    optimal), so there it is 1.0. converged_frac weights each optimizer row
    (physics, widely_used) by its trial count.
    """
    ratios = [r["mean_gain"] / r["bound_mean"] for r in rows
              if r["model"] == "physics" and r["bound_mean"]]
    runs = [r for r in rows if r["model"] in ("physics", "widely_used")]
    converged = sum(r["converged_frac"] * r["trials"] for r in runs)
    return {
        "gain_to_bound": sum(ratios) / len(ratios) if ratios else 1.0,
        "converged_frac": converged / sum(r["trials"] for r in runs),
    }
