"""The benchmark's workloads: set-up, one fixed pass of operations, checks.

Each workload is one closed-loop caller that drives the public `ikernel`
API. `setup` builds everything the timed phase needs from the seed,
`ops` is the fixed list one pass runs, `run_op` is the timed call and
`check_op` is the untimed correctness check against an oracle that does not
depend on the engine.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import oracle

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def _load_digests() -> dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def digest_key(scenario: str, n: int, m: int, max_degree: int) -> str:
    return f"{scenario}@{n},{m},{max_degree}"


@dataclass
class ReportChecker:
    """Scenario-report oracle: verdict `pass`, the digest recorded for that
    (scenario, size) at the seed, and `verify_report` acceptance. Reports
    are byte-identical, so each digest is re-verified only once."""

    ik: object
    digests: dict[str, str] = field(default_factory=_load_digests)
    verified: set[str] = field(default_factory=set)

    def problems(self, key: str, report) -> list[str]:
        found = []
        if report.verdict != "pass":
            found.append(f"{key}: verdict {report.verdict}")
        digest = oracle.report_digest(report.to_json(include_wall_time=False))
        expected = self.digests.get(key)
        if digest != expected:
            found.append(f"{key}: digest {digest[:12]} != recorded {str(expected)[:12]}")
        elif digest not in self.verified:
            result = self.ik.verify_report(report.to_dict())
            if result.ok:
                self.verified.add(digest)
            else:
                found.append(f"{key}: verify_report {result.failures[:3]}")
        return found


class ScenarioWorkload:
    """All nine harness scenarios through `run_scenario` at one size.

    An op is one scenario; each pass runs the catalogue in a seeded order.
    """

    setup_repeats = 9
    min_passes = 3
    calibration_repeats = 4

    def __init__(self, name: str, n: int, m: int, max_degree: int, why: str):
        self.name = name
        self.size = (n, m, max_degree)
        self.why = why

    def setup(self, ik, seed: int, workdir: Path):
        names = [entry["name"] for entry in ik.list_scenarios()]
        n, m, d = self.size
        return {
            "ik": ik,
            "ops": [ik.ScenarioConfig(name, n=n, m=m, max_degree=d) for name in names],
        }

    def check_setup(self, state) -> list[str]:
        return []

    def ops(self, state) -> list:
        return state["ops"]

    def op_name(self, op) -> str:
        return op.scenario

    def run_op(self, state, op):
        return state["ik"].run_scenario(op)

    def check_op(self, state, checker: ReportChecker, op, result) -> list[str]:
        return checker.problems(digest_key(op.scenario, *self.size), result)

    def latency_samples(self, per_op: dict[int, list[float]]) -> list[float]:
        """One value per scenario: its median time. Nine different scenarios
        have no shared latency distribution, so the percentiles are taken
        over the per-scenario medians."""
        return [statistics.median(values) for values in per_op.values()]

    def teardown(self, state) -> None:
        pass


# Reports written during certify-verify set-up and re-checked through the CLI.
VERIFY_REPORTS = (
    ("localization-smoothness", 2, 2, 3),
    ("g1-integrality-dichotomy", 1, 1, 3),
    ("action-stability", 2, 2, 3),
)


class CertifyVerifyWorkload:
    """A long-lived library session on `build_instance(2, 2)`.

    Set-up builds the instance, generates the seeded queries, writes the
    scenario reports (and tampered copies) and warms `tracked_piece` through
    the highest query degree. An op is either a membership query whose
    certificate is serialised and re-checked with `verify_membership_json`,
    or an in-process `ikernel verify` call on one of the reports.
    """

    name = "certify-verify"
    setup_repeats = 3
    min_passes = 3
    calibration_repeats = 1
    n, m = 2, 2
    degrees = range(3, 9)
    queries = 200
    verify_ops = 48
    why = ("membership queries of degree 3-8 with certificate re-checks and "
           "CLI verify calls on a warm session: poly-bound, bypasses elimination")

    def setup(self, ik, seed: int, workdir: Path):
        inst = ik.build_instance(self.n, self.m)
        queries = oracle.membership_queries(seed, self.queries, self.n, self.m, self.degrees)
        folder = Path(tempfile.mkdtemp(prefix="reports-", dir=workdir))
        reports = []
        files = []
        for scenario, n, m, d in VERIFY_REPORTS:
            report = ik.run_scenario(ik.ScenarioConfig(scenario, n=n, m=m, max_degree=d))
            data = report.to_dict()
            genuine = folder / f"{scenario}.json"
            genuine.write_text(json.dumps(data, indent=2, sort_keys=True))
            tampered = folder / f"{scenario}.tampered.json"
            tampered.write_text(json.dumps(_tamper(data), indent=2, sort_keys=True))
            reports.append((digest_key(scenario, n, m, d), report))
            files += [(str(genuine), 0), (str(tampered), 1)]
        graded = inst.algebra.graded_basis()
        for d in range(1, self.degrees[-1] + 1):
            graded.tracked_piece(d)
        ops = [("member", q) for q in queries]
        ops += [("verify", files[k % len(files)]) for k in range(self.verify_ops)]
        return {"ik": ik, "inst": inst, "folder": folder, "reports": reports, "ops": ops}

    def check_setup(self, state) -> list[str]:
        checker = ReportChecker(state["ik"])
        found = []
        for key, report in state["reports"]:
            found += checker.problems(key, report)
        return found

    def ops(self, state) -> list:
        return state["ops"]

    def op_name(self, op) -> str:
        kind, payload = op
        if kind == "member":
            return f"member:{payload.text}"
        return f"verify:{Path(payload[0]).name}"

    def run_op(self, state, op):
        ik = state["ik"]
        kind, payload = op
        if kind == "member":
            inst = state["inst"]
            candidate = inst.varsys.parse(payload.text)
            cert = ik.membership(inst.algebra, candidate)
            if cert is None:
                return None
            text = json.dumps(cert.to_json_dict(), sort_keys=True)
            return text, ik.algebra.verify_membership_json(json.loads(text))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return ik.cli.main(["verify", payload[0]])

    def check_op(self, state, checker, op, result) -> list[str]:
        kind, payload = op
        if kind == "verify":
            path, expected = payload
            if result != expected:
                return [f"verify {Path(path).name}: exit {result}, expected {expected}"]
            return []
        query = payload
        if (result is not None) != query.member:
            return [f"membership of {query.text}: got {result is not None}"]
        if result is None:
            return []
        text, rechecked = result
        cert = json.loads(text)
        names = oracle.variable_names(self.n, self.m)
        found = []
        if not rechecked:
            found.append(f"certificate for {query.text} failed its re-check")
        if oracle.parse_poly(cert["target"], names) != query.poly:
            found.append(f"certificate for {query.text} names another target")
        return found

    def latency_samples(self, per_op: dict[int, list[float]]) -> list[float]:
        return [t for values in per_op.values() for t in values]

    def teardown(self, state) -> None:
        shutil.rmtree(state["folder"], ignore_errors=True)


def _membership_certs(obj) -> list[dict]:
    found = []
    if isinstance(obj, dict):
        if obj.get("cert_type") == "membership":
            found.append(obj)
        for value in obj.values():
            found += _membership_certs(value)
    elif isinstance(obj, list):
        for value in obj:
            found += _membership_certs(value)
    return found


def _tamper(data: dict) -> dict:
    """A copy with the last membership certificate's expression shifted by
    the constant 1. Targets are homogeneous of positive degree, so the
    tampered expression can never evaluate to its target. The last one is
    taken so that a verifier has to check everything before it, and a
    tampered report costs about as much to verify as the genuine one."""
    copy = json.loads(json.dumps(data))
    cert = _membership_certs(copy["details"])[-1]
    cert["expression"] = f"{cert['expression']} + 1"
    return copy


WORKLOADS = {
    w.name: w
    for w in (
        ScenarioWorkload(
            "scenarios-wide", 2, 2, 5,
            "all nine scenarios at (2,2,5): 5-variable frames up to 126 columns; "
            "elimination-bound",
        ),
        ScenarioWorkload(
            "scenarios-deep", 1, 1, 11,
            "all nine scenarios at (1,1,11): narrow 3-variable frames over twice "
            "as many degrees as wide; many small inserts",
        ),
        CertifyVerifyWorkload(),
    )
}


def all_report_keys(ik) -> list[tuple[str, int, int, int]]:
    """Every (scenario, n, m, max_degree) whose digest the oracle records."""
    names = [entry["name"] for entry in ik.list_scenarios()]
    keys = []
    for workload in WORKLOADS.values():
        if isinstance(workload, ScenarioWorkload):
            keys += [(name, *workload.size) for name in names]
    return keys + list(VERIFY_REPORTS)
