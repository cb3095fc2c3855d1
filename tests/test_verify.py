"""Verification reports: construction checks, micro suite, report lines."""

import hashlib
import json

import pytest

import fifosim.verify
from fifosim import verify_construction, verify_micro
from fifosim.adversarial import CONSTRUCTIONS
from fifosim.verify import _RULES, CONSTRUCTION_CASES, constructions_suite, golden_suite


def test_every_construction_has_one_rule_and_a_case():
    assert sorted(_RULES) == sorted(CONSTRUCTIONS)
    assert {name for name, _ in CONSTRUCTION_CASES} == set(CONSTRUCTIONS)


def test_reference_replay_recorded():
    rep = verify_construction("KGEB", B=10, k=10, C=1, periods=5)
    assert rep.measured["reference_replayed"] == rep.claimed["reference"]


def test_report_line_format():
    rep = verify_construction("KGEB", B=10, k=10, C=1, periods=2)
    assert rep.line().startswith("PASS ")


def test_micro_suite_small_run():
    rep = verify_micro(count=25, seed=5)
    assert rep.passed
    assert rep.measured["violations"] == 0
    # reference-vs-oracle tallies are reported, not asserted
    assert "srpt_below_oracle" in rep.measured
    assert "ln_bound_misses" in rep.measured


@pytest.mark.parametrize(
    "count, seed, message",
    [
        (0, 0, "count must be >= 1"),  # used to pass over no instances
        (True, 0, "count must be an integer"),
        (1.5, 0, "count must be an integer"),  # used to escape as TypeError
        (1, -1, "seed must be >= 0"),  # used to escape from numpy
        (1, 0.5, "seed must be an integer"),
    ],
)
def test_micro_suite_refuses_bad_arguments(count, seed, message):
    with pytest.raises(ValueError, match=message):
        verify_micro(count=count, seed=seed)


def test_micro_suite_deterministic():
    a = verify_micro(count=10, seed=3)
    b = verify_micro(count=10, seed=3)
    assert a.measured == b.measured


def test_micro_instances_are_pinned(monkeypatch):
    # every (B, slots, works, k) the micro suite hands the oracle, in order;
    # a cheaper way of drawing them must draw the same instances
    seen = []
    oracle = fifosim.verify.offline_opt_bruteforce

    def recording(trace, B, C=1):
        seen.append([B, trace.slots, trace.works, trace.k_declared])
        return oracle(trace, B, C)

    monkeypatch.setattr(fifosim.verify, "offline_opt_bruteforce", recording)
    assert verify_micro(2000, seed=0).passed
    assert len(seen) == 2000
    digest = hashlib.sha256(json.dumps(seen).encode()).hexdigest()
    assert digest == "de86f5fb95bf58641598f30c99a45075a478656de747b73fe938960997015337"


def test_micro_relations_on_fixed_instances():
    from fifosim import offline_opt_bruteforce, run
    from conftest import make_trace

    # same-slot triple of singles at B=2: greedy takes two, so does the oracle
    trace = make_trace([(1, [1, 1, 1])])
    npo = run(trace, "npo", 2, 1).transmitted_count
    opt = offline_opt_bruteforce(trace, B=2).throughput
    assert npo <= opt == 2

    # the k-competitiveness bound on an arbitrary micro instance
    trace = make_trace([(1, [3, 1]), (2, [3, 3]), (4, [1])], k=3)
    npo = run(trace, "npo", 2, 1).transmitted_count
    assert offline_opt_bruteforce(trace, B=2).throughput <= 3 * npo

    # empty trace: everything is zero and every relation holds vacuously
    empty = make_trace([])
    assert offline_opt_bruteforce(empty, B=2).throughput == 0
    assert run(empty, "npo", 2, 1).transmitted_count == 0


def test_golden_suite_all_pass():
    reports = golden_suite()
    assert len(reports) == 10
    failed = [r.check for r in reports if not r.passed]
    assert not failed, failed


def test_constructions_suite_all_pass():
    reports = constructions_suite()
    failed = [r.check for r in reports if not r.passed]
    assert not failed, failed
