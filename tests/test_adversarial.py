"""Construction generators: structure, determinism, and exact claimed counts."""

import pytest

from fifosim import (
    ConstructionError,
    gen_adversarial,
    replay_accept_mask,
    run,
    validate_trace,
)

ALL_CASES = [
    ("PO_VS_LPO", dict(B=10, periods=3)),
    ("LPO_VS_PO", dict(B=10, k=6, periods=3)),
    ("KGEB", dict(B=10, k=10, periods=3)),
    ("KGEB", dict(B=3, k=5, periods=3)),
    ("PO_KLTB", dict(B=27, k=3, periods=2)),
    ("PO_KLTB", dict(B=29, k=3, periods=2)),
    ("LPO_KLTB", dict(B=20, k=3, periods=2)),
    ("NPO_TIGHT", dict(B=10, k=5, C=1, periods=10)),
    ("NPO_TIGHT", dict(B=8, k=4, C=2, periods=10)),
    ("LOG_RECURSIVE", dict(B=10, level=0, periods=2)),
    ("LOG_RECURSIVE", dict(B=10, level=2, periods=1)),
]


@pytest.mark.parametrize("name,kwargs", ALL_CASES)
def test_generated_traces_validate(name, kwargs):
    adv = gen_adversarial(name, **kwargs)
    assert validate_trace(adv.trace) == []
    assert max(adv.trace.works) <= adv.trace.k_declared


@pytest.mark.parametrize("name,kwargs", ALL_CASES)
def test_generation_is_deterministic(name, kwargs):
    a, b = gen_adversarial(name, **kwargs).trace, gen_adversarial(name, **kwargs).trace
    assert (a.slots, a.works) == (b.slots, b.works)


@pytest.mark.parametrize("name,kwargs", ALL_CASES)
def test_target_policy_meets_claimed_total(name, kwargs):
    adv = gen_adversarial(name, **kwargs)
    B, C = kwargs["B"], kwargs.get("C", 1)
    got = run(adv.trace, adv.target, B, C).transmitted_count
    assert got == adv.claimed_total[adv.target], (
        f"{name}: target {adv.target} transmitted {got}, claimed {adv.claimed_total[adv.target]}"
    )


@pytest.mark.parametrize("name,kwargs", ALL_CASES)
def test_comparator_meets_claimed_total(name, kwargs):
    adv = gen_adversarial(name, **kwargs)
    B, C = kwargs["B"], kwargs.get("C", 1)
    assert (adv.reference_mask is None) == (adv.comparator != "reference")
    if adv.comparator == "reference":
        got = replay_accept_mask(adv.trace, adv.reference_mask, B, C).transmitted_count
    else:
        got = run(adv.trace, adv.comparator, B, C).transmitted_count
    assert got == adv.claimed_total[adv.comparator]


def test_po_vs_lpo_schedule_shape():
    adv = gen_adversarial("PO_VS_LPO", B=2, periods=1)
    # heavy burst at the period start, light burst once the eager policy has
    # finished half of it (slot B+1)
    assert adv.trace.slots == [1, 1, 3, 3]
    assert adv.trace.works == [2, 2, 1, 1]
    assert adv.trace.metadata["params"]["period_length"] == 4
    assert adv.claimed == {"po": 3, "lpo": 2}


def test_lpo_vs_po_acceptance_point():
    adv = gen_adversarial("LPO_VS_PO", B=10, k=6, periods=1)
    assert adv.claimed == {"lpo": 25, "po": 20}
    assert adv.trace.metadata["params"]["period_length"] == 35
    assert sorted(set(adv.trace.slots)) == [1, 10, 20, 26]


def test_kgeb_acceptance_point():
    adv = gen_adversarial("KGEB", B=10, k=10, periods=1)
    assert adv.claimed["po"] == 10
    assert adv.claimed["reference"] == 18
    assert [w for s, w in zip(adv.trace.slots, adv.trace.works) if s == 1] == [10, 1]
    assert adv.trace.metadata["params"]["period_length"] == 18


def test_npo_tight_acceptance_numbers():
    adv = gen_adversarial("NPO_TIGHT", B=10, k=5, C=1, periods=100)
    assert adv.claimed_total == {"npo": 110, "reference": 510}


def test_log_recursive_heavy_growth():
    lvl2 = gen_adversarial("LOG_RECURSIVE", B=10, level=2)
    lvl1 = gen_adversarial("LOG_RECURSIVE", B=10, level=1)
    assert lvl2.trace.k_declared > lvl1.trace.k_declared > 72
    assert lvl1.trace.k_declared == 9 * (8 + 72)


def test_log_recursive_k_too_small_rejected():
    with pytest.raises(ConstructionError):
        gen_adversarial("LOG_RECURSIVE", B=10, k=50, level=0)


def test_periods_tile_cleanly():
    one = gen_adversarial("KGEB", B=10, k=10, periods=1)
    three = gen_adversarial("KGEB", B=10, k=10, periods=3)
    assert three.trace.packet_count == 3 * one.trace.packet_count
    for pol in ("po", "lpo"):
        assert three.claimed_total[pol] == 3 * one.claimed_total[pol]
    # second period is the first shifted by one period length
    n, length = one.trace.packet_count, one.trace.metadata["params"]["period_length"]
    assert three.trace.slots[n : 2 * n] == [s + length for s in one.trace.slots]
    assert three.trace.works[n : 2 * n] == one.trace.works


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("PO_VS_LPO", dict(B=10, k=1)),          # k >= 2
        ("LPO_VS_PO", dict(B=10, k=5)),          # k > B/2
        ("LPO_VS_PO", dict(B=10)),               # k required
        ("NPO_TIGHT", dict(B=2, k=5, C=3)),      # B >= C
        ("NPO_TIGHT", dict(B=10, k=1)),          # k >= 2
        ("KGEB", dict(B=10, k=9)),               # k >= B
        ("KGEB", dict(B=2, k=5)),                # B >= 3
        ("PO_KLTB", dict(B=10, k=10)),           # k < B
        ("PO_KLTB", dict(B=10, k=1)),            # k >= 2
        ("LPO_KLTB", dict(B=3, k=2)),            # alpha*B >= 1
        ("LOG_RECURSIVE", dict(B=7)),            # B >= 8
        ("LOG_RECURSIVE", dict(B=10, level=-1)),
        ("KGEB", dict(B=10, k=10, C=2)),         # single-core construction
        ("PO_VS_LPO", dict(B=10, periods=0)),
        ("KGEB", dict(B=10, k=10, level=1)),     # level is LOG_RECURSIVE's alone
        ("KGEB", dict(B=10.5, k=11)),            # every argument is an int
        ("PO_VS_LPO", dict(B=10, periods=1.5)),
        ("KGEB", dict(B=10, k=10.5)),
        ("KGEB", dict(B=10, k=10, C=1.0)),
        ("LOG_RECURSIVE", dict(B=10, level=1.5)),
        ("KGEB", dict(B=None, k=11)),
    ],
)
def test_preconditions_rejected(name, kwargs):
    with pytest.raises(ConstructionError):
        gen_adversarial(name, **kwargs)


def test_unknown_construction_rejected():
    with pytest.raises(ConstructionError):
        gen_adversarial("NOPE", B=10)


def test_metadata_carries_claims():
    adv = gen_adversarial("PO_KLTB", B=27, k=3, periods=2)
    params = adv.trace.metadata["params"]
    assert params["construction"] == "PO_KLTB"
    assert params["claimed_total"] == adv.claimed_total
    assert params["reference_reject_works"] == [3]
    assert adv.reference_mask == tuple(w not in params["reference_reject_works"] for w in adv.trace.works)


def test_rounding_note_recorded_for_odd_b():
    adv = gen_adversarial("PO_VS_LPO", B=9, periods=1)
    assert "rounding" in adv.trace.metadata["params"]
