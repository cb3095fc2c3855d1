import math

import pytest

from fifosim import BOUND_IDS, bound_value


def test_npo_bound_is_k():
    assert bound_value("NPO_TIGHT_K", k=5) == 5.0


def test_kgeb_bound():
    assert bound_value("LB_PUSHOUT_KGEB", B=10) == 1.8


def test_po_small_k_bound():
    assert bound_value("LB_PO_KLTB", k=3) == pytest.approx(1.5)


def test_lpo_small_k_bound():
    assert bound_value("LB_LPO_KLTB", k=3) == pytest.approx(5 / 3)


def test_ln_upper_bound():
    assert bound_value("LPO_UPPER_LN", k=10) == pytest.approx(math.log(10) + 3)


def test_log2_upper_bound():
    assert bound_value("LPO_P_UPPER_LOG2", k=8, B=4) == pytest.approx(3 + 3 + 0.75)


def test_log_recursive_bound_uses_exact_floor():
    assert bound_value("LB_LOG_RECURSIVE", k=999, B=10) == 3.0
    assert bound_value("LB_LOG_RECURSIVE", k=1000, B=10) == 4.0
    assert bound_value("LB_LOG_RECURSIVE", k=1, B=10) == 1.0


def test_kltb_matches_kgeb_at_k_equals_b_minus_one():
    # the two lower-bound formulas coincide exactly at k = B-1
    for B in (2, 5, 10, 17, 40):
        po = bound_value("LB_PO_KLTB", k=B - 1, B=B)
        kgeb = bound_value("LB_PUSHOUT_KGEB", k=B - 1, B=B)
        assert po == kgeb


def test_every_bound_is_positive():
    for bid in BOUND_IDS:
        assert bound_value(bid, k=4, B=8) > 0


def test_case_insensitive_and_unknown():
    assert bound_value("lb_pushout_kgeb", B=10) == 1.8
    for bad in ("NOT_A_BOUND", 5, None, ["NPO_TIGHT_K"]):
        with pytest.raises(ValueError, match="unknown bound id"):
            bound_value(bad, k=1, B=1)
    with pytest.raises(ValueError):
        bound_value("NPO_TIGHT_K", k=0, B=1)
    with pytest.raises(ValueError):
        bound_value("LB_LOG_RECURSIVE", k=5, B=1)
    with pytest.raises(ValueError, match="integer"):
        bound_value("NPO_TIGHT_K", k=2.5, B=1)
