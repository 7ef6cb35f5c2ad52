"""Schedule evaluation tests: breakpoints, curricula, mask windows, curves."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from reformkit.errors import ValidationError
from reformkit.schedule import (
    MASK_PRESETS,
    SchedulePolicy,
    curriculum1,
    curriculum2,
    curriculum3,
    curve_tsv,
    dump_curve,
    fixed,
    mask_preset,
    mask_window,
    mix,
    policy_at,
    policy_from_dict,
    policy_to_dict,
    window_first,
)

T = 10_000


def test_curriculum2_first_segment():
    assert policy_at(0, curriculum2(T)).reform_fraction == 0.8
    assert policy_at(1999, curriculum2(T)).reform_fraction == 0.8


def test_curriculum2_midpoint():
    assert policy_at(4000, curriculum2(T)).reform_fraction == pytest.approx(0.6)


def test_curriculum2_tail_is_zero():
    assert policy_at(7000, curriculum2(T)).reform_fraction == 0.0
    assert policy_at(6000, curriculum2(T)).reform_fraction == 0.0


def test_curriculum2_continuous_at_breakpoints():
    # entering the decline segment keeps the value at 0.8
    assert policy_at(2000, curriculum2(T)).reform_fraction == pytest.approx(0.8)
    # just before the cutoff the value has come down to ~0.4
    assert policy_at(5999, curriculum2(T)).reform_fraction == pytest.approx(0.4, abs=0.001)


def test_curriculum1_prefix_declines_linearly():
    p = curriculum1(T)
    first = policy_at(0, p)
    last = policy_at(T - 1, p)
    assert first.reform_fraction == 1.0 and last.reform_fraction == 1.0
    assert first.prefix_law == fixed(1.0)
    assert last.prefix_law.kind == "fixed"
    assert abs(last.prefix_law.value) <= 1 / T


def test_curriculum3_front_loaded():
    p = curriculum3(T)
    assert policy_at(1000, p).prefix_law == fixed(0.5)
    assert policy_at(0, p).reform_fraction == 1.0
    assert policy_at(2000, p).reform_fraction == 0.0
    assert policy_at(9999, p).reform_fraction == 0.0


def test_window_first_covers_ceil_of_cutoff():
    p = window_first(0.2, 10)
    fracs = [policy_at(s, p).reform_fraction for s in range(10)]
    assert fracs == [1.0, 1.0] + [0.0] * 8
    # non-integer boundary: 0.25 * 10 = 2.5 rounds the window up to 3 steps
    p = window_first(0.25, 10)
    fracs = [policy_at(s, p).reform_fraction for s in range(10)]
    assert fracs == [1.0, 1.0, 1.0] + [0.0] * 7


def test_window_boundary_exact_at_scale():
    p = window_first(0.2, T)
    assert policy_at(1999, p).reform_fraction == 1.0
    assert policy_at(2000, p).reform_fraction == 0.0


def test_mask_window_boundaries():
    p = mask_window(0.0, 0.2, 0.1, T)
    assert policy_at(1999, p).mask is not None
    assert policy_at(1999, p).mask.p == 0.1
    assert policy_at(2000, p).mask is None
    assert policy_at(2000, p).reform_fraction == 0.0


def test_mask_presets():
    assert MASK_PRESETS == {
        "mask1": (0.0, 0.2, 0.1, False),
        "mask2": (0.8, 1.0, 0.1, False),
        "mask3": (0.5, 1.0, 0.25, False),
        "mask4": (0.5, 1.0, 0.25, True),
    }
    p = mask_preset("mask4", T)
    mid = policy_at(7500, p)
    assert mid.mask is not None and mid.mask.span and mid.mask.p == 0.25
    assert policy_at(4999, p).mask is None
    with pytest.raises(ValidationError):
        mask_preset("mask9", T)


def test_mix_is_constant():
    p = mix(0.8, T)
    for step in (0, 123, 9999):
        assert policy_at(step, p).reform_fraction == 0.8


def test_policy_at_range_check():
    p = mix(0.5, 100)
    with pytest.raises(ValidationError):
        policy_at(100, p)
    with pytest.raises(ValidationError):
        policy_at(-1, p)


def test_dump_curve_window():
    rows = dump_curve(window_first(0.2, 10), 11)
    assert [r[0] for r in rows] == list(range(11))
    assert [r[1] for r in rows] == [1.0, 1.0] + [0.0] * 9


def test_dump_curve_mix_constant():
    rows = dump_curve(mix(0.8, 10), 6)
    assert all(r[1] == 0.8 for r in rows)


def test_dump_curve_curriculum1_endpoints():
    rows = dump_curve(curriculum1(10), 11)
    assert rows[0][2] == "1"
    assert rows[-1][2] == "0"


def test_curve_tsv_shape():
    text = curve_tsv(mix(0.8, 10), 5)
    lines = text.strip().split("\n")
    assert lines[0] == "step\treform_fraction\tprefix\tmask_active"
    assert len(lines) == 6
    assert lines[1] == "0\t0.8\tuniform01\tfalse"


def test_dump_curve_resolution_check():
    with pytest.raises(ValidationError):
        dump_curve(mix(0.5, 10), 1)


@given(
    st.sampled_from(["window_first", "mix", "curriculum1", "curriculum2", "curriculum3"]),
    st.integers(min_value=1, max_value=5000),
    st.data(),
)
def test_fractions_always_in_unit_interval(kind, total, data):
    if kind == "window_first":
        policy = window_first(data.draw(st.floats(0, 1)), total)
    elif kind == "mix":
        policy = mix(data.draw(st.floats(0, 1)), total)
    else:
        policy = SchedulePolicy(kind, total)
    step = data.draw(st.integers(min_value=0, max_value=total - 1))
    sp = policy_at(step, policy)
    assert 0.0 <= sp.reform_fraction <= 1.0
    if sp.prefix_law.kind == "fixed":
        assert 0.0 <= sp.prefix_law.value <= 1.0


def test_policy_dict_round_trip():
    policies = [
        window_first(0.2, 100),
        mix(0.8, 100),
        curriculum1(100),
        curriculum2(100),
        curriculum3(100),
        mask_window(0.5, 1.0, 0.25, 100, span=True, mean_span=4),
    ]
    for p in policies:
        assert policy_from_dict(policy_to_dict(p)) == p


def test_prefix_law_draw():
    rng = random.Random(4)
    assert fixed(0.3).draw(rng) == 0.3
    u = [policy_at(0, mix(0.5, 10)).prefix_law.draw(rng) for _ in range(100)]
    assert all(0.0 <= v < 1.0 for v in u)
    assert len(set(u)) > 90


def test_schedule_validation():
    with pytest.raises(ValidationError):
        SchedulePolicy("warmup", 10)
    with pytest.raises(ValidationError):
        mix(1.2, 10)
    with pytest.raises(ValidationError):
        window_first(0.5, 0)
    with pytest.raises(ValidationError):
        mask_window(0.8, 0.2, 0.1, 10)
    with pytest.raises(ValidationError):
        mask_window(0.0, 1.0, 0.0, 10)
    with pytest.raises(ValidationError, match="unreachable"):
        mask_window(0.0, 1.0, 0.9, 10, span=True, mean_span=1)
    mask_window(0.0, 1.0, 0.9, 10, span=False, mean_span=1)
    with pytest.raises(ValidationError, match="fraction"):
        policy_from_dict({"kind": "window_first", "total_steps": 10, "fraction": 0.5})
    assert mask_preset("mask4", 10).mean_span == 3
