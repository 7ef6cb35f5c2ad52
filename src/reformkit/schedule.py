"""Step-indexed reformulation policies: windows, mixes, curricula, mask windows.

All step boundaries are half-open [start, end): a window of 0.2 over 10000
steps covers steps 0..1999. Boundary tests compare step/total_steps against
the configured fraction, so a step landing exactly on a boundary is always
excluded from the segment below it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .corpus import cast_fields
from .errors import ValidationError
from .reformulate import check_span_rate

KIND_WINDOW_FIRST = "window_first"
KIND_MIX = "mix"
KIND_CURRICULUM1 = "curriculum1"
KIND_CURRICULUM2 = "curriculum2"
KIND_CURRICULUM3 = "curriculum3"
KIND_MASK_WINDOW = "mask_window"

# the fields each kind reads besides kind and total_steps, and echoes
KIND_FIELDS = {
    KIND_WINDOW_FIRST: ("frac",),
    KIND_MIX: ("frac",),
    KIND_CURRICULUM1: (),
    KIND_CURRICULUM2: (),
    KIND_CURRICULUM3: (),
    KIND_MASK_WINDOW: ("start_frac", "end_frac", "mask_p", "span", "mean_span"),
}


@dataclass(frozen=True)
class SchedulePolicy:
    """One named schedule over ``total_steps`` training steps.

    ``frac`` is the window cutoff for window_first and the constant
    probability for mix; ``start_frac``/``end_frac``/``mask_p``/``span``/
    ``mean_span`` configure mask_window. Other kinds take their defaults.
    """

    kind: str
    total_steps: int
    frac: float = 0.0
    start_frac: float = 0.0
    end_frac: float = 0.0
    mask_p: float = 0.1
    span: bool = False
    mean_span: int = 3

    def __post_init__(self) -> None:
        cast_fields(self)
        if self.kind not in KIND_FIELDS:
            raise ValidationError(f"unknown schedule kind: {self.kind!r}")
        for f in fields(self)[2:]:
            if f.name not in KIND_FIELDS[self.kind] and getattr(self, f.name) != f.default:
                raise ValidationError(f"{self.kind} schedule takes no {f.name}")
        if self.total_steps < 1:
            raise ValidationError("total_steps must be >= 1")
        if not 0.0 <= self.frac <= 1.0:
            raise ValidationError(f"fraction {self.frac} outside [0, 1]")
        # the defaults of the mask fields pass these checks
        if not 0.0 <= self.start_frac <= self.end_frac <= 1.0:
            raise ValidationError(
                f"mask window [{self.start_frac}, {self.end_frac}) is not ordered in [0, 1]"
            )
        if not 0.0 < self.mask_p < 1.0:
            raise ValidationError(f"mask rate {self.mask_p} outside (0, 1)")
        if self.mean_span < 1:
            raise ValidationError("mean_span must be >= 1")
        if self.span:
            check_span_rate(self.mask_p, self.mean_span)


@dataclass(frozen=True)
class MaskSpec:
    p: float
    span: bool = False
    mean_span: int = 3


@dataclass(frozen=True)
class StepPolicy:
    reform_fraction: float
    prefix: float | None = None  # the prefix fraction; None draws it uniformly
    mask: MaskSpec | None = None


def window_first(frac: float, total_steps: int) -> SchedulePolicy:
    return SchedulePolicy(KIND_WINDOW_FIRST, total_steps, frac=frac)


def mix(p: float, total_steps: int) -> SchedulePolicy:
    return SchedulePolicy(KIND_MIX, total_steps, frac=p)


def curriculum1(total_steps: int) -> SchedulePolicy:
    return SchedulePolicy(KIND_CURRICULUM1, total_steps)


def curriculum2(total_steps: int) -> SchedulePolicy:
    return SchedulePolicy(KIND_CURRICULUM2, total_steps)


def curriculum3(total_steps: int) -> SchedulePolicy:
    return SchedulePolicy(KIND_CURRICULUM3, total_steps)


def mask_window(
    start_frac: float,
    end_frac: float,
    p: float,
    total_steps: int,
    span: bool = False,
    mean_span: int = 3,
) -> SchedulePolicy:
    return SchedulePolicy(
        KIND_MASK_WINDOW,
        total_steps,
        start_frac=start_frac,
        end_frac=end_frac,
        mask_p=p,
        span=span,
        mean_span=mean_span,
    )


# The four standard masking setups: (start, end, p, span mask?)
MASK_PRESETS = {
    "mask1": (0.0, 0.2, 0.1, False),
    "mask2": (0.8, 1.0, 0.1, False),
    "mask3": (0.5, 1.0, 0.25, False),
    "mask4": (0.5, 1.0, 0.25, True),
}


def mask_preset(name: str, total_steps: int) -> SchedulePolicy:
    if name not in MASK_PRESETS:
        raise ValidationError(f"unknown mask preset: {name!r}")
    start, end, p, span = MASK_PRESETS[name]
    return mask_window(start, end, p, total_steps, span=span)


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def _evaluate(step: int, policy: SchedulePolicy) -> StepPolicy:
    T = policy.total_steps
    x = step / T
    if policy.kind == KIND_WINDOW_FIRST:
        return StepPolicy(reform_fraction=1.0 if x < policy.frac else 0.0)
    if policy.kind == KIND_MIX:
        return StepPolicy(reform_fraction=policy.frac)
    if policy.kind == KIND_CURRICULUM1:
        return StepPolicy(reform_fraction=1.0, prefix=_clamp01(1.0 - x))
    if policy.kind == KIND_CURRICULUM2:
        if x < 0.2:
            frac = 0.8
        elif x < 0.6:
            frac = 0.8 - (x - 0.2)  # linear 0.8 -> 0.4 across the segment
        else:
            frac = 0.0
        return StepPolicy(reform_fraction=_clamp01(frac))
    if policy.kind == KIND_CURRICULUM3:
        if x < 0.2:
            return StepPolicy(reform_fraction=1.0, prefix=_clamp01(1.0 - x / 0.2))
        return StepPolicy(reform_fraction=0.0)
    assert policy.kind == KIND_MASK_WINDOW
    if policy.start_frac <= x < policy.end_frac:
        return StepPolicy(
            reform_fraction=1.0,
            mask=MaskSpec(policy.mask_p, policy.span, policy.mean_span),
        )
    return StepPolicy(reform_fraction=0.0)


def policy_at(step: int, policy: SchedulePolicy) -> StepPolicy:
    """Evaluate the policy at a training step, 0 <= step < total_steps."""
    if not 0 <= step < policy.total_steps:
        raise ValidationError(f"step {step} outside 0..{policy.total_steps - 1}")
    return _evaluate(step, policy)


def dump_curve(policy: SchedulePolicy, resolution: int) -> list[tuple[int, float, str, bool]]:
    """Sample the policy at ``resolution`` evenly spaced steps across 0..T.

    The last row sits at step == total_steps so curve endpoints are visible
    even though that step is never trained on.
    """
    if resolution < 2:
        raise ValidationError("resolution must be >= 2")
    rows = []
    T = policy.total_steps
    for i in range(resolution):
        step = round(i * T / (resolution - 1))
        sp = _evaluate(step, policy)
        prefix = "uniform01" if sp.prefix is None else format(sp.prefix, ".6g")
        rows.append((step, sp.reform_fraction, prefix, sp.mask is not None))
    return rows


def curve_tsv(policy: SchedulePolicy, resolution: int) -> str:
    lines = ["step\treform_fraction\tprefix\tmask_active"]
    for step, frac, prefix, mask_active in dump_curve(policy, resolution):
        lines.append(f"{step}\t{format(frac, '.6g')}\t{prefix}\t{str(mask_active).lower()}")
    return "\n".join(lines) + "\n"


def policy_to_dict(policy: SchedulePolicy) -> dict:
    names = ("kind", "total_steps", *KIND_FIELDS[policy.kind])
    return {name: getattr(policy, name) for name in names}
