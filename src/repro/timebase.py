"""Calendar and lockdown-timeline utilities for the study period.

The paper analyzes traffic between January 1 and May 17, 2020 at vantage
points in three regions (Central Europe, Southern Europe, US East
Coast).  All analyses are anchored to calendar structure: calendar
weeks, workdays vs. weekends, public holidays, and the region-specific
lockdown timeline (outbreak, lockdown start, relaxation stages).

This module is the single source of truth for those anchors.  Times are
abstract "local time" at the vantage point; the hourly index used by the
rest of the package is ``hours since 2020-01-01 00:00``.
"""

from __future__ import annotations

import datetime as _dt
import enum
import functools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Ordered pandemic phases every region timeline steps through.
PHASES = ("pre", "outbreak", "response", "lockdown", "relaxation", "reopening")

#: First day of the study period (inclusive).
STUDY_START = _dt.date(2020, 1, 1)

#: Last day of the study period (inclusive).  Covers every week used by
#: any figure in the paper (the latest is stage 3, May 10-17).
STUDY_END = _dt.date(2020, 5, 17)

#: Number of days in the study period.
STUDY_DAYS = (STUDY_END - STUDY_START).days + 1

#: Number of hourly bins in the study period.
STUDY_HOURS = STUDY_DAYS * 24

#: Public holidays observed at the European vantage points during the
#: study period.  Easter 2020: Good Friday Apr 10 through Easter Monday
#: Apr 13.  The paper explicitly treats April 10-13 as weekend days.
HOLIDAYS_EUROPE = frozenset(
    {
        _dt.date(2020, 1, 1),  # New Year's Day
        _dt.date(2020, 1, 6),  # Epiphany (observed in parts of CE/SE)
        _dt.date(2020, 4, 10),  # Good Friday
        _dt.date(2020, 4, 11),
        _dt.date(2020, 4, 12),  # Easter Sunday
        _dt.date(2020, 4, 13),  # Easter Monday
        _dt.date(2020, 5, 1),  # Labour Day
    }
)

#: Public holidays at the US vantage point during the study period.
HOLIDAYS_US = frozenset(
    {
        _dt.date(2020, 1, 1),  # New Year's Day
        _dt.date(2020, 1, 20),  # Martin Luther King Jr. Day
        _dt.date(2020, 2, 17),  # Presidents' Day
    }
)

#: The extended New Year / Christmas holiday period that makes week 1
#: unusable as a baseline (the paper normalizes by week 3 instead).
NEW_YEAR_HOLIDAY_END = _dt.date(2020, 1, 6)


class Region(enum.Enum):
    """Geographic region of a vantage point."""

    CENTRAL_EUROPE = "central-europe"
    SOUTHERN_EUROPE = "southern-europe"
    US_EAST = "us-east"


class DayKind(enum.Enum):
    """Ground-truth calendar kind of a day (not the classifier output)."""

    WORKDAY = "workday"
    WEEKEND = "weekend"
    HOLIDAY = "holiday"


@dataclass(frozen=True)
class LockdownTimeline:
    """Region-specific sequence of pandemic response milestones.

    Dates are the first day on which each phase is in effect.
    ``relaxation`` marks the first significant re-opening step and
    ``second_relaxation`` the broader opening (e.g. school re-openings).
    """

    region: Region
    outbreak: _dt.date
    initial_response: _dt.date
    lockdown: _dt.date
    relaxation: _dt.date
    second_relaxation: _dt.date

    def phase(self, day: _dt.date) -> str:
        """Return the phase name in effect on ``day``.

        One of ``"pre"``, ``"outbreak"``, ``"response"``, ``"lockdown"``,
        ``"relaxation"``, ``"reopening"``.
        """
        if day < self.outbreak:
            return "pre"
        if day < self.initial_response:
            return "outbreak"
        if day < self.lockdown:
            return "response"
        if day < self.relaxation:
            return "lockdown"
        if day < self.second_relaxation:
            return "relaxation"
        return "reopening"

    def phase_start(self, phase: str) -> Optional[_dt.date]:
        """First day of ``phase``, or ``None`` for the open-ended "pre"."""
        starts = {
            "outbreak": self.outbreak,
            "response": self.initial_response,
            "lockdown": self.lockdown,
            "relaxation": self.relaxation,
            "reopening": self.second_relaxation,
        }
        return starts.get(phase)

    def ramp_context(
        self, day: _dt.date
    ) -> Tuple[str, Optional[_dt.date], str]:
        """``(phase, phase_start, previous_phase)`` in effect on ``day``.

        This is the only timeline surface the profile layer consults, so
        scenario-event overrides (second waves) can reshape responses by
        wrapping it.
        """
        phase = self.phase(day)
        return phase, self.phase_start(phase), previous_phase(phase)

    def with_dates(self, **dates: _dt.date) -> "LockdownTimeline":
        """Copy of the timeline with some milestone dates replaced."""
        from dataclasses import replace

        return replace(self, **dates)

    def phase_spans(
        self,
        start: Optional[_dt.date] = None,
        end: Optional[_dt.date] = None,
    ) -> List[Tuple[str, _dt.date, _dt.date]]:
        """``(phase, first_day, last_day)`` spans inside ``[start, end]``.

        Defaults to the study period; phases that never occur inside the
        window are omitted.
        """
        lo = start or STUDY_START
        hi = end or STUDY_END
        spans: List[Tuple[str, _dt.date, _dt.date]] = []
        for day in iter_days(lo, hi):
            phase = self.phase(day)
            if spans and spans[-1][0] == phase:
                spans[-1] = (phase, spans[-1][1], day)
            else:
                spans.append((phase, day, day))
        return spans


def previous_phase(phase: str) -> str:
    """The phase preceding ``phase`` ("pre" precedes itself)."""
    idx = PHASES.index(phase)
    return PHASES[max(0, idx - 1)]


#: Central Europe: COVID-19 reached Europe in late January (week 4-5);
#: initial responses in early March; lockdown from March 16 (week 12);
#: first shop re-openings around April 20 (week 17); school openings in
#: a second wave from May 11 (week 20).
TIMELINE_CE = LockdownTimeline(
    region=Region.CENTRAL_EUROPE,
    outbreak=_dt.date(2020, 1, 27),
    initial_response=_dt.date(2020, 3, 9),
    lockdown=_dt.date(2020, 3, 16),
    relaxation=_dt.date(2020, 4, 20),
    second_relaxation=_dt.date(2020, 5, 4),
)

#: Southern Europe (Madrid region): educational system closed from
#: March 11; national state of emergency effective March 14 (week 11);
#: gradual relaxation from late April; further easing in May.
TIMELINE_SE = LockdownTimeline(
    region=Region.SOUTHERN_EUROPE,
    outbreak=_dt.date(2020, 1, 31),
    initial_response=_dt.date(2020, 3, 9),
    lockdown=_dt.date(2020, 3, 14),
    relaxation=_dt.date(2020, 4, 27),
    second_relaxation=_dt.date(2020, 5, 11),
)

#: US East Coast: outbreak recognized later; stay-at-home orders from
#: around March 22 (week 13); phased re-openings from mid-May.
TIMELINE_US = LockdownTimeline(
    region=Region.US_EAST,
    outbreak=_dt.date(2020, 2, 26),
    initial_response=_dt.date(2020, 3, 16),
    lockdown=_dt.date(2020, 3, 22),
    relaxation=_dt.date(2020, 5, 15),
    second_relaxation=_dt.date(2020, 6, 1),
)

TIMELINES = {
    Region.CENTRAL_EUROPE: TIMELINE_CE,
    Region.SOUTHERN_EUROPE: TIMELINE_SE,
    Region.US_EAST: TIMELINE_US,
}


def timeline_for(region: Region) -> LockdownTimeline:
    """Return the lockdown timeline for ``region``."""
    return TIMELINES[region]


@dataclass(frozen=True)
class Week:
    """A contiguous seven-day analysis window.

    The paper uses both ISO calendar weeks (Fig 1, Fig 4, Fig 8) and
    arbitrary seven-day windows anchored at a chosen start day
    (Figs 3, 7, 9, 10, 11).  ``Week`` models the latter; helpers below
    produce ISO weeks as ``Week`` objects too.
    """

    start: _dt.date
    label: str = ""

    @property
    def end(self) -> _dt.date:
        """Last day of the week (inclusive)."""
        return self.start + _dt.timedelta(days=6)

    def days(self) -> List[_dt.date]:
        """The seven days of the week, in order."""
        return [self.start + _dt.timedelta(days=i) for i in range(7)]

    def contains(self, day: _dt.date) -> bool:
        """Whether ``day`` falls inside this week."""
        return self.start <= day <= self.end

    def hour_range(self) -> Tuple[int, int]:
        """Half-open ``(start, stop)`` hourly-index range of the week."""
        start = hour_index(self.start, 0)
        return start, start + 7 * 24


def date_to_day_index(day: _dt.date) -> int:
    """Days since the study start (Jan 1, 2020 -> 0)."""
    return (day - STUDY_START).days


def day_index_to_date(index: int) -> _dt.date:
    """Inverse of :func:`date_to_day_index`."""
    return STUDY_START + _dt.timedelta(days=index)


def hour_index(day: _dt.date, hour: int) -> int:
    """Hourly index of ``hour`` o'clock on ``day``.

    The index is ``hours since 2020-01-01 00:00`` and is the time axis
    used by every aggregate and flow table in the package.
    """
    if not 0 <= hour <= 23:
        raise ValueError(f"hour must be in [0, 23], got {hour}")
    return date_to_day_index(day) * 24 + hour


def hour_index_to_datetime(index: int) -> _dt.datetime:
    """Inverse of :func:`hour_index`, as a naive datetime."""
    base = _dt.datetime.combine(STUDY_START, _dt.time())
    return base + _dt.timedelta(hours=index)


def iso_week(day: _dt.date) -> int:
    """ISO calendar week number of ``day`` (the paper's week axis)."""
    return day.isocalendar()[1]


def iso_week_dates(week: int) -> List[_dt.date]:
    """Days of 2020 ISO calendar week ``week`` within the study period."""
    return list(_iso_weeks().get(week, ()))


@functools.lru_cache(maxsize=None)
def _iso_weeks() -> Dict[int, Tuple[_dt.date, ...]]:
    """Study days by 2020 ISO week, built on first use."""
    weeks: Dict[int, List[_dt.date]] = {}
    for day in iter_days():
        year, week, _ = day.isocalendar()
        if year == 2020:
            weeks.setdefault(week, []).append(day)
    return {week: tuple(days) for week, days in weeks.items()}


def iter_days(
    start: Optional[_dt.date] = None, end: Optional[_dt.date] = None
) -> Iterator[_dt.date]:
    """Iterate days of the study period (or a sub-range, inclusive)."""
    day = start or STUDY_START
    stop = end or STUDY_END
    while day <= stop:
        yield day
        day += _dt.timedelta(days=1)


def is_weekend(day: _dt.date) -> bool:
    """Whether ``day`` is a Saturday or Sunday."""
    return day.weekday() >= 5


def day_kind(day: _dt.date, region: Region = Region.CENTRAL_EUROPE) -> DayKind:
    """Ground-truth calendar kind of ``day`` in ``region``.

    Holidays take precedence over the weekday grid; the paper treats the
    Easter holidays (April 10-13) as weekend days at the European
    vantage points.
    """
    holidays = HOLIDAYS_US if region is Region.US_EAST else HOLIDAYS_EUROPE
    if day in holidays:
        return DayKind.HOLIDAY
    if is_weekend(day):
        return DayKind.WEEKEND
    return DayKind.WORKDAY


def behaves_like_weekend(
    day: _dt.date, region: Region = Region.CENTRAL_EUROPE
) -> bool:
    """Whether ``day`` is expected to show a weekend-shaped diurnal curve.

    True for weekends, holidays, and the extended New Year vacation
    (through January 6): schools are closed and many people are off,
    so traffic behaves weekend-like even on calendar workdays — the one
    pre-lockdown stretch the paper's Fig 2 classifier "misclassifies".
    The calendar kind (:func:`day_kind`) still reports those days as
    workdays; the mismatch is intended.
    """
    if day <= NEW_YEAR_HOLIDAY_END:
        return True
    return day_kind(day, region) is not DayKind.WORKDAY


def midpoint_workday(
    start: Optional[_dt.date] = None,
    end: Optional[_dt.date] = None,
    region: Region = Region.CENTRAL_EUROPE,
) -> _dt.date:
    """First workday-behaving day at or after the window's midpoint.

    Used to derive probe days for scenario self-checks: the midpoint of
    an arbitrary study window, nudged forward (wrapping to the window
    start) until it behaves like a workday.
    """
    lo = start or STUDY_START
    hi = end or STUDY_END
    if hi < lo:
        raise ValueError("window end precedes start")
    mid = lo + _dt.timedelta(days=(hi - lo).days // 2)
    for day in list(iter_days(mid, hi)) + list(iter_days(lo, hi)):
        if not behaves_like_weekend(day, region):
            return day
    return mid


# --------------------------------------------------------------------------
# The paper's named analysis weeks.
# --------------------------------------------------------------------------

#: Four-week macroscopic comparison (Fig 3): before, just after, after,
#: and well after the lockdown.
MACRO_WEEKS = {
    "base": Week(_dt.date(2020, 2, 19), "base"),
    "stage1": Week(_dt.date(2020, 3, 18), "stage1"),
    "stage2": Week(_dt.date(2020, 4, 22), "stage2"),
    "stage3": Week(_dt.date(2020, 5, 10), "stage3"),
}

#: Port-level analysis weeks at the ISP-CE (Fig 7a).
PORT_WEEKS_ISP = {
    "february": Week(_dt.date(2020, 2, 20), "february"),
    "march": Week(_dt.date(2020, 3, 19), "march"),
    "april": Week(_dt.date(2020, 4, 9), "april"),
}

#: Port-level analysis weeks at the IXP-CE (Fig 7b).
PORT_WEEKS_IXP = {
    "february": Week(_dt.date(2020, 2, 20), "february"),
    "march": Week(_dt.date(2020, 3, 19), "march"),
    "april": Week(_dt.date(2020, 4, 23), "april"),
}

#: Application-class analysis weeks at the ISP (Fig 9, §5).
APPCLASS_WEEKS_ISP = {
    "base": Week(_dt.date(2020, 2, 20), "base"),
    "stage1": Week(_dt.date(2020, 3, 19), "stage1"),
    "stage2": Week(_dt.date(2020, 4, 9), "stage2"),
}

#: Application-class analysis weeks at the IXPs (Fig 9, §5).
APPCLASS_WEEKS_IXP = {
    "base": Week(_dt.date(2020, 2, 20), "base"),
    "stage1": Week(_dt.date(2020, 3, 12), "stage1"),
    "stage2": Week(_dt.date(2020, 4, 23), "stage2"),
}

#: Educational-network analysis weeks (Fig 11, §7).
EDU_WEEKS = {
    "base": Week(_dt.date(2020, 2, 27), "base"),
    "transition": Week(_dt.date(2020, 3, 12), "transition"),
    "online-lecturing": Week(_dt.date(2020, 4, 16), "online-lecturing"),
}

#: EDU flow capture period: 72 days, Feb 28 to May 8, 2020 (§2).
EDU_CAPTURE_START = _dt.date(2020, 2, 28)
EDU_CAPTURE_END = _dt.date(2020, 5, 8)

#: Week used to normalize Fig 1 (third calendar week of January; week 1
#: is dominated by the Christmas-holiday effect).
FIG1_BASELINE_WEEK = 3

#: Baseline month used by the Fig 2 workday/weekend classifier.
PATTERN_BASELINE_START = _dt.date(2020, 2, 1)
PATTERN_BASELINE_END = _dt.date(2020, 2, 29)


def weeks_in_study() -> List[int]:
    """Sorted ISO week numbers fully or partially inside the study period."""
    seen: List[int] = []
    for day in iter_days():
        year, week, _ = day.isocalendar()
        if year == 2020 and week not in seen:
            seen.append(week)
    return seen


def named_weeks(vantage_kind: str) -> Sequence[Week]:
    """All named analysis weeks relevant to a vantage-point kind."""
    if vantage_kind == "edu":
        return list(EDU_WEEKS.values())
    if vantage_kind == "isp":
        weeks = dict(MACRO_WEEKS)
        weeks.update({f"port-{k}": w for k, w in PORT_WEEKS_ISP.items()})
        return list(weeks.values())
    return list(MACRO_WEEKS.values())
