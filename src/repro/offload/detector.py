"""EWMA-smoothed heavy-hitter detection with promote/demote hysteresis.

The paper's hybrid deployment only pays off if the *right* traffic sits
on each substrate — and flows churn, so the decision must be continuous.
The detector turns per-interval rate observations (x86
``IntervalReport`` per-flow rates, or hardware counter sweeps) into
promote/demote candidates:

* each interval's rates stream through a :class:`~.sketch.CountMinSketch`
  (the stand-in for per-stage counter arrays, swept and cleared each
  interval) while a cumulative :class:`~.sketch.SpaceSaving` tracker
  keeps the candidate set bounded;
* per-key rates are EWMA-smoothed so one bursty interval does not
  trigger a migration;
* **hysteresis** gates the decisions: a key is promoted only after its
  smoothed rate sits at or above ``theta_hi`` for ``promote_after``
  consecutive intervals, and demoted only after it sits below
  ``theta_lo`` for ``demote_after`` consecutive intervals. Because
  ``theta_lo < theta_hi``, a flow oscillating *around* ``theta_hi``
  migrates at most once in each direction — it never flaps between
  substrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Hashable, List, Mapping, Optional

from ..sim.engine import Engine, PeriodicTask
from ..tables.counter import CounterTable
from .sketch import CountMinSketch, SpaceSaving, _key_bytes


class FlowState(Enum):
    """Where the detector believes a key's traffic currently runs."""

    COLD = "cold"  # on x86, below the promote threshold
    HOT = "hot"  # promoted to XGW-H


@dataclass(frozen=True)
class Decision:
    """One promote/demote candidate emitted by the detector."""

    kind: str  # "promote" | "demote"
    key: Hashable
    rate_pps: float  # the EWMA-smoothed rate that triggered it
    interval_index: int


@dataclass
class _KeyTrack:
    """Per-key smoothing and hysteresis state."""

    ewma: float = 0.0
    state: FlowState = FlowState.COLD
    above_hi: int = 0  # consecutive intervals at/above theta_hi
    below_lo: int = 0  # consecutive intervals below theta_lo
    last_seen: int = -1


class HeavyHitterDetector:
    """Turns interval rate observations into hysteresis-gated decisions.

    >>> det = HeavyHitterDetector(theta_hi=100.0, theta_lo=40.0,
    ...                           promote_after=2, ewma_alpha=1.0)
    >>> det.observe({"vip": 500.0})
    []
    >>> [d.kind for d in det.observe({"vip": 500.0})]
    ['promote']
    """

    def __init__(
        self,
        theta_hi: float,
        theta_lo: float,
        promote_after: int = 2,
        demote_after: int = 3,
        ewma_alpha: float = 0.3,
        sketch: Optional[CountMinSketch] = None,
        tracker: Optional[SpaceSaving] = None,
        seed: Hashable = 0,
        max_candidates: int = 32,
    ):
        if not 0.0 <= theta_lo < theta_hi:
            raise ValueError("need 0 <= theta_lo < theta_hi (hysteresis band)")
        if promote_after <= 0 or demote_after <= 0:
            raise ValueError("promote_after and demote_after must be positive")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.theta_hi = theta_hi
        self.theta_lo = theta_lo
        self.promote_after = promote_after
        self.demote_after = demote_after
        self.ewma_alpha = ewma_alpha
        self.sketch = sketch if sketch is not None else CountMinSketch(seed=seed)
        self.tracker = tracker if tracker is not None else SpaceSaving()
        self.max_candidates = max_candidates
        self.interval_index = 0
        self._tracks: Dict[Hashable, _KeyTrack] = {}

    # -- state inspection ---------------------------------------------------

    def state_of(self, key: Hashable) -> FlowState:
        track = self._tracks.get(key)
        return track.state if track is not None else FlowState.COLD

    def smoothed_rate(self, key: Hashable) -> float:
        track = self._tracks.get(key)
        return track.ewma if track is not None else 0.0

    def hot_keys(self) -> List[Hashable]:
        return sorted(
            (k for k, t in self._tracks.items() if t.state is FlowState.HOT),
            key=_key_bytes,
        )

    # -- the measurement interval ------------------------------------------

    def observe(self, rates: Mapping[Hashable, float]) -> List[Decision]:
        """Ingest one interval of (key -> pps) and emit decisions.

        The rates stream through the count-min sketch exactly as a
        counter sweep would; candidate keys are then *queried back from
        the sketch*, so the decision path exercises the estimate (with
        its documented error bounds), not the raw input.
        """
        index = self.interval_index
        self.interval_index += 1
        self.sketch.reset()
        for key, pps in rates.items():
            if pps < 0:
                raise ValueError(f"negative rate for {key!r}")
            self.sketch.update(key, pps)
            self.tracker.update(key, pps)
        # Candidates: the cumulative top-k plus everything already being
        # tracked (a promoted key must keep decaying even after it drops
        # out of the top-k).
        candidates = [key for key, _est, _err in
                      self.tracker.top(self.max_candidates)]
        seen = set(candidates)
        for key in self._tracks:
            if key not in seen:
                candidates.append(key)
        decisions: List[Decision] = []
        for key in candidates:
            rate = self.sketch.estimate(key) if key in rates else 0.0
            decision = self._advance(key, rate, index)
            if decision is not None:
                decisions.append(decision)
        # Drop fully-cold idle tracks so state stays bounded.
        for key in [k for k, t in self._tracks.items()
                    if t.state is FlowState.COLD and t.ewma < 1e-9
                    and t.above_hi == 0]:
            del self._tracks[key]
        decisions.sort(key=lambda d: (-d.rate_pps, _key_bytes(d.key)))
        return decisions

    def _advance(self, key: Hashable, rate: float, index: int) -> Optional[Decision]:
        track = self._tracks.get(key)
        if track is None:
            track = self._tracks[key] = _KeyTrack()
            track.ewma = rate  # first sample seeds the average
        else:
            track.ewma = (self.ewma_alpha * rate
                          + (1.0 - self.ewma_alpha) * track.ewma)
        track.last_seen = index
        if track.state is FlowState.COLD:
            track.above_hi = track.above_hi + 1 if track.ewma >= self.theta_hi else 0
            if track.above_hi >= self.promote_after:
                track.state = FlowState.HOT
                track.above_hi = 0
                track.below_lo = 0
                return Decision("promote", key, track.ewma, index)
        else:
            track.below_lo = track.below_lo + 1 if track.ewma < self.theta_lo else 0
            if track.below_lo >= self.demote_after:
                track.state = FlowState.COLD
                track.above_hi = 0
                track.below_lo = 0
                return Decision("demote", key, track.ewma, index)
        return None

    def mark_demoted(self, key: Hashable) -> None:
        """External demotion (planner eviction or denied admission):
        reset the key COLD so its hysteresis restarts from scratch."""
        track = self._tracks.get(key)
        if track is not None:
            track.state = FlowState.COLD
            track.above_hi = 0
            track.below_lo = 0

    # -- engine integration -------------------------------------------------

    def attach(
        self,
        engine: Engine,
        interval: float,
        source: Callable[[], Mapping[Hashable, float]],
        sink: Callable[[List[Decision]], None],
        until: Optional[float] = None,
    ) -> PeriodicTask:
        """Drive the detector from :meth:`Engine.schedule_every`.

        *source* yields the interval's (key -> pps) observations;
        *sink* receives the non-empty decision lists.
        """

        def tick() -> None:
            decisions = self.observe(source())
            if decisions:
                sink(decisions)

        return engine.schedule_every(interval, tick, until=until)


def sweep_counter_rates(counters: CounterTable, interval: float) -> Dict[Hashable, float]:
    """Convert a hardware :class:`CounterTable` into per-key pps and clear
    it — the control-plane sweep that feeds the XGW-H side of the
    detector, mirroring how Tofino counter arrays are read and reset."""
    if interval <= 0:
        raise ValueError("interval must be positive")
    rates = {key: cell.packets / interval for key, cell in counters.items()}
    for key in list(rates):
        counters.reset(key)
    return rates
