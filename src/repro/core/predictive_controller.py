"""Model-predictive (PEAS-inspired) on-demand controller — §9.1 future work.

The paper's controllers are deliberately naive threshold machines and §9.1
points forward: "The algorithms used in this paper are naive … They can be
enhanced by more sophisticated algorithms … such as those based on PEAS
[peak-efficiency-aware scheduling]".

:class:`PredictiveController` implements that enhancement: instead of raw
rate/power thresholds it carries the calibrated steady-state models of both
placements and shifts when the *predicted power saving* at the measured
rate exceeds a margin — amortizing the shift cost (warm-up misses served by
software) over an expected residence time.  The margin plus the amortized
shift cost provide hysteresis without hand-tuned threshold pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..net.classifier import PacketClassifier
from ..net.packet import TrafficClass
from ..sim import Simulator, TimeSeries
from ..steady.base import SteadyModel
from ..units import msec, sec
from .controller import ServiceShiftController
from .ondemand import OnDemandService
from .window import SlidingWindowRate


@dataclass(frozen=True)
class PredictiveControllerConfig:
    #: minimum predicted saving (W) before any shift is taken
    margin_w: float = 2.0
    #: expected residence time used to amortize shift costs
    expected_residence_s: float = 60.0
    #: energy cost of one shift to hardware (J): warm-up misses served by
    #: software at elevated power
    shift_to_hw_cost_j: float = 20.0
    #: energy cost of one shift back (J): usually near zero
    shift_to_sw_cost_j: float = 2.0
    window_us: float = sec(3.0)
    tick_us: float = msec(200.0)

    def __post_init__(self):
        if self.margin_w < 0:
            raise ConfigurationError("margin_w must be >= 0")
        if self.expected_residence_s <= 0:
            raise ConfigurationError("expected_residence_s must be positive")


class PredictiveController(ServiceShiftController):
    """Chooses the placement with the lower predicted power at the current
    windowed rate, with margin + amortized shift cost as hysteresis.

    ``software_model`` should be the software power curve; ``hardware_model``
    the hardware curve; ``standby_card_w`` the §9.2 standby cost paid while
    running in software (0 if the card would be removed entirely).
    """

    kind = "predictive"

    def __init__(
        self,
        sim: Simulator,
        classifier: PacketClassifier,
        traffic_class: TrafficClass,
        service: OnDemandService,
        software_model: SteadyModel,
        hardware_model: SteadyModel,
        standby_card_w: float = 0.0,
        config: PredictiveControllerConfig = None,
    ):
        super().__init__(service)
        self.sim = sim
        self.classifier = classifier
        self.traffic_class = traffic_class
        self.software_model = software_model
        self.hardware_model = hardware_model
        self.standby_card_w = standby_card_w
        self.config = config or PredictiveControllerConfig()
        self._window = SlidingWindowRate(self.config.window_us)
        self._last_count = classifier.counters[traffic_class]
        self._started_at = sim.now
        self.prediction_series = TimeSeries("predictive.saving")
        self._timer = sim.call_every(self.config.tick_us, self._tick)

    # -- the model-predictive decision --------------------------------------

    def predicted_saving_w(self, rate_pps: float) -> float:
        """Predicted power saving of hardware placement at ``rate_pps``.

        Positive = hardware placement is cheaper.
        """
        software_w = self.software_model.power_at(
            min(rate_pps, self.software_model.capacity_pps)
        ) + self.standby_card_w
        hardware_w = self.hardware_model.power_at(
            min(rate_pps, self.hardware_model.capacity_pps)
        )
        return software_w - hardware_w

    def _amortized_shift_cost_w(self, to_hardware: bool) -> float:
        cost_j = (
            self.config.shift_to_hw_cost_j
            if to_hardware
            else self.config.shift_to_sw_cost_j
        )
        return cost_j / self.config.expected_residence_s

    def decide(self, rate_pps: float) -> bool:
        """True if the workload should run in hardware at this rate."""
        saving = self.predicted_saving_w(rate_pps)
        if self.service.in_hardware:
            # shift back only if software wins by margin + amortized cost
            threshold = -(self.config.margin_w + self._amortized_shift_cost_w(False))
            return saving > threshold
        return saving >= self.config.margin_w + self._amortized_shift_cost_w(True)

    # -- plumbing -----------------------------------------------------------

    def _tick(self) -> None:
        now = self.sim.now
        count = self.classifier.counters[self.traffic_class]
        self._window.observe(now, count - self._last_count)
        self._last_count = count
        if now - self._started_at < self.config.window_us:
            return
        rate = self._window.rate_pps(now)
        saving = self.predicted_saving_w(rate)
        self.prediction_series.record(now, saving)
        want_hardware = self.decide(rate)
        if want_hardware and not self.service.in_hardware:
            self.service.shift_to_hardware(
                reason=f"predicted saving {saving:.1f}W at {rate:.0f}pps"
            )
        elif not want_hardware and self.service.in_hardware:
            self.service.shift_to_software(
                reason=f"predicted saving {saving:.1f}W at {rate:.0f}pps"
            )

    def stop(self) -> None:
        self._timer.cancel()
