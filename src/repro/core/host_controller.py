"""The host-controlled on-demand controller (§9.1).

"The second controller design makes offloading decisions at the host, using
information such as the CPU usage and power consumption. … If the
application exceeds a (programmable) power threshold set for offloading,
and CPU usage is high, the controller shifts the workload to the network.
Monitoring the power consumption alone is not sufficient, as a high power
consumption can be triggered by multiple applications running on the same
host.  … In order to shift back to the host from the network, the
controller needs information from the network (e.g., packet rate processed
using in-network computing)."

Inputs, all windowed (§9.1: "the information is inspected over time,
avoiding harsh decisions based on spikes and outliers"):

* RAPL package power, obtained by differencing energy counters
  (:class:`repro.host.rapl.RaplPowerEstimator`) — the paper's controller
  spends its 0.3% CPU "mainly … performing RAPL reads";
* host CPU utilization (the co-located-job signal of Figure 6);
* hardware-processed packet rate from the device classifier (shift-back
  feedback).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .. import calibration as cal
from ..errors import ConfigurationError
from ..host.rapl import RaplDomain, RaplPowerEstimator
from ..net.classifier import PacketClassifier
from ..net.packet import TrafficClass
from ..sim import Simulator, TimeSeries
from ..units import msec, sec
from .controller import ServiceShiftController
from .ondemand import OnDemandService
from .window import SlidingWindowMean, SlidingWindowRate


@dataclass(frozen=True)
class HostControllerConfig:
    power_up_w: float = cal.HOSTCTL_POWER_UP_W
    power_down_w: float = cal.HOSTCTL_POWER_DOWN_W
    cpu_up: float = cal.HOSTCTL_CPU_UP_FRACTION
    cpu_down: float = cal.HOSTCTL_CPU_DOWN_FRACTION
    #: network-feedback rate below which shifting back is allowed
    rate_down_pps: float = cal.NETCTL_KVS_DOWN_PPS
    window_us: float = sec(cal.CONTROLLER_SUSTAIN_S)
    tick_us: float = msec(200.0)

    def __post_init__(self):
        if self.power_up_w <= self.power_down_w:
            raise ConfigurationError("power_up_w must exceed power_down_w")
        if self.cpu_up <= self.cpu_down:
            raise ConfigurationError("cpu_up must exceed cpu_down")
        if min(self.window_us, self.tick_us) <= 0:
            raise ConfigurationError("window and tick must be positive")


class HostController(ServiceShiftController):
    """CPU+RAPL controller driving an :class:`OnDemandService`."""

    kind = "host"

    def __init__(
        self,
        sim: Simulator,
        server,
        service: OnDemandService,
        config: Optional[HostControllerConfig] = None,
        classifier: Optional[PacketClassifier] = None,
        traffic_class: Optional[TrafficClass] = None,
    ):
        super().__init__(service)
        self.sim = sim
        self.server = server
        self.config = config or HostControllerConfig()
        self.classifier = classifier
        self.traffic_class = traffic_class

        self._rapl = RaplPowerEstimator(server.rapl, RaplDomain.PACKAGE_0, sim)
        self._power_window = SlidingWindowMean(self.config.window_us)
        self._cpu_window = SlidingWindowMean(self.config.window_us)
        self._hw_rate_window = SlidingWindowRate(self.config.window_us)
        self._last_hw_count = self._read_hw_counter()

        self.power_series = TimeSeries("hostctl.rapl-power")
        self.cpu_series = TimeSeries("hostctl.cpu")
        self._timer = sim.call_every(self.config.tick_us, self._tick)
        # §9.1: the controller itself costs ~0.3% of a core (RAPL reads).
        server.cpu.set_load(
            "hostctl", cores=1.0, utilization=cal.HOSTCTL_CPU_OVERHEAD_FRACTION
        )

    # -- signal collection --------------------------------------------------

    def _read_hw_counter(self) -> int:
        if self.classifier is None or self.traffic_class is None:
            return 0
        return self.classifier.counters[self.traffic_class]

    def _tick(self) -> None:
        now = self.sim.now
        power = self._rapl.read_power_w()
        if power is not None:
            self._power_window.observe(now, power)
            self.power_series.record(now, power)
        cpu = self.server.cpu.utilization
        self._cpu_window.observe(now, cpu)
        self.cpu_series.record(now, cpu)
        hw_count = self._read_hw_counter()
        if self.service.in_hardware:
            self._hw_rate_window.observe(now, hw_count - self._last_hw_count)
        self._last_hw_count = hw_count
        self._decide(now)

    # -- decisions -------------------------------------------------------------

    def _decide(self, now: float) -> None:
        cfg = self.config
        if not self.service.in_hardware:
            if not (self._power_window.full(now) and self._cpu_window.full(now)):
                return
            power = self._power_window.mean(now)
            cpu = self._cpu_window.mean(now)
            if power >= cfg.power_up_w and cpu >= cfg.cpu_up:
                self.service.shift_to_hardware(
                    reason=f"RAPL {power:.1f}W >= {cfg.power_up_w}W, "
                    f"CPU {cpu:.0%} >= {cfg.cpu_up:.0%}"
                )
                self._hw_rate_window.reset()
                self._cpu_window.reset()
                self._power_window.reset()
        else:
            if not self._power_window.full(now):
                return
            power = self._power_window.mean(now)
            hw_rate = self._hw_rate_window.rate_pps(now)
            # Shift back only when the host calmed down AND the network
            # reports a rate software can serve efficiently (§9.1:
            # "Otherwise, the shift may be inefficient, or cause a workload
            # to bounce back and forth").
            if power <= cfg.power_down_w and hw_rate <= cfg.rate_down_pps:
                self.service.shift_to_software(
                    reason=f"RAPL {power:.1f}W <= {cfg.power_down_w}W, "
                    f"hw rate {hw_rate:.0f}pps <= {cfg.rate_down_pps:.0f}pps"
                )
                self._cpu_window.reset()
                self._power_window.reset()

    def stop(self) -> None:
        self._timer.cancel()
        self.server.cpu.clear_load("hostctl")
