"""The network-controlled on-demand controller (§9.1).

"The first controller design makes offloading decisions in the network
hardware, based on the traffic load. … The controller uses a pair of
parameters to shift a workload from the host to the network.  The first
parameter is the average message rate that would trigger the transition,
and the second is the averaging period (implemented as a sliding window).
… A mirror pair of parameters is used to shift workloads from the network
back to the host."

The controller lives conceptually inside the device's classifier module
(40 lines of FPGA code, ~0.1% resources); here it reads the classifier's
per-class packet counters on a periodic tick, maintains the two sliding
windows, and drives an :class:`OnDemandService`.

Its §9.1 disadvantage is reproduced faithfully: it sees only the packet
rate, never the host's power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import calibration as cal
from ..errors import ConfigurationError
from ..net.classifier import PacketClassifier
from ..net.packet import TrafficClass
from ..sim import Simulator, TimeSeries
from ..units import msec, sec
from .controller import ServiceShiftController
from .ondemand import OnDemandService
from .window import SlidingWindowRate


@dataclass(frozen=True)
class NetworkControllerConfig:
    """All parameters are configurable (§9.1: "The control is not entirely
    automatic: all of its parameters are configurable")."""

    up_rate_pps: float
    down_rate_pps: float
    up_window_us: float = sec(cal.CONTROLLER_SUSTAIN_S)
    down_window_us: float = sec(cal.CONTROLLER_SUSTAIN_S)
    tick_us: float = msec(100.0)

    def __post_init__(self):
        if self.up_rate_pps <= self.down_rate_pps:
            raise ConfigurationError(
                "hysteresis requires up_rate > down_rate "
                f"(got {self.up_rate_pps} <= {self.down_rate_pps})"
            )
        if min(self.up_window_us, self.down_window_us, self.tick_us) <= 0:
            raise ConfigurationError("windows and tick must be positive")


#: Per-application default configurations at the §4 crossovers.
DEFAULT_CONFIGS = {
    "kvs": NetworkControllerConfig(cal.NETCTL_KVS_UP_PPS, cal.NETCTL_KVS_DOWN_PPS),
    "paxos": NetworkControllerConfig(cal.NETCTL_PAXOS_UP_PPS, cal.NETCTL_PAXOS_DOWN_PPS),
    "dns": NetworkControllerConfig(cal.NETCTL_DNS_UP_PPS, cal.NETCTL_DNS_DOWN_PPS),
}


class NetworkController(ServiceShiftController):
    """Rate-threshold controller reading classifier counters."""

    kind = "network"

    def __init__(
        self,
        sim: Simulator,
        classifier: PacketClassifier,
        traffic_class: TrafficClass,
        service: OnDemandService,
        config: NetworkControllerConfig,
    ):
        super().__init__(service)
        self.sim = sim
        self.classifier = classifier
        self.traffic_class = traffic_class
        self.config = config
        self._up_window = SlidingWindowRate(config.up_window_us)
        self._down_window = SlidingWindowRate(config.down_window_us)
        self._last_count = classifier.counters[traffic_class]
        self._started_at = sim.now
        self.rate_series = TimeSeries("netctl.rate")
        self._timer = sim.call_every(config.tick_us, self._tick)

    def _tick(self) -> None:
        now = self.sim.now
        count = self.classifier.counters[self.traffic_class]
        delta = count - self._last_count
        self._last_count = count
        self._up_window.observe(now, delta)
        self._down_window.observe(now, delta)
        up_rate = self._up_window.rate_pps(now)
        down_rate = self._down_window.rate_pps(now)
        self.rate_series.record(now, up_rate)

        if not self.service.in_hardware:
            # require a full window of history: the §9.1 "sustained" rule
            if (
                now - self._started_at >= self.config.up_window_us
                and up_rate >= self.config.up_rate_pps
            ):
                self.service.shift_to_hardware(
                    reason=f"rate {up_rate:.0f}pps >= {self.config.up_rate_pps:.0f}pps"
                )
                self._down_window.reset()
                self._started_at = now
        else:
            if (
                now - self._started_at >= self.config.down_window_us
                and down_rate <= self.config.down_rate_pps
            ):
                self.service.shift_to_software(
                    reason=f"rate {down_rate:.0f}pps <= {self.config.down_rate_pps:.0f}pps"
                )
                self._up_window.reset()
                self._started_at = now

    def stop(self) -> None:
        self._timer.cancel()
