"""Analytic steady-state power/latency curves.

Each (application, platform) pair from §4 is a :class:`SteadyModel`
exposing ``power_at(rate)``, ``latency_at(rate)`` and ``capacity_pps`` —
the curves plotted in Figures 3 and 5.  The models are built from the same
calibration constants and component models as the DES substrate (the FPGA
cards are literally :class:`repro.hw.NetFpgaSume` instances), and the
integration tests check the two layers agree at overlapping rates.
"""

from .base import SteadyModel, SoftwareCurveModel, HardwareCardModel, find_crossover
from .fabric import NOMINAL_KVS_PACKET_BYTES, FabricUplinkModel
from .kvs import kvs_models
from .paxos import paxos_models
from .dns import dns_models
from .ondemand import (
    OnDemandModel,
    device_crossover_pps,
    device_hardware_model,
    device_software_model,
    make_ondemand_model,
)

__all__ = [
    "SteadyModel",
    "SoftwareCurveModel",
    "HardwareCardModel",
    "find_crossover",
    "NOMINAL_KVS_PACKET_BYTES",
    "FabricUplinkModel",
    "kvs_models",
    "paxos_models",
    "dns_models",
    "OnDemandModel",
    "device_crossover_pps",
    "device_hardware_model",
    "device_software_model",
    "make_ondemand_model",
]
