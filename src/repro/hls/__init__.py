"""Vitis-style HLS substrate: strict IR frontend, scheduling (incl.
iterative modulo scheduling for pipelined loops), binding, memory
modelling, and csynth-style latency/resource reports.

The synthesis backends in :mod:`repro.backends` drive these pieces over
mini-LLVM IR plus HLS directive metadata — from the adaptor flow or the
HLS-C++ flow — to produce the quantities the paper reports from Xilinx
Vitis: latency in cycles and LUT/FF/DSP/BRAM usage.  Build an engine
with ``repro.backends.create_backend("static")``.
"""

from .device import Device, DEVICES
from .frontend import FrontendError, HLSFrontend, FrontendDiagnostics
from .operators import OperatorLibrary, OpSpec, DEFAULT_LIBRARY
from .report import LoopReport, SynthReport

__all__ = [
    "Device",
    "DEVICES",
    "FrontendError",
    "HLSFrontend",
    "FrontendDiagnostics",
    "OperatorLibrary",
    "OpSpec",
    "DEFAULT_LIBRARY",
    "LoopReport",
    "SynthReport",
]
