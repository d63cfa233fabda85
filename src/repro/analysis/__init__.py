"""Static analyses: LJB phase-2 closure, 0-CFA, and the classic static SCT
baseline of §2.1/§2.2."""

from repro.analysis.ljb import SCPResult, scp_check
from repro.analysis.callgraph import CallGraph, analyze_callgraph, loop_entry_labels
from repro.analysis.discharge import (
    DischargeCertificate,
    DischargeResult,
    ResidualPolicy,
    VerificationCache,
    certificate_from_engine,
    certify,
    default_cache,
    discharge_for_run,
)
from repro.analysis.static_sct import StaticSCTResult, static_sct_check

__all__ = [
    "SCPResult",
    "scp_check",
    "CallGraph",
    "analyze_callgraph",
    "loop_entry_labels",
    "StaticSCTResult",
    "static_sct_check",
    "DischargeCertificate",
    "DischargeResult",
    "ResidualPolicy",
    "VerificationCache",
    "certificate_from_engine",
    "certify",
    "default_cache",
    "discharge_for_run",
]
