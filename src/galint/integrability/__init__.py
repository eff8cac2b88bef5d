"""Formal flows, obstructions, first integrals, commuting frames,
linearization, certificates and Galois descent."""

from .certificates import (
    CertificateCheck,
    CertificateReport,
    IntegrabilityCertificate,
    build_certificate,
    verify_certificate,
)
from .descent import (
    NeedsCovering,
    galois_descent,
    group_closure,
)
from .fields import (
    CertifiedField,
    CommutingFrame,
    as_cols,
    commuting_fields,
    stabilize_frame,
)
from .flows import (
    INCONCLUSIVE_BOUNDS,
    LOG_IN_NORMAL_PART,
    FormalFlow,
    Linearization,
    LogSymbol,
    Obstruction,
    formal_flow,
    invert_flow,
    linearize,
    original_field,
)
from .integrals import FirstIntegral, first_integrals

__all__ = [
    "INCONCLUSIVE_BOUNDS",
    "LOG_IN_NORMAL_PART",
    "CertificateCheck",
    "CertificateReport",
    "CertifiedField",
    "CommutingFrame",
    "FirstIntegral",
    "FormalFlow",
    "IntegrabilityCertificate",
    "Linearization",
    "LogSymbol",
    "NeedsCovering",
    "Obstruction",
    "as_cols",
    "build_certificate",
    "commuting_fields",
    "first_integrals",
    "formal_flow",
    "galois_descent",
    "group_closure",
    "invert_flow",
    "linearize",
    "original_field",
    "stabilize_frame",
    "verify_certificate",
]
