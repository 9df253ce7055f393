"""Simulated cloud substrate: S3-like object store, pricing and scan cost.

The paper's end-to-end evaluation (Section 6.7, Figure 1, Table 5) runs on a
c5n.18xlarge instance scanning S3. Neither is available offline, so this
package simulates them: the object store accounts GET requests and bytes,
and the cost model combines the paper's published price constants with
decompression throughput measured on this machine, scaled by a documented
calibration factor (see :mod:`repro.cloud.pricing`).

Real object stores also fail: :mod:`repro.cloud.faults` injects seeded
transient errors, timeouts, throttling, truncated ranges and bit flips, and
:mod:`repro.cloud.retry` wraps every GET in exponential backoff + jitter on
a simulated clock, with retry time flowing into the cost model
(``docs/RELIABILITY.md``).

The write side is transactional: the store speaks S3's multipart upload
protocol (parts invisible until complete, idempotent completes), and
:class:`~repro.cloud.remote_table.TableWriter` commits table versions
atomically through a versioned manifest, with :func:`~repro.cloud.
remote_table.recover` sweeping whatever a crashed writer left staged.
"""

from repro.cloud.costmodel import ScanCostModel, ScanMetrics, WriteCostModel, WriteMetrics
from repro.cloud.faults import FaultProfile
from repro.cloud.objectstore import SimulatedObjectStore, TransferStats, UploadInfo
from repro.cloud.pricing import PricingModel
from repro.cloud.remote_table import RecoveryReport, RemoteTable, TableWriter, recover
from repro.cloud.retry import RetryPolicy, SimulatedClock

__all__ = [
    "FaultProfile",
    "PricingModel",
    "RecoveryReport",
    "RemoteTable",
    "RetryPolicy",
    "ScanCostModel",
    "ScanMetrics",
    "SimulatedClock",
    "SimulatedObjectStore",
    "TableWriter",
    "TransferStats",
    "UploadInfo",
    "WriteCostModel",
    "WriteMetrics",
    "recover",
]
