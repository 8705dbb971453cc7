"""Flow-record substrate: NetFlow/IPFIX-style flow summaries.

The vantage points in the paper export flow summaries (NetFlow at the
ISP, the mobile operator, the IPX and the EDU network; IPFIX at the
IXPs).  Both formats reduce to the same per-flow header summary — no
payload — which this subpackage models:

* :mod:`repro.flows.record` — the scalar :class:`FlowRecord` and
  protocol constants,
* :mod:`repro.flows.table` — the columnar :class:`FlowTable` used by
  every analysis,
* :mod:`repro.flows.io` — CSV and NPZ persistence,
* :mod:`repro.flows.store` — date-partitioned on-disk flow archives,
* :mod:`repro.flows.anonymize` — keyed IP-address hashing mirroring the
  paper's ethics requirements (§2.1),
* :mod:`repro.flows.netflow5` / :mod:`repro.flows.ipfix` — the binary
  export formats the vantage points actually speak,
* :mod:`repro.flows.hll` — HyperLogLog sketches for distinct counting.
"""

from repro.flows.record import (
    PROTO_ESP,
    PROTO_GRE,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    FlowRecord,
    proto_name,
)
from repro.flows.table import FlowTable
from repro.flows.io import read_csv, read_npz, write_csv, write_npz
from repro.flows.anonymize import anonymize_table, hash_ip

__all__ = [
    "FlowRecord",
    "FlowTable",
    "PROTO_TCP",
    "PROTO_UDP",
    "PROTO_GRE",
    "PROTO_ESP",
    "PROTO_ICMP",
    "proto_name",
    "read_csv",
    "write_csv",
    "read_npz",
    "write_npz",
    "anonymize_table",
    "hash_ip",
]
