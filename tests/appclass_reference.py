"""Plain-numpy reference for application-class membership and volumes.

Each filter is evaluated on its own with ``np.isin`` over the raw
columns: the AS criterion on ``src_asn`` or ``dst_asn``, the port
criterion on the service port (re-derived here from the raw port and
protocol columns), the protocol criterion on ``proto``.  Nothing is
shared with :mod:`repro.core.appclass` or the table's derived keys, so
a fault in either shows as a disagreement.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence

import numpy as np

#: Protocols without ports (GRE, ESP, ICMP): their service port is 0.
_PORTLESS = (47, 50, 1)

#: Ports at or above this are ephemeral (client) ports.
_EPHEMERAL = 49152


def service_ports(flows) -> np.ndarray:
    """Per-row service port: the non-ephemeral side, else the
    destination; zero for port-less protocols."""
    src = flows.column("src_port").astype(np.int64)
    dst = flows.column("dst_port").astype(np.int64)
    service = np.where((src < _EPHEMERAL) & (dst >= _EPHEMERAL), src, dst)
    service[np.isin(flows.column("proto"), _PORTLESS)] = 0
    return service


def filter_mask(filt, flows) -> np.ndarray:
    """Rows of ``flows`` that one filter matches."""
    mask = np.ones(len(flows), dtype=bool)
    if filt.asns:
        wanted = np.array(sorted(filt.asns), dtype=np.int64)
        mask &= np.isin(flows.column("src_asn"), wanted) | np.isin(
            flows.column("dst_asn"), wanted
        )
    if filt.ports:
        mask &= np.isin(service_ports(flows), sorted(filt.ports))
    if filt.protos:
        mask &= np.isin(flows.column("proto"), sorted(filt.protos))
    return mask


def class_mask(app_class, flows) -> np.ndarray:
    """Rows of ``flows`` that any of the class's filters matches."""
    mask = np.zeros(len(flows), dtype=bool)
    for filt in app_class.filters:
        mask |= filter_mask(filt, flows)
    return mask


def class_volumes(
    tables: Sequence, weeks: Iterable, classes: Mapping
) -> Dict[str, np.ndarray]:
    """Each class's int64 hourly bytes over the weeks' span, summed
    row by row with ``np.add.at`` across all tables."""
    ranges = [week.hour_range() for week in weeks]
    start = min(lo for lo, _ in ranges)
    stop = max(hi for _, hi in ranges)
    volumes = {}
    for name, app_class in classes.items():
        out = np.zeros(stop - start, dtype=np.int64)
        for flows in tables:
            hours = flows.column("hour")
            keep = class_mask(app_class, flows) & (hours >= start) & (
                hours < stop
            )
            np.add.at(out, hours[keep] - start, flows.column("n_bytes")[keep])
        volumes[name] = out
    return volumes
