"""Text sketches of the paper's figures.

Unicode sparklines and value tables stand in for the plots; the actual
reproduced *data* lives in the :mod:`repro.core` result objects, and
``repro run --verbose`` prints both.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], lo: Optional[float] = None,
              hi: Optional[float] = None) -> str:
    """Render values as a unicode sparkline.

    ``lo``/``hi`` pin the scale (default: the data's own range), so
    multiple lines can share an axis.
    """
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        return ""
    lo = float(array.min()) if lo is None else lo
    hi = float(array.max()) if hi is None else hi
    span = hi - lo
    if span <= 0:
        return _BLOCKS[4] * array.size
    levels = np.clip((array - lo) / span * (len(_BLOCKS) - 1), 0,
                     len(_BLOCKS) - 1).astype(int)
    return "".join(_BLOCKS[i] for i in levels)


def render_series_table(
    series: Mapping[str, Sequence[float]],
    value_format: str = "{:.2f}",
    shared_scale: bool = True,
) -> str:
    """Render named series as labeled sparklines with first/last values."""
    if not series:
        return ""
    lo = hi = None
    if shared_scale:
        all_values = np.concatenate(
            [np.asarray(v, dtype=np.float64) for v in series.values()]
        )
        lo, hi = float(all_values.min()), float(all_values.max())
    width = max(len(name) for name in series)
    lines = []
    for name, values in series.items():
        arr = np.asarray(values, dtype=np.float64)
        first = value_format.format(arr[0]) if arr.size else "-"
        last = value_format.format(arr[-1]) if arr.size else "-"
        lines.append(
            f"{name.ljust(width)}  {sparkline(arr, lo, hi)}  "
            f"[{first} → {last}]"
        )
    return "\n".join(lines)


def render_heatmap_row(
    diffs: np.ndarray, clip: float = 200.0, cols: int = 60
) -> str:
    """Render a Fig 9 difference row: '-' decrease, '+' increase.

    The row is downsampled to ``cols`` characters; intensity follows the
    clipped percentage.
    """
    array = np.asarray(diffs, dtype=np.float64)
    if array.size == 0:
        return ""
    # Downsample by averaging equal chunks.
    idx = np.linspace(0, array.size, cols + 1).astype(int)
    cells = [array[a:b].mean() if b > a else 0.0 for a, b in zip(idx, idx[1:])]
    chars = []
    for value in cells:
        magnitude = min(abs(value) / clip, 1.0)
        if value >= 0:
            ramp = " ·+*#"
        else:
            ramp = " ·-~="
        chars.append(ramp[min(int(magnitude * (len(ramp) - 1) + 0.5),
                               len(ramp) - 1)])
    return "".join(chars)
