"""Declarative sweep grids: axes, explicit points, validation.

A grid names *what to simulate*: a set of workloads, a set of bar
labels, and configuration axes.  Axes expand cartesian-product style
(``axes``) or enumerate explicit override points (``points``); every
axis name is validated against :class:`~repro.tlssim.config.SimConfig`
fields (machine parameters like ``num_cores`` and scheme knobs like
``predictor`` alike) and every value is validated by constructing the
overridden config, so a bad grid fails before any simulation runs.

The JSON schema (see ``docs/sweeping.md``)::

    {
      "workloads": ["go", "mcf"],
      "bars": ["U", "C"],
      "threshold": 0.05,
      "axes": {"num_cores": [2, 4, 8], "predictor": ["last", "stride"]}
    }

``points`` replaces ``axes`` with an explicit list of override
objects; the two are mutually exclusive.  ``workload`` and ``bar``
are *special axes* — ``parse_axis`` accepts them on the command line
(``--axis bar=U,C``) and the CLI folds them into the workload/bar
lists rather than into config overrides.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.tlssim.config import SimConfig, override_error

#: Axes resolved structurally rather than through SimConfig overrides.
SPECIAL_AXES = ("workload", "bar")


class GridError(ValueError):
    """A sweep grid failed validation."""


_CONFIG_DEFAULTS = SimConfig()


def _coerce(text: str):
    """CLI axis value -> int / float / bool / str (best fit)."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_axis(spec: str) -> Tuple[str, Tuple[object, ...]]:
    """``"num_cores=2,4,8"`` -> ``("num_cores", (2, 4, 8))``.

    Values are coerced to int/float/bool where they parse as one;
    ``workload`` and ``bar`` axes keep their values as strings.
    """
    name, sep, raw = spec.partition("=")
    name = name.strip()
    if not sep or not name:
        raise GridError(
            f"bad axis {spec!r}: expected NAME=VALUE[,VALUE...]"
        )
    values: List[object] = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        values.append(chunk if name in SPECIAL_AXES else _coerce(chunk))
    if not values:
        raise GridError(f"axis {name!r} has no values")
    return name, tuple(values)


def _validate_override(name: str, value: object) -> None:
    """Raise GridError unless (name, value) is a legal config override."""
    if name in SPECIAL_AXES:
        raise GridError(
            f"{name!r} is a special axis — pass it via the workload/bar "
            "lists, not as a config override"
        )
    error = override_error(name, value)
    if error:
        raise GridError(error)


@dataclass(frozen=True)
class SweepPoint:
    """One cell of an expanded grid: a (workload, bar, config) triple."""

    workload: str
    bar: str
    threshold: float
    #: sorted (field, value) config overrides relative to the default
    overrides: Tuple[Tuple[str, object], ...] = ()

    @property
    def point_id(self) -> str:
        """Stable content id — the resume key in the sweep state file."""
        blob = json.dumps(
            [self.workload, self.bar, self.threshold, list(self.overrides)],
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def axis_value(self, axis: str):
        """This point's coordinate on ``axis`` (special or config)."""
        if axis == "workload":
            return self.workload
        if axis == "bar":
            return self.bar
        for name, value in self.overrides:
            if name == axis:
                return value
        return getattr(_CONFIG_DEFAULTS, axis)

    def label(self) -> str:
        parts = [f"{self.workload}/{self.bar}"]
        parts.extend(f"{name}={value}" for name, value in self.overrides)
        return " ".join(parts)


@dataclass(frozen=True)
class SweepGrid:
    """A validated sweep specification."""

    workloads: Tuple[str, ...]
    bars: Tuple[str, ...]
    threshold: float = 0.05
    #: cartesian axes, in declaration order
    axes: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()
    #: explicit override points (mutually exclusive with axes)
    points: Tuple[Tuple[Tuple[str, object], ...], ...] = ()
    grid_file: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        from repro.experiments.bars import unknown_bar_error
        from repro.workloads.base import unknown_workload_error

        if not self.workloads:
            raise GridError("grid needs at least one workload")
        if not self.bars:
            raise GridError("grid needs at least one bar")
        for name in self.workloads:
            error = unknown_workload_error(name)
            if error:
                raise GridError(error)
        for bar in self.bars:
            error = unknown_bar_error(bar)
            if error:
                raise GridError(error)
        if self.axes and self.points:
            raise GridError(
                "'axes' (cartesian) and 'points' (explicit) are mutually "
                "exclusive — pick one"
            )
        if not 0.0 < self.threshold <= 1.0:
            raise GridError("threshold must be in (0, 1]")
        seen = set()
        for name, values in self.axes:
            if name in seen:
                raise GridError(f"duplicate axis {name!r}")
            seen.add(name)
            if not values:
                raise GridError(f"axis {name!r} has no values")
            for value in values:
                _validate_override(name, value)
        for overrides in self.points:
            for name, value in overrides:
                _validate_override(name, value)

    # -- expansion -------------------------------------------------------

    def combos(self) -> List[Tuple[Tuple[str, object], ...]]:
        """The config-override sets, in deterministic grid order."""
        if self.points:
            return [tuple(sorted(point)) for point in self.points]
        if not self.axes:
            return [()]
        names = [name for name, _values in self.axes]
        value_lists = [values for _name, values in self.axes]
        return [
            tuple(sorted(zip(names, combo)))
            for combo in itertools.product(*value_lists)
        ]

    def expand(self) -> List[SweepPoint]:
        """Every point of the grid: workload-major, then combo, then bar.

        Workload-major ordering keeps one compiled bundle hot per
        chunk when the runner executes the points.
        """
        return [
            SweepPoint(
                workload=workload, bar=bar,
                threshold=self.threshold, overrides=combo,
            )
            for workload in self.workloads
            for combo in self.combos()
            for bar in self.bars
        ]

    def axis_names(self) -> List[str]:
        """Axes that actually vary, special axes included."""
        names: List[str] = []
        if len(self.workloads) > 1:
            names.append("workload")
        if len(self.bars) > 1:
            names.append("bar")
        if self.points:
            swept: Dict[str, set] = {}
            for overrides in self.points:
                for name, value in overrides:
                    swept.setdefault(name, set()).add(value)
            names.extend(sorted(n for n, v in swept.items() if len(v) > 1))
        else:
            names.extend(
                name for name, values in self.axes if len(set(values)) > 1
            )
        return names

    # -- identity / serialization ---------------------------------------

    def to_state(self) -> Dict:
        state: Dict = {
            "workloads": list(self.workloads),
            "bars": list(self.bars),
            "threshold": self.threshold,
        }
        if self.axes:
            state["axes"] = {
                name: list(values) for name, values in self.axes
            }
        if self.points:
            state["points"] = [dict(point) for point in self.points]
        return state

    def grid_key(self) -> str:
        """Content hash used to match a state file to its grid."""
        blob = json.dumps(
            self.to_state(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_grid(
    workloads: Sequence[str],
    bars: Sequence[str],
    threshold: float = 0.05,
    axes: Sequence[Tuple[str, Tuple[object, ...]]] = (),
    points: Sequence[Dict] = (),
    grid_file: Optional[str] = None,
) -> SweepGrid:
    """Validated grid from already-parsed parts."""
    return SweepGrid(
        workloads=tuple(workloads),
        bars=tuple(bars),
        threshold=float(threshold),
        axes=tuple((name, tuple(values)) for name, values in axes),
        points=tuple(tuple(sorted(point.items())) for point in points),
        grid_file=grid_file,
    )


def load_grid(path: str) -> SweepGrid:
    """Parse and validate a grid JSON file."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise GridError(f"cannot read grid file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GridError(f"grid file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise GridError("grid file must hold a JSON object")
    unknown = set(payload) - {"workloads", "bars", "threshold", "axes", "points"}
    if unknown:
        raise GridError(
            "unknown grid key(s): " + ", ".join(sorted(unknown))
        )
    workloads = payload.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        raise GridError("'workloads' (non-empty list) is required")
    bars = payload.get("bars")
    if not isinstance(bars, list) or not bars:
        raise GridError("'bars' (non-empty list) is required")
    axes_obj = payload.get("axes", {})
    if not isinstance(axes_obj, dict):
        raise GridError("'axes' must be an object of NAME -> [values]")
    axes = []
    for name, values in axes_obj.items():
        if not isinstance(values, list):
            raise GridError(f"axis {name!r} must map to a list of values")
        axes.append((name, tuple(values)))
    points_obj = payload.get("points", [])
    if not isinstance(points_obj, list):
        raise GridError("'points' must be a list of override objects")
    points = []
    for index, point in enumerate(points_obj):
        if not isinstance(point, dict):
            raise GridError(f"point #{index} must be an object")
        points.append(point)
    return build_grid(
        workloads=[str(w) for w in workloads],
        bars=[str(b).upper() for b in bars],
        threshold=payload.get("threshold", 0.05),
        axes=axes,
        points=points,
        grid_file=path,
    )
