"""Pipeline configuration and its flat text format.

The file format is one `section.key = value` assignment per line; blank lines
and lines starting with `#` are ignored. Class table entries use
`class.<name>.<field>`. Parsing then printing a config reproduces it exactly,
and unknown keys are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .coords import DEFAULT_OFFSET, ParticleClassSpec
from .postproc import DEFAULT_NMS_KERNEL
from .tiler import DEFAULT_EDGE_FLOOR
from .volgrid import DEFAULT_SPACING


class ConfigError(Exception):
    pass


def sigma_for_radius(radius: float, spacing: float, lo: float = 2.0, hi: float = 8.0) -> float:
    """Per-class target sigma rule: radius / (2 * spacing), clamped to [lo, hi]."""
    return min(hi, max(lo, radius / (2.0 * spacing)))


def default_classes(spacing: float = DEFAULT_SPACING) -> tuple[ParticleClassSpec, ...]:
    # Six stand-in particle species; radii in physical units. Thresholds,
    # match radii, and weights are configuration defaults, not ground truth.
    table = [
        ("apo_ferritin", 60.0),
        ("beta_amylase", 65.0),
        ("beta_galactosidase", 90.0),
        ("ribosome", 150.0),
        ("thyroglobulin", 130.0),
        ("virus_like_particle", 135.0),
    ]
    return tuple(
        ParticleClassSpec(
            name=name,
            radius=radius,
            sigma_vox=sigma_for_radius(radius, spacing),
            detect_threshold=0.5,
            match_radius_tau=2.0 * radius,
            metric_weight=1.0,
        )
        for name, radius in table
    )


@dataclass(frozen=True)
class PipelineConfig:
    spacing: float = DEFAULT_SPACING
    offset: float = DEFAULT_OFFSET  # 1.0 default; 0.5 available for comparison
    classes: tuple[ParticleClassSpec, ...] = field(default_factory=default_classes)
    window: int = 128
    xy_stride: int = 48
    pad_to: int = 656
    z_window: int = 16
    z_stride: int = 8
    nms_kernel: int = DEFAULT_NMS_KERNEL
    edge_floor: float = DEFAULT_EDGE_FLOOR

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if self.offset not in (1.0, 0.5):
            raise ConfigError(f"offset must be 1.0 or 0.5, got {self.offset}")
        if self.nms_kernel < 1 or self.nms_kernel % 2 == 0:
            raise ConfigError("nms kernel must be odd and >= 1")
        if not self.classes:
            raise ConfigError("at least one particle class required")
        for name in ("window", "xy_stride", "z_window", "z_stride"):
            if getattr(self, name) < 1:
                raise ConfigError(f"tiling {name} must be >= 1, got {getattr(self, name)}")
        if self.pad_to < self.window:
            raise ConfigError(f"tiling pad_to {self.pad_to} is smaller than the window {self.window}")
        if not 0 < self.edge_floor < 1:
            raise ConfigError(f"blend edge_floor must be in (0, 1), got {self.edge_floor}")
        if not math.isfinite(self.spacing) or self.spacing <= 0:
            raise ConfigError(f"spacing must be finite and > 0, got {self.spacing}")


# Flat-file key -> (PipelineConfig field, value type), in file order.
_KEYS = {
    "pipeline.spacing": ("spacing", float),
    "pipeline.offset": ("offset", float),
    "tiling.window": ("window", int),
    "tiling.xy_stride": ("xy_stride", int),
    "tiling.pad_to": ("pad_to", int),
    "tiling.z_window": ("z_window", int),
    "tiling.z_stride": ("z_stride", int),
    "nms.kernel": ("nms_kernel", int),
    "blend.edge_floor": ("edge_floor", float),
}
_CLASS_FIELDS = ("radius", "sigma_vox", "detect_threshold", "match_radius_tau", "metric_weight")


def format_config(cfg: PipelineConfig) -> str:
    lines = [f"{key} = {getattr(cfg, name)!r}" for key, (name, _) in _KEYS.items()]
    for cls in cfg.classes:
        for fld in _CLASS_FIELDS:
            lines.append(f"class.{cls.name}.{fld} = {getattr(cls, fld)!r}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> PipelineConfig:
    kwargs = {}
    class_fields: dict[str, dict[str, float]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key.startswith("class."):
            parts = key.split(".")
            if len(parts) != 3 or parts[2] not in _CLASS_FIELDS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            fields_here = class_fields.setdefault(parts[1], {})
            if parts[2] in fields_here:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            try:
                fields_here[parts[2]] = float(value)
            except ValueError as e:
                raise ConfigError(f"line {lineno}: {e}") from e
        else:
            if key not in _KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            name, kind = _KEYS[key]
            if name in kwargs:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            try:
                kwargs[name] = kind(value)
            except ValueError as e:
                raise ConfigError(f"line {lineno}: {key}: {e}") from e

    classes = []
    for name, fields_here in class_fields.items():
        missing = [f for f in _CLASS_FIELDS if f not in fields_here]
        if missing:
            raise ConfigError(f"class {name!r}: missing fields {missing}")
        try:
            classes.append(ParticleClassSpec(name=name, **fields_here))
        except ValueError as e:
            raise ConfigError(f"class {name!r}: {e}") from e
    if classes:
        kwargs["classes"] = tuple(classes)
    return PipelineConfig(**kwargs)


def load_config(path) -> PipelineConfig:
    with open(path, "rb") as f:
        try:
            return parse_config(f.read().decode())
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: {e}") from e
