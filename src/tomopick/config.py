"""Pipeline configuration and its flat text format.

The file format is one `section.key = value` assignment per line; blank lines
and lines starting with `#` are ignored. Class table entries use
`class.<name>.<field>`. Parsing then printing a config reproduces it exactly,
and unknown keys are rejected.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field, fields

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
        ParticleClassSpec(name=name, radius=radius, sigma_vox=sigma_for_radius(radius, spacing),
                          match_radius_tau=2.0 * radius)
        for name, radius in table
    )


def _key(key: str, default):
    """A config field written to and read from the flat file as `key`."""
    return field(default=default, metadata={"key": key})


@dataclass(frozen=True)
class PipelineConfig:
    spacing: float = _key("pipeline.spacing", DEFAULT_SPACING)
    offset: float = _key("pipeline.offset", DEFAULT_OFFSET)  # 1.0 default; 0.5 available for comparison
    classes: tuple[ParticleClassSpec, ...] = field(default_factory=default_classes)  # class.<name>.<field>
    window: int = _key("tiling.window", 128)
    xy_stride: int = _key("tiling.xy_stride", 48)
    pad_to: int = _key("tiling.pad_to", 656)
    z_window: int = _key("tiling.z_window", 16)
    z_stride: int = _key("tiling.z_stride", 8)
    nms_kernel: int = _key("nms.kernel", DEFAULT_NMS_KERNEL)
    edge_floor: float = _key("blend.edge_floor", DEFAULT_EDGE_FLOOR)

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if self.offset not in (1.0, 0.5):
            raise ConfigError(f"offset must be 1.0 or 0.5, got {self.offset}")
        if self.nms_kernel < 1 or self.nms_kernel % 2 == 0:
            raise ConfigError("nms kernel must be odd and >= 1")
        if not self.classes:
            raise ConfigError("at least one particle class required")
        if not any(c.metric_weight for c in self.classes):
            raise ConfigError("class metric weights must not all be zero")
        for name in ("window", "xy_stride", "z_window", "z_stride"):
            if getattr(self, name) < 1:
                raise ConfigError(f"tiling {name} must be >= 1, got {getattr(self, name)}")
        if self.pad_to < self.window:
            raise ConfigError(f"tiling pad_to {self.pad_to} is smaller than the window {self.window}")
        if not 0 < self.edge_floor <= 1:
            raise ConfigError(f"blend edge_floor must be in (0, 1], got {self.edge_floor}")
        if not math.isfinite(self.spacing) or self.spacing <= 0:
            raise ConfigError(f"spacing must be finite and > 0, got {self.spacing}")


# Flat-file key -> (PipelineConfig field, value type), in field order.
_TYPES = typing.get_type_hints(PipelineConfig)
_KEYS = {f.metadata["key"]: (f.name, _TYPES[f.name]) for f in fields(PipelineConfig) if "key" in f.metadata}
_CLASS_FIELDS = tuple(f.name for f in fields(ParticleClassSpec))[1:]  # after `name`


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
        parts = key.split(".")
        if len(parts) == 3 and parts[0] == "class" and parts[2] in _CLASS_FIELDS:
            target, name, kind = class_fields.setdefault(parts[1], {}), parts[2], float
        elif key in _KEYS:
            target, (name, kind) = kwargs, _KEYS[key]
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if name in target:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            target[name] = kind(value)
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
