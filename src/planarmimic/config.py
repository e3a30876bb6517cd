"""Training configuration: a flat key-value file format with dotted keys for
nesting, full-field validation, and per-task defaults."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .discriminator import DiscriminatorConfig
from .dtw import DtwConfig
from .ppo import PpoConfig
from .rewards import RewardWeights
from .sim import MOTIONS, SimParams


class ConfigError(Exception):
    """Raised when a config file cannot be parsed or validated. ``errors``
    lists every violated field."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in self.errors))


@dataclass
class EvalConfig:
    rollouts: int = 20
    episode_frames: int = 0   # 0 = match the longest reference trajectory
    seeds: int = 1

    def validate(self) -> list:
        errors = []
        if self.rollouts < 1:
            errors.append("eval.rollouts must be >= 1")
        if self.seeds < 1:
            errors.append("eval.seeds must be >= 1")
        if self.episode_frames < 0:
            errors.append("eval.episode_frames must be >= 0")
        return errors


@dataclass
class TrainConfig:
    """Top-level experiment configuration.

    Desk-scale defaults: 16 environments and 2000 iterations finish well
    under an hour on one core. The large-scale reference settings (4096
    environments, 5000 iterations, 80 discriminator minibatches) are kept in
    comments next to the fields they would replace.
    """

    task: str = "leap"
    seed: int = 1
    iterations: int = 2000          # reference scale: 5000
    out_dir: str = ""
    refs: str = ""
    checkpoint_interval: int = 500
    log_interval: int = 1
    sim: SimParams = field(default_factory=SimParams)
    # leap's horizon and imitation weight: the default config is leap's
    disc: DiscriminatorConfig = field(
        default_factory=lambda: DiscriminatorConfig(horizon=2))
    ppo: PpoConfig = field(default_factory=PpoConfig)
    reward: RewardWeights = field(
        default_factory=lambda: RewardWeights(w_imitation=2.0))
    dtw: DtwConfig = field(default_factory=DtwConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def validate(self) -> list:
        errors = []
        if self.task not in MOTIONS:
            errors.append(f"task must be one of {MOTIONS}, got {self.task!r}")
        if self.iterations < 1:
            errors.append("iterations must be >= 1")
        if self.checkpoint_interval < 1:
            errors.append("checkpoint_interval must be >= 1")
        errors += self.sim.validate()
        errors += self.disc.validate()
        errors += self.ppo.validate()
        errors += self.reward.validate()
        errors += self.dtw.validate()
        errors += self.eval.validate()
        return errors

    def require_valid(self) -> "TrainConfig":
        errors = self.validate()
        if errors:
            raise ConfigError(errors)
        return self


# imitation-weight and horizon defaults per task (desk-scale starting
# points) where they differ from leap's, which are ``TrainConfig()``'s
TASK_DEFAULTS = {
    "wave": {"reward.w_imitation": 1.0, "disc.horizon": 4},
    "standup": {"reward.w_imitation": 2.0, "disc.horizon": 4},
    "backflip": {"reward.w_imitation": 2.0, "disc.horizon": 8},
}


def default_config(task: str = "leap", loss: str = "wgan") -> TrainConfig:
    return build_config(keys=[("task", task), ("disc.loss_kind", loss)])


# ---------------------------------------------------------------------------
# dotted-key (de)serialization
# ---------------------------------------------------------------------------

_NESTED = ("sim", "disc", "ppo", "reward", "dtw", "eval")


def _coerce(value: str, target_type) -> object:
    if target_type is bool:
        lowered = value.strip().lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {value!r}")
    if target_type is int:
        return int(value)
    if target_type is float:
        return float(value)
    if target_type is tuple:
        parts = [p for p in value.replace("(", "").replace(")", "").split(",") if p.strip()]
        return tuple(float(p) if ("." in p or "e" in p.lower()) else int(p)
                     for p in parts)
    return value


def _set_dotted(cfg: TrainConfig, key: str, value) -> None:
    parts = key.split(".")
    target = cfg
    for part in parts[:-1]:
        if part not in _NESTED:
            raise ValueError(f"unknown config section {part!r} in key {key!r}")
        target = getattr(target, part)
    name = parts[-1]
    if name not in {f.name for f in fields(target)}:
        raise ValueError(f"unknown config key {key!r}")
    if isinstance(value, str):
        value = _coerce(value, type(getattr(target, name)))
    setattr(target, name, value)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_to_mapping(cfg: TrainConfig) -> dict:
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name in _NESTED:
            for sub in fields(value):
                out[f"{f.name}.{sub.name}"] = _format_value(getattr(value, sub.name))
        else:
            out[f.name] = _format_value(value)
    return out


def save_config(cfg: TrainConfig, path) -> None:
    lines = [f"{k} = {v}" for k, v in config_to_mapping(cfg).items()]
    Path(path).write_text("\n".join(lines) + "\n")


def build_config(path=None, keys=(), overrides=()) -> TrainConfig:
    """The config of a run, in one pass from ``TrainConfig()`` (leap's):
    the last ``task`` given anywhere and its ``TASK_DEFAULTS``,
    then the keys of the config file at ``path``, then ``keys`` (``(key,
    value)`` pairs: flags, or a checkpoint's config mapping), then
    ``overrides`` (``key=value`` strings). A later key beats an earlier one,
    and any key beats a task default. Raises ``ConfigError`` listing every
    bad line, key and value."""
    errors = []
    staged = []
    if path is not None:
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
                continue
            key, _, value = line.partition("=")
            staged.append((f"line {lineno}: ", key.strip(), value.strip()))
    staged += [("", key, value) for key, value in keys]
    for item in overrides:
        if "=" not in item:
            errors.append(f"override {item!r} must look like key=value")
            continue
        key, _, value = item.partition("=")
        staged.append(("", key.strip(), value.strip()))

    cfg = TrainConfig()
    # the last task's defaults go first, so any key given beats them
    task = next((value for _, key, value in reversed(staged) if key == "task"),
                cfg.task)
    defaults = [("", key, value) for key, value in TASK_DEFAULTS.get(task, {}).items()]
    for where, key, value in defaults + staged:
        try:
            _set_dotted(cfg, key, value)
        except ValueError as e:
            errors.append(f"{where}{e}")
    if errors:
        raise ConfigError(errors)
    return cfg
