"""Run configuration: JSON in, validated dataclasses out.

Two named presets carry the two published hyperparameter sets: "main"
(train lr 0.001, adaptation lr 0.005, test weights 1e-2/1e-1) and
"appendix" (train lr 0.01, adaptation lr 0.05, test weights 1e-3/1e-2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .adapt import AdaptConfig
from .checks import positive, type_problems
from .ingest import GeneratorSpec, IngestError
from .losses import LossWeights
from .model import DTYPES, Architecture


class ConfigError(ValueError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration: " + "; ".join(self.problems))


@dataclass
class DataConfig:
    path: str = ""                   # TSV path; empty means use the generator
    generator: dict = field(default_factory=dict)
    max_len: int = 50
    min_interactions: int = 10       # 0 disables filtering
    pad_side: str = "left"


@dataclass
class TrainConfig:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 500
    batch_size: int = 4096
    eval_every: int = 10
    patience: int = 3


@dataclass
class RunConfig:
    seed: int = 0
    precision: str = "float32"       # dtype of the models a run builds; a checkpoint keeps its own
    out_dir: str = "runs/out"
    data: DataConfig = field(default_factory=DataConfig)
    model: Architecture = field(default_factory=Architecture)
    losses: LossWeights = field(default_factory=lambda: LossWeights(lam="median"))
    train: TrainConfig = field(default_factory=TrainConfig)
    adapt: AdaptConfig = field(default_factory=AdaptConfig)

    def to_dict(self):
        return {
            "seed": self.seed,
            "precision": self.precision,
            "out_dir": self.out_dir,
            "data": dict(self.data.__dict__),
            "model": dict(self.model.__dict__),
            "losses": dict(self.losses.__dict__),
            "train": dict(self.train.__dict__),
            "adapt": self.adapt.to_dict(),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


PRESETS = {
    "main": {
        "train": {"lr": 0.001},
        "losses": {"mu1_train": 0.1, "mu2_train": 1.0},
        "adapt": {"lr": 0.005, "mu1_test": 1e-2, "mu2_test": 1e-1, "steps": 1},
    },
    "appendix": {
        "train": {"lr": 0.01},
        "losses": {"mu1_train": 0.1, "mu2_train": 1.0},
        "adapt": {"lr": 0.05, "mu1_test": 1e-3, "mu2_test": 1e-2, "steps": 1},
    },
}

ABLATIONS = ("time", "state", "both", "time-test", "state-test", "both-test")


def _merge(base, over):
    for key, val in over.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _merge(base[key], val)
        else:
            base[key] = val
    return base


SECTIONS = {"data": DataConfig, "model": Architecture, "losses": LossWeights,
            "train": TrainConfig, "adapt": AdaptConfig}


def _field_problems(where, cls, values):
    """Unknown keys and mistyped values of one dataclass-backed section."""
    if not isinstance(values, dict):
        return [f"{where} must be an object, got {values!r}"]
    known = {f.name for f in fields(cls)}
    return ([f"unknown field {where}.{key}" for key in values if key not in known]
            + [f"{where}.{q}" for q in type_problems(cls, values)])


def load_config(source=None, preset=None, overrides=None, ablate=()):
    """Build a RunConfig from a JSON file/dict, a preset, CLI overrides and
    ablation flags; every problem is collected before raising."""
    raw = {}
    if isinstance(source, str):
        try:
            with open(source, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as e:
            raise ConfigError([f"cannot read config {source}: {e.strerror}"]) from None
        except ValueError as e:   # JSONDecodeError and UnicodeDecodeError
            raise ConfigError([f"config {source} is not valid JSON: {e}"]) from None
    elif isinstance(source, dict):
        raw = json.loads(json.dumps(source))
    if not isinstance(raw, dict):
        raise ConfigError([f"config must be a JSON object, got {type(raw).__name__}"])

    merged = RunConfig().to_dict()
    if preset:
        if preset not in PRESETS:
            raise ConfigError([f"unknown preset {preset!r} (have {sorted(PRESETS)})"])
        _merge(merged, PRESETS[preset])
    _merge(merged, raw)
    if overrides:
        _merge(merged, overrides)

    top = {k: v for k, v in merged.items() if k not in SECTIONS}
    problems = _field_problems("config", RunConfig, top)
    for name, cls in SECTIONS.items():
        problems.extend(_field_problems(name, cls, merged[name]))
    gen = merged["data"].get("generator") if isinstance(merged["data"], dict) else None
    if isinstance(gen, dict):
        problems.extend(_field_problems("data.generator", GeneratorSpec, gen))
    if problems:
        raise ConfigError(problems)

    for flag in ablate:
        if flag not in ABLATIONS:
            raise ConfigError([f"unknown ablation {flag!r} (have {ABLATIONS})"])
        if flag in ("time", "both"):
            merged["losses"]["mu1_train"] = 0.0
        if flag in ("state", "both"):
            merged["losses"]["mu2_train"] = 0.0
        if flag in ("time-test", "both-test"):
            merged["adapt"]["mu1_test"] = 0.0
        if flag in ("state-test", "both-test"):
            merged["adapt"]["mu2_test"] = 0.0

    sections = {}
    for name, cls in SECTIONS.items():
        try:
            sections[name] = cls(**merged[name])
        except ValueError as e:   # each section's type checks its own ranges
            problems += [f"{name}.{q}" for q in str(e).split("; ")]
    cfg = RunConfig(**top, **sections)   # a failed section keeps its default here
    problems += validate(cfg)
    if problems:
        raise ConfigError(problems)
    return cfg


def validate(cfg):
    """Range checks of the parts that have no runtime type of their own (top
    level, data, train), plus the generator spec's own problems; returns a
    problem list. The other sections check themselves when built."""
    p = []
    if cfg.precision not in DTYPES:
        p.append(f"precision must be {'|'.join(DTYPES)}, got {cfg.precision!r}")
    if cfg.data.max_len < 1:
        p.append(f"data.max_len must be >= 1, got {cfg.data.max_len}")
    if cfg.data.pad_side not in ("left", "right"):
        p.append(f"data.pad_side must be left|right, got {cfg.data.pad_side!r}")
    if cfg.data.min_interactions not in (0,) and cfg.data.min_interactions < 3:
        p.append("data.min_interactions must be 0 (off) or >= 3")
    if not cfg.data.path and not cfg.data.generator:
        p.append("data needs either a path or a generator spec")
    try:
        generator_spec(cfg)
    except IngestError as e:
        p += [f"data.generator.{q}" for q in str(e).split("; ")]
    if not positive(cfg.train.lr):
        p.append(f"train.lr must be a positive finite number, got {cfg.train.lr}")
    for n in ("beta1", "beta2"):
        if not 0.0 <= getattr(cfg.train, n) < 1.0:
            p.append(f"train.{n} must be in [0, 1), got {getattr(cfg.train, n)}")
    if not positive(cfg.train.eps):
        p.append(f"train.eps must be a positive finite number, got {cfg.train.eps}")
    if cfg.train.epochs < 1:
        p.append("train.epochs must be >= 1")
    if cfg.train.batch_size < 1:
        p.append("train.batch_size must be >= 1")
    if cfg.train.eval_every < 1:
        p.append("train.eval_every must be >= 1")
    if cfg.train.patience < 1:
        p.append("train.patience must be >= 1")
    return p


def generator_spec(cfg):
    return GeneratorSpec(**cfg.data.generator) if cfg.data.generator else None
