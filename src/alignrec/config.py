"""Run configuration: JSON in, checked dataclasses out.

Every section's type checks its own fields when built, so `load_config`
only merges, rejects unknown keys and collects the types' problems into one
error.

Two named presets carry the two published hyperparameter sets: "main"
(train lr 0.001, adaptation lr 0.005, test weights 1e-2/1e-1) and
"appendix" (train lr 0.01, adaptation lr 0.05, test weights 1e-3/1e-2).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .adapt import AdaptConfig
from .checks import Checked, InputError, positive
from .ingest import GeneratorSpec, IngestError
from .losses import LossWeights
from .model import DTYPES, Architecture


class ConfigError(InputError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration: " + "; ".join(self.problems))


@dataclass
class DataConfig(Checked):
    path: str = ""                   # TSV path; empty means use the generator
    generator: dict = field(default_factory=dict)
    max_len: int = 50
    min_interactions: int = 10       # 0 disables filtering
    pad_side: str = "left"           # the only layout; perfbench/workloads.py reads it

    def _range_problems(self):
        p = []
        if self.max_len < 1:
            p.append(f"max_len must be >= 1, got {self.max_len}")
        if self.pad_side != "left":
            p.append(f"pad_side must be left, got {self.pad_side!r}")
        if self.min_interactions != 0 and self.min_interactions < 3:
            p.append("min_interactions must be 0 (off) or >= 3")
        known = {f.name for f in fields(GeneratorSpec)}
        unknown = [k for k in self.generator if k not in known]
        p += [f"generator has unknown field {k!r}" for k in unknown]
        if self.generator and not unknown:
            try:
                GeneratorSpec(**self.generator)
            except IngestError as e:
                p += [f"generator.{q}" for q in str(e).split("; ")]
        return p


@dataclass
class TrainConfig(Checked):
    lr: float = 0.001
    epochs: int = 500
    batch_size: int = 4096
    eval_every: int = 10
    patience: int = 3

    def _range_problems(self):
        p = [] if positive(self.lr) else [f"lr must be a positive finite number, got {self.lr}"]
        return p + [f"{n} must be >= 1" for n in ("epochs", "batch_size", "eval_every", "patience")
                    if getattr(self, n) < 1]


@dataclass
class RunConfig(Checked):
    seed: int = 0
    precision: str = "float32"       # dtype of the models a run builds; a checkpoint keeps its own
    out_dir: str = "runs/out"
    data: DataConfig = field(default_factory=DataConfig)
    model: Architecture = field(default_factory=Architecture)
    losses: LossWeights = field(default_factory=lambda: LossWeights(lam="median"))
    train: TrainConfig = field(default_factory=TrainConfig)
    adapt: AdaptConfig = field(default_factory=AdaptConfig)

    def _range_problems(self):
        p = []
        if self.seed < 0:
            p.append(f"seed must be >= 0, got {self.seed}")
        if self.precision not in DTYPES:
            p.append(f"precision must be {'|'.join(DTYPES)}, got {self.precision!r}")
        if not self.out_dir:
            p.append("out_dir must not be empty")
        return p


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

# each ablation flag zeroes the loss weights it names
ABLATIONS = {
    "time": {"losses": {"mu1_train": 0.0}},
    "state": {"losses": {"mu2_train": 0.0}},
    "both": {"losses": {"mu1_train": 0.0, "mu2_train": 0.0}},
    "time-test": {"adapt": {"mu1_test": 0.0}},
    "state-test": {"adapt": {"mu2_test": 0.0}},
    "both-test": {"adapt": {"mu1_test": 0.0, "mu2_test": 0.0}},
}


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
    """Unknown keys of one dataclass-backed section; its type checks the rest."""
    if not isinstance(values, dict):
        return [f"{where} must be an object, got {values!r}"]
    known = {f.name for f in fields(cls)}
    return [f"unknown field {where}.{key}" for key in values if key not in known]


def _build(where, cls, values, problems):
    """cls(**values), or None with its problems added to `problems`."""
    try:
        return cls(**values)
    except ValueError as e:
        problems += [f"{where}.{q}" for q in str(e).split("; ")]
        return None


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

    merged = asdict(RunConfig())
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
        problems += _field_problems(name, cls, merged[name])
    if problems:
        raise ConfigError(problems)

    for flag in ablate:
        if flag not in ABLATIONS:
            raise ConfigError([f"unknown ablation {flag!r} (have {tuple(ABLATIONS)})"])
        _merge(merged, ABLATIONS[flag])

    sections = {name: _build(name, cls, merged[name], problems)
                for name, cls in SECTIONS.items()}
    data = sections["data"]
    if data is not None and not data.path and not data.generator:
        problems.append("data needs either a path or a generator spec")
    cfg = _build("config", RunConfig,   # a failed section keeps its default here
                 {**top, **{k: v for k, v in sections.items() if v is not None}}, problems)
    if problems:
        raise ConfigError(problems)
    return cfg


def generator_spec(cfg):
    return GeneratorSpec(**cfg.data.generator) if cfg.data.generator else None
