"""Run configuration: JSON in, validated dataclasses out.

Two named presets carry the two published hyperparameter sets: "main"
(train lr 0.001, adaptation lr 0.005, test weights 1e-2/1e-1) and
"appendix" (train lr 0.01, adaptation lr 0.05, test weights 1e-3/1e-2).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields

from .adapt import AdaptConfig
from .ingest import GeneratorSpec


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
class LossConfig:
    mu1_train: float = 0.1
    mu2_train: float = 1.0
    lam: object = "median"           # "median" or a positive number (seconds)
    block_size: int = 10
    dilution_power: int = 2


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
class ModelSection:
    d: int = 64
    d_s: int = 32
    conv_width: int = 4
    d_ff: int = 0
    dropout: float = 0.2
    n_blocks: int = 1
    detach_extension: bool = True
    extension_history: str = "batch"


@dataclass
class RunConfig:
    seed: int = 0
    precision: str = "float64"
    out_dir: str = "runs/out"
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelSection = field(default_factory=ModelSection)
    losses: LossConfig = field(default_factory=LossConfig)
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


SECTIONS = {"data": DataConfig, "model": ModelSection, "losses": LossConfig,
            "train": TrainConfig, "adapt": AdaptConfig}


def _type_ok(value, default):
    """Whether `value` has the type of a field's default: int and not bool for
    an int field, int or float for a float field."""
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _field_problems(where, cls, values):
    """Unknown keys and mistyped values of one dataclass-backed section."""
    if not isinstance(values, dict):
        return [f"{where} must be an object, got {values!r}"]
    known = {f.name: f for f in fields(cls)}
    p = []
    for key, val in values.items():
        f = known.get(key)
        if f is None:
            p.append(f"unknown field {where}.{key}")
            continue
        default = f.default if f.default is not MISSING else f.default_factory()
        if (where, key) == ("losses", "lam") and not isinstance(val, str):
            default = 1.0   # lam is "median" or a number
        if not _type_ok(val, default):
            p.append(f"{where}.{key} must be of type {type(default).__name__}, "
                     f"got {val!r}")
    return p


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

    try:
        cfg = RunConfig(**top, **{name: cls(**merged[name])
                                  for name, cls in SECTIONS.items()})
    except ValueError as e:   # AdaptConfig checks its own ranges
        raise ConfigError([str(e)]) from None

    problems = validate(cfg)
    if problems:
        raise ConfigError(problems)
    return cfg


def validate(cfg):
    """Check every module precondition up front; returns a problem list."""
    p = []
    if cfg.precision not in ("float64", "float32"):
        p.append(f"precision must be float64|float32, got {cfg.precision!r}")
    if cfg.data.max_len < 1:
        p.append(f"data.max_len must be >= 1, got {cfg.data.max_len}")
    if cfg.data.pad_side not in ("left", "right"):
        p.append(f"data.pad_side must be left|right, got {cfg.data.pad_side!r}")
    if cfg.data.min_interactions not in (0,) and cfg.data.min_interactions < 3:
        p.append("data.min_interactions must be 0 (off) or >= 3")
    if not cfg.data.path and not cfg.data.generator:
        p.append("data needs either a path or a generator spec")
    if cfg.model.d < 1 or cfg.model.d_s < 1:
        p.append("model dims must be positive")
    if cfg.model.d_ff < 0:
        p.append(f"model.d_ff must be >= 0 (0 means 4 * d), got {cfg.model.d_ff}")
    if cfg.model.conv_width < 1:
        p.append("model.conv_width must be >= 1")
    if cfg.model.extension_history not in ("batch", "zeros"):
        p.append("model.extension_history must be batch|zeros, "
                 f"got {cfg.model.extension_history!r}")
    if not (0.0 <= cfg.model.dropout < 1.0):
        p.append(f"model.dropout must be in [0, 1), got {cfg.model.dropout}")
    if cfg.model.n_blocks < 1:
        p.append("model.n_blocks must be >= 1")
    if isinstance(cfg.losses.lam, str):
        if cfg.losses.lam != "median":
            p.append(f'losses.lam must be "median" or a positive number, got {cfg.losses.lam!r}')
    elif not _positive(cfg.losses.lam):
        p.append(f"losses.lam must be a positive finite number, got {cfg.losses.lam}")
    if cfg.losses.block_size < 2:
        p.append(f"losses.block_size must be >= 2, got {cfg.losses.block_size}")
    if cfg.losses.dilution_power < 0:
        p.append(f"losses.dilution_power must be >= 0, got {cfg.losses.dilution_power}")
    for n in ("mu1_train", "mu2_train"):
        if not _non_negative(getattr(cfg.losses, n)):
            p.append(f"losses.{n} must be a non-negative finite number, "
                     f"got {getattr(cfg.losses, n)}")
    if not _positive(cfg.train.lr):
        p.append(f"train.lr must be a positive finite number, got {cfg.train.lr}")
    for n in ("beta1", "beta2"):
        if not 0.0 <= getattr(cfg.train, n) < 1.0:
            p.append(f"train.{n} must be in [0, 1), got {getattr(cfg.train, n)}")
    if not _positive(cfg.train.eps):
        p.append(f"train.eps must be a positive finite number, got {cfg.train.eps}")
    if cfg.train.epochs < 1:
        p.append("train.epochs must be >= 1")
    if cfg.train.batch_size < 1:
        p.append("train.batch_size must be >= 1")
    if cfg.train.eval_every < 1:
        p.append("train.eval_every must be >= 1")
    if cfg.train.patience < 1:
        p.append("train.patience must be >= 1")
    if cfg.adapt.batch_size < 1:
        p.append(f"adapt.batch_size must be >= 1, got {cfg.adapt.batch_size}")
    spec = generator_spec(cfg)
    if spec is not None:
        p.extend(_generator_problems(spec))
    return p


def _positive(x):
    """x > 0 and finite; false for NaN."""
    return x > 0 and math.isfinite(x)


def _non_negative(x):
    """x >= 0 and finite; false for NaN."""
    return x >= 0 and math.isfinite(x)


def _generator_problems(spec):
    """Range checks of a generator spec whose field types are already known
    to be right. The regime count and n_items >= n_clusters are checked by
    `ingest.synth_shift_generate`."""
    where = "data.generator"
    p = []
    for n in ("n_users", "n_items", "n_clusters", "horizon", "min_events"):
        if getattr(spec, n) < 1:
            p.append(f"{where}.{n} must be >= 1, got {getattr(spec, n)}")
    if spec.max_events < spec.min_events:
        p.append(f"{where}.max_events ({spec.max_events}) must be >= "
                 f"min_events ({spec.min_events})")
    for n in ("switch_frac", "noise_rate", "walk_persistence"):
        if not 0.0 <= getattr(spec, n) <= 1.0:
            p.append(f"{where}.{n} must be in [0, 1], got {getattr(spec, n)}")
    for n in ("gap_mean_pre", "gap_mean_post"):
        if not _positive(getattr(spec, n)):
            p.append(f"{where}.{n} must be a positive finite number, "
                     f"got {getattr(spec, n)}")
    for r, w in enumerate(spec.regime_weights):
        if w is None:
            continue
        ok = (isinstance(w, list) and len(w) == spec.n_clusters
              and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      and _non_negative(v) for v in w)
              and sum(w) > 0)
        if not ok:
            p.append(f"{where}.regime_weights[{r}] must be null or {spec.n_clusters} "
                     f"non-negative finite numbers with a positive sum, got {w!r}")
    return p


def generator_spec(cfg):
    return GeneratorSpec(**cfg.data.generator) if cfg.data.generator else None
