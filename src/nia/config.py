"""Experiment configuration: strict JSON parsing with typo-safe key checks.

Each section is a frozen dataclass whose fields are its JSON keys and whose
field defaults are the only defaults. ``parse_config`` reads the field names
and types, so adding a field adds its key; range and existence checks live in
each section's ``__post_init__`` and hold for programmatic construction and
``dataclasses.replace`` as well as for parsed files.
"""

from __future__ import annotations

import hashlib
import json
import os
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from .errors import InvalidConfig
from .instances import MAX_SEED
from .logistic import FitOptions

# String keys that name files; relative values resolve against the config's
# directory.
_PATH_KEYS = frozenset({"dataset", "file", "out_dir"})


@dataclass(frozen=True)
class InstanceConfig:
    kind: str = "hard"
    k: int = 4
    n: int = 100_000
    seeds: tuple[int, ...] = (1,)
    dataset: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("hard", "file"):
            raise InvalidConfig(f"instance.kind must be 'hard' or 'file', got {self.kind!r}")
        if not self.seeds:
            raise InvalidConfig("instance.seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise InvalidConfig("instance.seeds must be distinct")
        if any(not 0 <= s <= MAX_SEED for s in self.seeds):
            raise InvalidConfig("instance.seeds must lie in [0, 2**128 - 1]")
        if (self.dataset is None) == (self.kind == "file"):
            raise InvalidConfig("instance.dataset is set if and only if instance.kind='file'")
        if self.kind == "hard":
            if self.k < 2:
                raise InvalidConfig(f"instance.k must be >= 2, got {self.k}")
            if self.n < 1:
                raise InvalidConfig(f"instance.n must be >= 1, got {self.n}")
        elif not os.path.exists(self.dataset):
            raise InvalidConfig(f"dataset file not found: {self.dataset}")


@dataclass(frozen=True)
class GraphConfig:
    cyclic_depth: int | None = None
    file: str | None = None

    def __post_init__(self) -> None:
        if (self.cyclic_depth is None) == (self.file is None):
            raise InvalidConfig("graph needs exactly one of 'cyclic_depth' or 'file'")
        if self.cyclic_depth is not None and self.cyclic_depth < 1:
            raise InvalidConfig("graph.cyclic_depth must be >= 1")
        if self.file is not None and not os.path.exists(self.file):
            raise InvalidConfig(f"graph file not found: {self.file}")


@dataclass(frozen=True)
class ScanConfig:
    depths: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.depths:
            raise InvalidConfig("scan needs a non-empty 'depths' grid")
        if any(x < 1 for x in self.depths):
            raise InvalidConfig("scan depths must be >= 1")


@dataclass(frozen=True)
class VerifyConfig:
    """Sizes for the identity-verification suites; defaults match the
    acceptance settings."""

    seed: int = 1
    k: int = 4
    depth: int = 16
    n_protocol: int = 100_000
    n_decomposition: int = 100_000
    pinsker_trials: int = 10_000
    # Sizes nothing: the noise suite is a closed form. Kept, parsed and
    # range-checked so configs that set it still load and hash the same.
    noise_samples: int = 1_000_000

    def __post_init__(self) -> None:
        minimums = {"seed": 0, "k": 2, "depth": 1, "n_protocol": 1, "n_decomposition": 1,
                    "pinsker_trials": 1, "noise_samples": 2}
        for key, low in minimums.items():
            if getattr(self, key) < low:
                raise InvalidConfig(f"verify.{key} must be >= {low}, got {getattr(self, key)}")
        if self.seed > MAX_SEED:
            raise InvalidConfig(f"verify.seed must be <= 2**128 - 1, got {self.seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A whole experiment; the ``solver`` section is the protocol's
    ``FitOptions``."""

    instance: InstanceConfig = field(default_factory=InstanceConfig)
    graph: GraphConfig | None = None
    solver: FitOptions = field(default_factory=FitOptions)
    scan: ScanConfig | None = None
    verify: VerifyConfig = field(default_factory=VerifyConfig)
    out_dir: str = "out"
    dump_logits: bool = False

    def config_hash(self) -> str:
        """Hash of every setting but ``out_dir``, which only says where output goes."""
        settings = asdict(self)
        del settings["out_dir"]
        payload = json.dumps(settings, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def _resolve(path: str | None, base_dir: str) -> str | None:
    if path is None or os.path.isabs(path):
        return path
    return os.path.normpath(os.path.join(base_dir, path))


def _value(tp, value, where: str, base_dir: str):
    """``value`` converted to the field type ``tp``; raises TypeError,
    ValueError or OverflowError on a value of the wrong shape."""
    if typing.get_origin(tp) is types.UnionType:  # an optional field: X | None
        if value is None:
            return None
        (tp,) = (arg for arg in typing.get_args(tp) if arg is not type(None))
    if is_dataclass(tp):
        return _section(tp, value, where, base_dir)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise TypeError(f"expected a JSON list, got {value!r}")
        item = typing.get_args(tp)[0]
        return tuple(_value(item, x, where, base_dir) for x in value)
    if tp is bool or tp is str:
        # No coercion: bool("false") is True, and str(None) is a path.
        if not isinstance(value, tp):
            raise TypeError(f"expected a JSON {tp.__name__}, got {value!r}")
        return value
    # An int or float field takes a JSON number: float("1e-3") would take a
    # string, and a bool is an int.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a JSON number, got {value!r}")
    if tp is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return tp(value)


def _section(cls, obj, where: str, base_dir: str):
    """Build dataclass ``cls`` from the JSON object ``obj``; absent keys take
    the field defaults."""
    if not isinstance(obj, dict):
        raise InvalidConfig(f"{where} must be a JSON object, got {obj!r}")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise InvalidConfig(f"unknown key(s) in {where}: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        key = f.name if where == "config" else f"{where}.{f.name}"
        if f.name in obj:
            try:
                kwargs[f.name] = _value(hints[f.name], obj[f.name], key, base_dir)
            except InvalidConfig:
                raise
            except (TypeError, ValueError, OverflowError) as exc:
                raise InvalidConfig(f"invalid {key}: {exc}") from exc
        elif f.name in _PATH_KEYS:
            kwargs[f.name] = f.default  # a default path is relative to the config too
        if f.name in _PATH_KEYS:
            kwargs[f.name] = _resolve(kwargs[f.name], base_dir)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        # The sections defined here name their keys; FitOptions, which
        # direct callers of fit_logistic build too, does not.
        if isinstance(exc, InvalidConfig) and cls is not FitOptions:
            raise
        raise InvalidConfig(f"invalid {where}: {exc}") from exc


def parse_config(obj: dict, base_dir: str = ".") -> ExperimentConfig:
    """Strictly parse a configuration object: unknown keys, values of the
    wrong type and out-of-range values all raise ``InvalidConfig``.
    Relative ``dataset``, ``file`` and ``out_dir`` paths resolve against
    ``base_dir``."""
    return _section(ExperimentConfig, obj, "config", base_dir)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"{path}: {exc}") from exc
    return parse_config(obj, base_dir=os.path.dirname(os.path.abspath(path)))
