"""Experiment configuration: one YAML (or JSON) document that can override
every default in the simulator."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import yaml

from memcolor.classifier import Category, ClassifierError, SamplerConfig, Thresholds
from memcolor.errors import ConfigError
from memcolor.hierarchy import (DEFAULT_LATENCIES, DEFAULT_LLC_WAYS, DEFAULT_PRIVATE,
                                CacheConfig, power_of_two, private_sets)
from memcolor.mapping import AddressMapping, validate_mapping
from memcolor.workloads import PARAM_NAMES, ArchetypeParams, canonical_params


@dataclass
class WorkloadEntry:
    app: str
    core: int = 0
    trace_path: str | None = None
    params: ArchetypeParams | None = None


@dataclass
class ExperimentConfig:
    mapping: AddressMapping = field(default_factory=AddressMapping)
    private_cache: CacheConfig = DEFAULT_PRIVATE
    llc_ways: int = DEFAULT_LLC_WAYS
    latencies: dict = field(default_factory=lambda: dict(DEFAULT_LATENCIES))
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    thresholds: Thresholds = field(default_factory=Thresholds)
    workload: list = field(default_factory=list)       # WorkloadEntry
    profile: list | None = None                        # [(app, Category)] bypasses classification
    policy: str = "auto"
    seed: int = 0
    core_count: int = 4
    multithreaded: bool = False
    mix_chunk: int = 1
    epoch: int | None = None
    allow_fallback: bool = False


# The keys each section of a config may hold: what config_from_dict reads.
TOP_KEYS = ("mapping", "hierarchy", "sampler", "thresholds", "seed", "policy", "core_count",
            "multithreaded", "mix_chunk", "allow_fallback", "epoch", "workload",
            "profile")
MAPPING_INTS = ("page_offset_bits", "line_offset_bits", "row_shift", "mem_bytes")
MAPPING_BITS = {"set_index_bits": tuple, "bank_index_bits": tuple, "b_bits": frozenset,
                "c_bits": frozenset, "o_bits": frozenset}
WORKLOAD_KEYS = ("app", "core", "trace", "kind", "seed", *PARAM_NAMES)


def _mapping_from(doc: dict) -> AddressMapping:
    kwargs = {}
    for key in MAPPING_INTS:
        if key in doc:
            kwargs[key] = _integer(f"mapping.{key}", doc[key])
    for key, kind in MAPPING_BITS.items():
        if key in doc:
            kwargs[key] = kind(_integer(f"mapping.{key}", b)
                               for b in _shaped(f"mapping.{key}", doc[key], list))
    return AddressMapping(**kwargs)


def _cache_from(name: str, doc: dict, make, **defaults):
    """`make` of the integers `doc` gives for each key of `defaults`, the
    default where it gives none; its ValueError a ConfigError naming `name`."""
    _section(name, doc, defaults)
    values = [_integer(f"{name}.{key}", doc.get(key, value)) for key, value in defaults.items()]
    try:
        return make(*values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _bucket_weights(weights) -> tuple:
    if not (isinstance(weights, list) and weights and all(
            isinstance(w, (int, float)) and not isinstance(w, bool) for w in weights)):
        raise ConfigError(f"sampler.bucket_weights must be a non-empty list of "
                          f"numbers, got {weights!r}")
    return tuple(weights)


def _checked(name: str, make, **kwargs):
    """`make(**kwargs)`, its ClassifierError a ConfigError naming section `name`."""
    try:
        return make(**kwargs)
    except ClassifierError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _workload_entry(doc: dict, index: int, default_seed: int) -> WorkloadEntry:
    _shaped(f"workload[{index}]", doc, dict)
    app = str(doc.get("app", chr(ord("A") + index)))
    _section(f"workload[{index}] (app {app!r})", doc, WORKLOAD_KEYS)
    try:
        core = _integer("core", doc.get("core", index))
        if "trace" in doc:
            return WorkloadEntry(app=app, core=core, trace_path=str(doc["trace"]))
        if "kind" not in doc:
            raise ConfigError("needs either 'trace' or 'kind'")
        seed = _at_least("seed", doc.get("seed", default_seed), 0)
        params = canonical_params(str(doc["kind"]), seed=seed, app=app, core=core,
                                  **{name: doc[name] for name in PARAM_NAMES if name in doc})
    except ValueError as exc:
        raise ConfigError(f"workload[{index}] (app {app!r}): {exc}") from None
    return WorkloadEntry(app=app, core=core, params=params)


def _profile_entry(doc, index: int) -> tuple:
    if not isinstance(doc, dict) or "app" not in doc:
        raise ConfigError(f"profile[{index}] must be a mapping with an 'app', got {doc!r}")
    _section(f"profile[{index}] (app {str(doc['app'])!r})", doc, ("app", "category"))
    try:
        return str(doc["app"]), Category(str(doc.get("category")).upper())
    except ValueError:
        raise ConfigError(f"profile[{index}] (app {str(doc['app'])!r}): category must be "
                          f"CCF, LLCT, LLCM or LLCH, got {doc.get('category')!r}") from None


def _shaped(name: str, value, kind):
    """`value`, if a `kind` (dict or list); else a ConfigError naming it."""
    if not isinstance(value, kind):
        raise ConfigError(f"{name} must be a {'mapping' if kind is dict else 'list'}, "
                          f"got {value!r}")
    return value


def _section(name: str, doc, keys) -> dict:
    """`doc`, if a mapping that holds no key but `keys`; else a ConfigError
    naming the section and the first other key."""
    for key in _shaped(name, doc, dict):
        if key not in keys:
            raise ConfigError(f"{name}: unknown key {key!r}")
    return doc


def _integer(name: str, value) -> int:
    """`value` as an int; a float only when it is integral, a boolean never
    (YAML's `true` is not 1)."""
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError(value)
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _number(name: str, value) -> float:
    try:
        if isinstance(value, bool):
            raise ValueError(value)
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


def _boolean(name: str, value) -> bool:
    """`value`, if a YAML boolean; not read with bool(), under which "false"
    is true."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _at_least(name: str, value, low: int) -> int:
    value = _integer(name, value)
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return value


def load_config(path, seed: int | None = None) -> ExperimentConfig:
    """The config in the file `path`.  A `seed` given stands for the file's
    `seed:`, so the workload entries take their default seed from it too."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML/JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: byte {exc.object[exc.start]:#04x} is not UTF-8 "
                          f"({exc.reason})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    if seed is not None:
        doc["seed"] = seed
    return config_from_dict(doc)


def config_from_dict(doc: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    try:
        _section("top level", doc, TOP_KEYS)
        if "mapping" in doc:
            cfg.mapping = _mapping_from(_section("mapping", doc["mapping"],
                                                 (*MAPPING_INTS, *MAPPING_BITS)))
        hier = _section("hierarchy", doc.get("hierarchy", {}), ("private", "llc", "latencies"))
        if "private" in hier:
            cfg.private_cache = _cache_from("hierarchy.private", hier["private"], CacheConfig,
                                            size=DEFAULT_PRIVATE.size_bytes,
                                            ways=DEFAULT_PRIVATE.ways)
        if "llc" in hier:
            cfg.llc_ways = _cache_from("hierarchy.llc", hier["llc"],
                                       lambda ways: power_of_two("ways", ways),
                                       ways=DEFAULT_LLC_WAYS)
        if "latencies" in hier:
            latencies = _section("hierarchy.latencies", hier["latencies"],
                                 DEFAULT_LATENCIES)
            cfg.latencies = {**DEFAULT_LATENCIES,
                             **{k: _at_least(f"hierarchy.latencies.{k}", v, 0)
                                for k, v in latencies.items()}}
        if "sampler" in doc:
            s = _section("sampler", doc["sampler"], ("period", "bucket_weights"))
            cfg.sampler = _checked(
                "sampler", SamplerConfig,
                period=_integer("sampler.period", s.get("period", SamplerConfig.period)),
                bucket_weights=_bucket_weights(s["bucket_weights"]) if "bucket_weights" in s
                else None)
        if "thresholds" in doc:
            names = [f.name for f in fields(Thresholds)]
            t = _section("thresholds", doc["thresholds"], names)
            defaults = Thresholds()
            read = {int: _integer, float: _number}      # by the default's type
            cfg.thresholds = _checked("thresholds", Thresholds, **{
                f: read[type(getattr(defaults, f))](f"thresholds.{f}",
                                                    t.get(f, getattr(defaults, f)))
                for f in names})
        cfg.seed = _at_least("seed", doc.get("seed", cfg.seed), 0)
        cfg.policy = str(doc.get("policy", cfg.policy))
        cfg.core_count = _integer("core_count", doc.get("core_count", cfg.core_count))
        cfg.multithreaded = _boolean("multithreaded", doc.get("multithreaded", cfg.multithreaded))
        cfg.mix_chunk = _at_least("mix_chunk", doc.get("mix_chunk", cfg.mix_chunk), 1)
        cfg.allow_fallback = _boolean("allow_fallback",
                                      doc.get("allow_fallback", cfg.allow_fallback))
        # 0 (or none) means no epochs
        if doc.get("epoch") is not None:
            cfg.epoch = _at_least("epoch", doc["epoch"], 0) or None
        workload = doc.get("workload", [])
        if not isinstance(workload, list):
            raise ConfigError(f"workload must be a list of mappings, got {workload!r}")
        cfg.workload = [_workload_entry(w, i, cfg.seed) for i, w in enumerate(workload)]
        if doc.get("profile"):
            cfg.profile = [_profile_entry(p, i)
                           for i, p in enumerate(_shaped("profile", doc["profile"], list))]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config: {exc}") from None

    violations = validate_mapping(cfg.mapping)
    if violations:
        raise ConfigError("invalid mapping: " + "; ".join(violations))
    if cfg.mapping.total_pages < 1:
        raise ConfigError(f"mapping.mem_bytes must hold at least one "
                          f"{cfg.mapping.page_bytes}-byte page, got {cfg.mapping.mem_bytes}")
    private_sets(cfg.mapping, cfg.private_cache)
    taken = {}
    for i, entry in enumerate(cfg.workload):
        where = f"workload[{i}] (app {entry.app!r}): core {entry.core}"
        if not 0 <= entry.core < cfg.core_count:
            raise ConfigError(f"{where} is outside [0, {cfg.core_count}) (core_count)")
        if entry.core in taken:
            raise ConfigError(f"{where} is already taken by {taken[entry.core]}")
        taken[entry.core] = f"workload[{i}] (app {entry.app!r})"
    profiled = [app for app, _ in cfg.profile or ()]
    for i, app in enumerate(profiled):
        if profiled.index(app) != i:
            raise ConfigError(f"profile[{i}] (app {app!r}): duplicate app, already in "
                              f"profile[{profiled.index(app)}]")
    if cfg.profile and cfg.workload:
        apps = {"workload": [entry.app for entry in cfg.workload],
                "profile": [app for app, _ in cfg.profile]}
        for (where, mine), other in zip(apps.items(), ("profile", "workload")):
            for i, app in enumerate(mine):
                if app not in apps[other]:
                    raise ConfigError(f"{where}[{i}] (app {app!r}) is not in the {other}")
    return cfg
