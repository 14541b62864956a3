"""Scenario files: strict JSON schema, validation, deterministic generation.

A scenario document pins everything an experiment needs: node geometry,
batteries, how path loss arises (explicit per node, or distance to the base
station raised to gamma), the correlation model, the energy mode, and any
solver overrides. Unknown fields are rejected so typos fail loudly, and
generation is a pure function of the seed with one random stream per field,
so extending the format never shifts existing draws.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .energy import LN2, EnergyMode, Shannon, Srra
from .errors import ValidationError
from .model import BitDistance, ClusterSpec, GaussianField, NodeSpec

FORMAT_VERSION = 1

_TOP_FIELDS = {"version", "base_station", "path_loss", "correlation", "energy_mode", "solver", "nodes"}
_NODE_FIELDS = {"id", "x", "y", "energy", "path_loss"}
# Only samples_per_schedule is read; grid_density and threads are accepted and
# ignored so version-1 files that set them keep loading.
_SOLVER_FIELDS = {"samples_per_schedule", "grid_density", "threads"}


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: the cluster plus run configuration."""

    cluster: ClusterSpec
    mode: EnergyMode
    base_station: tuple[float, float]
    solver: dict = field(default_factory=dict)
    document: dict = field(default_factory=dict)


def _fail(path: str, message: str):
    raise ValidationError(f"{path}: {message}")


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        _fail(f"{path}.{key}" if path else key, "missing required field")
    return doc[key]


def _check_unknown(doc: dict, allowed: set, path: str):
    unknown = set(doc) - allowed
    if unknown:
        _fail(path or "<root>", f"unknown fields {sorted(unknown)}")


def _number(value, path: str, positive=False, nonnegative=False) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        _fail(path, f"expected a finite number, got {value!r}")
    if positive and value <= 0:
        _fail(path, f"must be positive, got {value}")
    if nonnegative and value < 0:
        _fail(path, f"must be nonnegative, got {value}")
    return float(value)


def parse_scenario(doc: dict) -> Scenario:
    """Validate a scenario document and build the cluster it describes."""
    if not isinstance(doc, dict):
        raise ValidationError("scenario document must be a JSON object")
    _check_unknown(doc, _TOP_FIELDS, "")
    version = _require(doc, "version", "")
    if version != FORMAT_VERSION:
        _fail("version", f"unsupported format version {version!r}, expected {FORMAT_VERSION}")

    bs = _require(doc, "base_station", "")
    if not (isinstance(bs, list) and len(bs) == 2):
        _fail("base_station", "expected [x, y]")
    base_station = (_number(bs[0], "base_station[0]"), _number(bs[1], "base_station[1]"))

    pl = _require(doc, "path_loss", "")
    if not isinstance(pl, dict):
        _fail("path_loss", "expected an object")
    rule = _require(pl, "rule", "path_loss")
    if rule == "explicit":
        _check_unknown(pl, {"rule"}, "path_loss")
        gamma = None
    elif rule == "distance_power":
        _check_unknown(pl, {"rule", "gamma"}, "path_loss")
        gamma = _number(pl.get("gamma", 2.0), "path_loss.gamma", positive=True)
    else:
        _fail("path_loss.rule", f"expected 'explicit' or 'distance_power', got {rule!r}")

    corr_doc = _require(doc, "correlation", "")
    if not isinstance(corr_doc, dict):
        _fail("correlation", "expected an object")
    kind = _require(corr_doc, "model", "correlation")
    if kind == "bit_distance":
        _check_unknown(corr_doc, {"model", "n"}, "correlation")
        n_bits = _require(corr_doc, "n", "correlation")
        if not isinstance(n_bits, int) or isinstance(n_bits, bool) or n_bits < 1:
            _fail("correlation.n", f"expected a positive integer, got {n_bits!r}")
        correlation = BitDistance(n_bits)
    elif kind == "gaussian":
        _check_unknown(corr_doc, {"model", "sigma2", "a", "offset"}, "correlation")
        correlation = GaussianField(
            sigma2=_number(_require(corr_doc, "sigma2", "correlation"), "correlation.sigma2", positive=True),
            a=_number(_require(corr_doc, "a", "correlation"), "correlation.a", nonnegative=True),
            offset=_number(corr_doc.get("offset", 0.0), "correlation.offset"),
        )
    else:
        _fail("correlation.model", f"expected 'bit_distance' or 'gaussian', got {kind!r}")

    mode_doc = _require(doc, "energy_mode", "")
    if not isinstance(mode_doc, dict):
        _fail("energy_mode", "expected an object")
    mode_kind = _require(mode_doc, "mode", "energy_mode")
    if mode_kind == "shannon":
        _check_unknown(mode_doc, {"mode"}, "energy_mode")
        mode: EnergyMode = Shannon()
    elif mode_kind == "srra":
        _check_unknown(mode_doc, {"mode", "c"}, "energy_mode")
        mode = Srra(c=_number(mode_doc.get("c", LN2), "energy_mode.c", positive=True))
    else:
        _fail("energy_mode.mode", f"expected 'shannon' or 'srra', got {mode_kind!r}")

    solver = doc.get("solver", {})
    if not isinstance(solver, dict):
        _fail("solver", "expected an object")
    _check_unknown(solver, _SOLVER_FIELDS, "solver")

    nodes_doc = _require(doc, "nodes", "")
    if not isinstance(nodes_doc, list) or not nodes_doc:
        _fail("nodes", "expected a non-empty list")
    explicit_flags = []
    nodes = []
    seen_ids = set()
    for i, nd in enumerate(nodes_doc):
        path = f"nodes[{i}]"
        if not isinstance(nd, dict):
            _fail(path, "expected an object")
        _check_unknown(nd, _NODE_FIELDS, path)
        node_id = _require(nd, "id", path)
        if not isinstance(node_id, int) or isinstance(node_id, bool) or node_id < 0:
            _fail(f"{path}.id", f"expected a nonnegative integer, got {node_id!r}")
        if node_id in seen_ids:
            _fail(f"{path}.id", f"duplicate node id {node_id}")
        seen_ids.add(node_id)
        x = _number(_require(nd, "x", path), f"{path}.x")
        y = _number(_require(nd, "y", path), f"{path}.y")
        energy = _number(_require(nd, "energy", path), f"{path}.energy", positive=True)
        explicit_flags.append("path_loss" in nd)
        if "path_loss" in nd:
            d = _number(nd["path_loss"], f"{path}.path_loss", positive=True)
        else:
            if rule == "explicit":
                _fail(f"{path}.path_loss", "missing path_loss under the explicit rule")
            dist = math.hypot(x - base_station[0], y - base_station[1])
            if dist == 0:
                _fail(f"{path}", "node sits on the base station; path loss undefined")
            d = dist**gamma
        nodes.append(NodeSpec(id=node_id, position=(x, y), energy=energy, path_loss=d))
    if any(explicit_flags) and not all(explicit_flags):
        _fail("nodes", "either every node carries explicit path_loss or none does")

    cluster = ClusterSpec(nodes, correlation)
    return Scenario(cluster=cluster, mode=mode, base_station=base_station, solver=dict(solver), document=doc)


def load_scenario(path) -> Scenario:
    """Read, validate and materialize a scenario file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return parse_scenario(doc)


def generate_scenario(
    seed: int,
    n_nodes: int,
    area_side: float = 3.0,
    correlation: dict | None = None,
    energy_mode: dict | None = None,
    base_station: tuple[float, float] = (0.0, 0.0),
    gamma: float = 2.0,
    energy_range: tuple[float, float] = (0.5, 2.0),
    min_separation: float = 0.0,
) -> dict:
    """Deterministic random scenario document.

    Nodes are uniform over the square [1, 1+area_side]^2 (offset from the
    base station so no node lands on it), resampled until all pairwise gaps
    exceed ``min_separation``. Positions and energies draw from separate
    streams spawned off numpy's SeedSequence, so the streams never interfere.
    """
    if n_nodes < 1:
        raise ValidationError("n_nodes must be >= 1")
    correlation = correlation or {"model": "bit_distance", "n": 5}
    energy_mode = energy_mode or {"mode": "shannon"}
    pos_rng, energy_rng = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]
    for _ in range(10000):
        pos = pos_rng.uniform(1.0, 1.0 + area_side, size=(n_nodes, 2))
        if n_nodes == 1:
            break
        diff = pos[:, None, :] - pos[None, :, :]
        dists = np.sqrt((diff**2).sum(axis=2))
        if dists[~np.eye(n_nodes, dtype=bool)].min() > min_separation:
            break
    else:
        raise ValidationError("could not place nodes with the requested min_separation")
    energies = energy_rng.uniform(energy_range[0], energy_range[1], size=n_nodes)
    doc = {
        "version": FORMAT_VERSION,
        "base_station": [base_station[0], base_station[1]],
        "path_loss": {"rule": "distance_power", "gamma": gamma},
        "correlation": correlation,
        "energy_mode": energy_mode,
        "nodes": [
            {
                "id": i,
                "x": float(pos[i, 0]),
                "y": float(pos[i, 1]),
                "energy": float(energies[i]),
            }
            for i in range(n_nodes)
        ],
    }
    parse_scenario(doc)  # generated files must always validate
    return doc


def dump_scenario(doc: dict) -> str:
    """Canonical serialization: stable key order, newline-terminated."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_scenario(doc: dict, path):
    with open(path, "w") as fh:
        fh.write(dump_scenario(doc))
