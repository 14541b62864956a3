import json
import math

import numpy as np
import pytest

from clusterlife import (
    BitDistance,
    GaussianField,
    Shannon,
    Srra,
    ValidationError,
)
from clusterlife.scenario import (
    FORMAT_VERSION,
    dump_scenario,
    generate_scenario,
    load_scenario,
    parse_scenario,
    write_scenario,
)


def minimal_doc(**overrides):
    doc = {
        "version": FORMAT_VERSION,
        "base_station": [0.0, 0.0],
        "path_loss": {"rule": "distance_power", "gamma": 2.0},
        "correlation": {"model": "bit_distance", "n": 4},
        "energy_mode": {"mode": "shannon"},
        "nodes": [
            {"id": 0, "x": 1.0, "y": 0.0, "energy": 1.0},
            {"id": 1, "x": 2.0, "y": 0.0, "energy": 2.0},
        ],
    }
    doc.update(overrides)
    return doc


def test_parse_minimal():
    scn = parse_scenario(minimal_doc())
    assert scn.cluster.n == 2
    assert isinstance(scn.mode, Shannon)
    assert scn.cluster.path_losses == pytest.approx([1.0, 4.0])  # dist^gamma
    assert scn.cluster.energies == pytest.approx([1.0, 2.0])


def test_gamma_and_explicit_path_loss():
    doc = minimal_doc(path_loss={"rule": "distance_power", "gamma": 3.0})
    assert parse_scenario(doc).cluster.path_losses == pytest.approx([1.0, 8.0])
    doc = minimal_doc(path_loss={"rule": "explicit"})
    doc["nodes"][0]["path_loss"] = 5.0
    doc["nodes"][1]["path_loss"] = 7.0
    assert parse_scenario(doc).cluster.path_losses == pytest.approx([5.0, 7.0])


def test_explicit_rule_all_or_none():
    doc = minimal_doc(path_loss={"rule": "explicit"})
    doc["nodes"][0]["path_loss"] = 5.0
    with pytest.raises(ValidationError, match="path_loss"):
        parse_scenario(doc)


def test_unknown_fields_rejected_with_paths():
    with pytest.raises(ValidationError, match="bogus"):
        parse_scenario(minimal_doc(bogus=1))
    doc = minimal_doc()
    doc["nodes"][1]["extra"] = 1
    with pytest.raises(ValidationError, match=r"nodes\[1\]"):
        parse_scenario(doc)
    with pytest.raises(ValidationError, match="correlation"):
        parse_scenario(minimal_doc(correlation={"model": "bit_distance", "n": 4, "q": 1}))
    with pytest.raises(ValidationError, match="solver"):
        parse_scenario(minimal_doc(solver={"weird": 3}))


def test_ignored_solver_fields_still_parse():
    # version-1 files may set threads and grid_density; both are accepted and ignored
    solver = {"samples_per_schedule": 4, "threads": 8, "grid_density": 20}
    scn = parse_scenario(minimal_doc(solver=solver))
    assert scn.solver == solver


@pytest.mark.parametrize("value", ["abc", 2.7, True, 0, -1, None])
def test_samples_per_schedule_must_be_a_positive_int(value):
    with pytest.raises(ValidationError, match="samples_per_schedule"):
        parse_scenario(minimal_doc(solver={"samples_per_schedule": value}))


def test_version_and_required_fields():
    with pytest.raises(ValidationError, match="version"):
        parse_scenario(minimal_doc(version=99))
    doc = minimal_doc()
    del doc["correlation"]
    with pytest.raises(ValidationError, match="correlation"):
        parse_scenario(doc)
    with pytest.raises(ValidationError):
        parse_scenario([])


def test_node_validation():
    doc = minimal_doc()
    doc["nodes"][1]["id"] = 0
    with pytest.raises(ValidationError, match="duplicate"):
        parse_scenario(doc)
    doc = minimal_doc()
    doc["nodes"][0]["energy"] = -1.0
    with pytest.raises(ValidationError, match=r"nodes\[0\].energy"):
        parse_scenario(doc)
    doc = minimal_doc()
    doc["nodes"][0]["x"] = float("nan")
    with pytest.raises(ValidationError, match=r"nodes\[0\].x"):
        parse_scenario(doc)
    # a node sitting on the base station has no defined distance path loss
    doc = minimal_doc()
    doc["nodes"][0].update(x=0.0, y=0.0)
    with pytest.raises(ValidationError, match="base station"):
        parse_scenario(doc)
    with pytest.raises(ValidationError, match="nodes"):
        parse_scenario(minimal_doc(nodes=[]))


def test_correlation_and_mode_variants():
    doc = minimal_doc(
        correlation={"model": "gaussian", "sigma2": 1.0, "a": 0.5, "offset": 3.0}
    )
    scn = parse_scenario(doc)
    assert isinstance(scn.cluster.correlation, GaussianField)
    doc = minimal_doc(energy_mode={"mode": "srra", "c": 0.5})
    scn = parse_scenario(doc)
    assert isinstance(scn.mode, Srra)
    assert scn.mode.c == 0.5
    with pytest.raises(ValidationError, match="energy_mode.mode"):
        parse_scenario(minimal_doc(energy_mode={"mode": "warp"}))
    with pytest.raises(ValidationError, match="correlation.model"):
        parse_scenario(minimal_doc(correlation={"model": "magic"}))
    with pytest.raises(ValidationError, match="correlation.n"):
        parse_scenario(minimal_doc(correlation={"model": "bit_distance", "n": 0}))


def test_generate_is_deterministic_and_valid(tmp_path):
    doc1 = generate_scenario(seed=42, n_nodes=5, min_separation=0.3)
    doc2 = generate_scenario(seed=42, n_nodes=5, min_separation=0.3)
    assert dump_scenario(doc1) == dump_scenario(doc2)  # byte-identical
    assert dump_scenario(doc1) != dump_scenario(generate_scenario(seed=43, n_nodes=5))
    scn = parse_scenario(doc1)
    assert scn.cluster.n == 5
    # pairwise separation honored
    d = scn.cluster.distances
    assert d[~np.eye(5, dtype=bool)].min() > 0.3
    # roundtrip through the filesystem
    path = tmp_path / "scn.json"
    write_scenario(doc1, path)
    loaded = load_scenario(path)
    assert loaded.cluster.energies == pytest.approx(scn.cluster.energies)
    assert json.loads(dump_scenario(doc1)) == doc1


def test_generate_options():
    doc = generate_scenario(
        seed=1,
        n_nodes=3,
        correlation={"model": "gaussian", "sigma2": 1.0, "a": 0.4, "offset": 3.0},
        energy_mode={"mode": "srra"},
        gamma=3.0,
        energy_range=(1.0, 1.0),
    )
    scn = parse_scenario(doc)
    assert isinstance(scn.mode, Srra)
    assert np.all(scn.cluster.energies == 1.0)
    for node in scn.cluster.nodes:
        dist = math.hypot(*node.position)
        assert node.path_loss == pytest.approx(dist**3.0)
    with pytest.raises(ValidationError):
        generate_scenario(seed=1, n_nodes=0)
    with pytest.raises(ValidationError):
        generate_scenario(seed=1, n_nodes=30, area_side=0.5, min_separation=2.0)


def test_load_errors(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_scenario(bad)
