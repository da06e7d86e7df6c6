"""Property tests for the two JSON parsers, the CLI config and the checkpoint
manifest, and for the typed decoder both use, :func:`hot.model.from_json`."""

import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hot.cli import CONFIGS, ConfigError, load_config
from hot.features import FeatureMapSpec
from hot.model import (
    HeadConfig,
    HOTBlockConfig,
    HOTModel,
    ModelConfig,
    PatchEmbedConfig,
    RotaryConfig,
    from_json,
)

# integers stay small, so no replaced dimension, head count or block count can
# make a large model (the parsers themselves allocate nothing by size)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-12, 12) | st.floats() | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=6,
)


def paths(doc, prefix=()):
    """Every path to a value inside ``doc`` (the root excluded)."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def default_document(command):
    return json.loads(json.dumps(asdict(CONFIGS[command]())))


def voxel_config():
    return ModelConfig(
        raw_dims=(4, 4, 2), patch=PatchEmbedConfig((2, 2, 1)), rotary=RotaryConfig(modes=(0, 2)),
        block=HOTBlockConfig(dims=(2, 2, 2), d_model=8, heads=2, variant="factored-linear",
                             mode_mask=(True, False, True),
                             feature_spec=FeatureMapSpec(6, 4, seed=3),
                             norm_placement="pre", pooling="mean"),
        num_blocks=2, head=HeadConfig(task="classify", pooling="flatten", num_classes=3),
    )


def forecast_config():
    return ModelConfig(
        raw_dims=(8, 3), patch=PatchEmbedConfig((4, 1)),
        rotary=RotaryConfig(modes=(0,), base=100.0),
        block=HOTBlockConfig(dims=(2, 3), d_model=8, heads=4, ffn_dim=12),
        num_blocks=1, head=HeadConfig(task="forecast", horizon=2, n_series=3),
    )


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("cfg") / "config.json"


@pytest.mark.parametrize("command", sorted(CONFIGS))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_config_with_one_value_replaced_loads_or_raises_config_error(config_file, command, data):
    doc = default_document(command)
    path = data.draw(st.sampled_from(list(paths(doc))), label="path")
    config_file.write_text(json.dumps(replaced(doc, path, data.draw(JSON_VALUES, label="value"))))
    try:
        config = load_config(command, str(config_file), {})
    except ConfigError:
        return
    assert isinstance(config, CONFIGS[command])


@pytest.fixture(scope="module", params=["voxel", "forecast"])
def checkpoint(request, tmp_path_factory):
    cfg = voxel_config() if request.param == "voxel" else forecast_config()
    directory = tmp_path_factory.mktemp("ckpt")
    HOTModel.initialize(cfg, seed=1).save(directory)
    return directory, json.loads((directory / "manifest.json").read_text())


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_manifest_with_one_value_replaced_loads_or_raises_value_error(checkpoint, data):
    directory, manifest = checkpoint
    path = data.draw(st.sampled_from(list(paths(manifest))), label="path")
    (directory / "manifest.json").write_text(
        json.dumps(replaced(manifest, path, data.draw(JSON_VALUES, label="value"))))
    try:
        model = HOTModel.load(directory)
    except ValueError:
        return
    assert isinstance(model, HOTModel)


@pytest.mark.parametrize("cfg", [voxel_config(), forecast_config()], ids=["voxel", "forecast"])
def test_model_config_round_trips_through_json(cfg):
    assert from_json(ModelConfig, json.loads(json.dumps(asdict(cfg))), "config") == cfg


class TestFromJson:
    def test_errors_name_the_path(self):
        doc = json.loads(json.dumps(asdict(forecast_config())))
        doc["block"]["d_model"] = 8.0
        with pytest.raises(TypeError,
                           match=r"config\.block\.d_model must be an integer, got 8\.0"):
            from_json(ModelConfig, doc, "config")
        doc = replaced(default_document("train"), ("mask",), [True, 1])
        with pytest.raises(TypeError, match=r"train\.mask\[1\] must be a boolean, got 1"):
            from_json(CONFIGS["train"], doc, "train")

    def test_exactly_the_fields(self):
        doc = json.loads(json.dumps(asdict(forecast_config())))
        del doc["rotary"]["base"]
        doc["rotary"]["extra"] = 1
        with pytest.raises(TypeError, match=r"missing keys \['base'\], unknown keys \['extra'\]"):
            from_json(ModelConfig, doc, "config")

    def test_integer_is_a_number_but_boolean_is_not_an_integer(self):
        assert from_json(RotaryConfig, {"modes": [], "base": 100}, "rotary").base == 100.0
        with pytest.raises(TypeError, match=r"rotary\.modes\[0\] must be an integer, got true"):
            from_json(RotaryConfig, {"modes": [True], "base": 1.0}, "rotary")

    def test_fixed_length_tuple(self):
        doc = replaced(default_document("train"), ("volume",), [8, 8])
        with pytest.raises(TypeError, match=r"train\.volume must be an array of 3, got \[8, 8\]"):
            from_json(CONFIGS["train"], doc, "train")
