"""Config files and the strict dict reader behind them and checkpoint meta."""

import re
from dataclasses import asdict, dataclass
from pathlib import Path

import pytest

from speechsr.config import TrainConfig, from_dict, load_run_spec
from speechsr.diffusion import NoiseSchedule
from speechsr.errors import ConfigError
from speechsr.networks import ArcnConfig, DparnConfig

PATHS = "train_manifest = m.tsv\nvalid_manifest = m.tsv\nout_dir = run\n"
README = Path(__file__).resolve().parent.parent / "README.md"


def _spec(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return load_run_spec(path)


class TestLoadRunSpec:
    def test_empty_sections_give_the_defaults(self, tmp_path):
        spec = _spec(tmp_path, PATHS)
        assert spec.train == TrainConfig()
        assert spec.schedule == NoiseSchedule()
        assert spec.arcn == ArcnConfig()
        assert spec.dparn == DparnConfig()

    def test_section_values_overlay_the_defaults(self, tmp_path):
        spec = _spec(tmp_path, PATHS + "train.epochs = 7\ndparn.feature_dim = 32\n")
        assert spec.train == TrainConfig(epochs=7)
        assert spec.dparn == DparnConfig(feature_dim=32)

    @pytest.mark.parametrize("key, value, read", [
        ("frame_ms", 16, lambda a: a.frame_ms),
        ("temb_dim", 32, lambda a: a.temb_dim),
        ("temb_out", 48, lambda a: a.temb_out),
    ], ids=["frame_ms", "temb_dim", "temb_out"])
    def test_each_arcn_alias_lands_in_its_nested_field(self, tmp_path, key, value, read):
        assert read(_spec(tmp_path, PATHS + f"arcn.{key} = {value}\n").arcn) == value

    def test_schedule_total_steps_is_not_an_arcn_key(self, tmp_path):
        with pytest.raises(ConfigError, match="arcn.schedule_total_steps"):
            _spec(tmp_path, PATHS + "arcn.schedule_total_steps = 50\n")

    def test_paths_resolve_against_the_config_directory(self, tmp_path):
        absolute = tmp_path / "elsewhere" / "valid.tsv"
        spec = _spec(tmp_path, f"train_manifest = corpus/m.tsv\nvalid_manifest = {absolute}\n"
                               "out_dir = runs/demo\n")
        assert spec.train_manifest == str(tmp_path / "corpus" / "m.tsv")
        assert spec.valid_manifest == str(absolute)
        assert spec.out_dir == str(tmp_path / "runs" / "demo")

    @pytest.mark.parametrize("text, named", [
        (PATHS + "optimizer.momentum = 0.9\n", "'optimizer'"),
        (PATHS + "train.momentum = 0.9\n", "'train.momentum'"),
        (PATHS + "nonsense_key = 1\n", "'nonsense_key'"),
        ("train_manifest = m.tsv\nvalid_manifest = m.tsv\n", "'out_dir'"),
        (PATHS + "arcn.decoder_blocks = 5\n", "'arcn.decoder_blocks'"),
        (PATHS + "arcn.network_bins = 256\n", "'arcn.network_bins'"),
    ], ids=["unknown section", "unknown key", "unknown top-level key", "missing out_dir",
            "derived decoder_blocks", "derived network_bins"])
    def test_unknown_or_missing_keys_are_config_errors(self, tmp_path, text, named):
        with pytest.raises(ConfigError, match=named):
            _spec(tmp_path, text)

    def test_a_key_set_twice_names_both_lines(self, tmp_path):
        with pytest.raises(ConfigError, match=r"line 5: 'train.epochs' is already set on line 4"):
            _spec(tmp_path, PATHS + "train.epochs = 5\ntrain.epochs = 7\n")


def _readme_schema() -> dict[str, dict[str, str]]:
    """README's "Config file schema" table as {section: {key: default text}}.

    The top-level row is section ``""``; a key without a parenthesised default
    maps to ``""``.
    """
    text = README.read_text().split("## Config file schema\n", 1)[1].split("\n## ", 1)[0]
    schema = {}
    for line in text.splitlines():
        cells = line.split(" | ")
        if len(cells) == 2 and "`" in cells[1]:
            section = cells[0].strip("| `").removesuffix(".")
            schema["" if section == "*top level*" else section] = dict(
                re.findall(r"`(\w+)`(?: \(([^;)= ]+))?", cells[1]))
    return schema


def test_readme_schema_lists_exactly_the_accepted_keys_and_defaults(tmp_path):
    """Each README row names every key of its section and nothing else, and
    setting every key to its README default gives the all-defaults ``RunSpec``."""
    schema = _readme_schema()
    top_level = schema.pop("")
    defaults = _spec(tmp_path, PATHS)
    values = asdict(defaults)
    assert set(top_level) == {name for name, value in values.items() if not isinstance(value, dict)}
    assert set(schema) == {name for name, value in values.items() if isinstance(value, dict)}
    for section, keys in schema.items():
        assert set(keys) == set(values[section]), section
    lines = "".join(f"{section}.{key} = {value}\n"
                    for section, keys in schema.items() for key, value in keys.items())
    assert _spec(tmp_path, PATHS + lines) == defaults


@dataclass(frozen=True)
class Inner:
    count: int
    scale: float
    note: str
    best: float | None


@dataclass(frozen=True)
class Outer:
    inner: Inner
    state: dict


GOOD = {"inner": {"count": 3, "scale": 2, "note": "x", "best": None}, "state": {}}


class TestFromDict:
    def test_rebuilds_nested_dataclasses(self):
        assert from_dict(Outer, GOOD, "f") == Outer(Inner(3, 2, "x", None), {})

    @pytest.mark.parametrize("field, value", [
        ("count", 1.5), ("count", 2.0), ("count", True), ("scale", "1"), ("scale", False),
        ("note", 1), ("best", "x"),
    ])
    def test_refuses_a_value_that_does_not_fit_its_annotation(self, field, value):
        bad = {**GOOD, "inner": {**GOOD["inner"], field: value}}
        with pytest.raises(ConfigError, match=rf"f: 'inner\.{field}' must be"):
            from_dict(Outer, bad, "f")

    def test_refuses_a_scalar_where_a_table_belongs(self):
        with pytest.raises(ConfigError, match="'inner' must be a table"):
            from_dict(Outer, {**GOOD, "inner": 3}, "f")

    def test_names_unknown_and_missing_nested_keys(self):
        with pytest.raises(ConfigError, match="unknown key 'inner.extra'"):
            from_dict(Outer, {**GOOD, "inner": {**GOOD["inner"], "extra": 1}}, "f")
        with pytest.raises(ConfigError, match="missing key 'state'"):
            from_dict(Outer, {"inner": GOOD["inner"]}, "f")

    def test_constructor_errors_become_config_errors(self):
        with pytest.raises(ConfigError, match=r"f: NoiseSchedule: inference_steps must lie in"):
            from_dict(NoiseSchedule, {"inference_steps": 0}, "f")
