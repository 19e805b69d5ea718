"""Run-config parsing: range checks and the README's config example."""

import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from crossmodal.config import (
    ConfigFormatError,
    RunConfig,
    load_run_config,
    run_config_from_dict,
    save_run_config,
)

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


@pytest.mark.parametrize("section", ["schedule", "finetune"])
@pytest.mark.parametrize("field, value", [
    ("clip_norm", -1.0), ("clip_norm", 0.0), ("warmup_fraction", 3.0),
    ("warmup_fraction", 1.0), ("warmup_fraction", -0.1),
])
def test_clip_norm_and_warmup_fraction_out_of_range_are_rejected(section, field, value):
    with pytest.raises(ValueError, match=f"{section}.{field}"):
        run_config_from_dict({section: {field: value}})


@pytest.mark.parametrize("section", ["schedule", "finetune"])
def test_clip_norm_may_be_null(section):
    assert getattr(run_config_from_dict({section: {"clip_norm": None}}), section).clip_norm is None


def test_readme_config_example_shows_the_defaults():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Configuration"):]
    example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    assert run_config_from_dict(example) == RunConfig()


def _config_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "config.json")
        save_run_config(RunConfig(), path)
        with open(path, "rb") as fh:
            return fh.read()


CONFIG_BYTES = _config_bytes()


def _load_config_bytes(raw: bytes) -> RunConfig:
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "config.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        return load_run_config(path)


def test_saved_config_loads_as_it_was():
    assert _load_config_bytes(CONFIG_BYTES) == RunConfig()


@pytest.mark.parametrize("raw, message", [
    (CONFIG_BYTES[:len(CONFIG_BYTES) // 2], r"line \d+ column \d+"),
    (CONFIG_BYTES.replace(b'"model"', b'"m\xffdel"'), "utf-8"),
    (b"[]", "must be a JSON object"),
    (b'{"model": {"dropout": 1.5}}', r"dropout must be in \[0, 1\)"),
    (b'{"model": {"hidden_size": "64"}}', "config .*config.json: "),
], ids=["truncated", "not-utf8", "not-an-object", "out-of-range", "mistyped"])
def test_config_file_that_does_not_parse_or_build_is_a_format_error(raw, message):
    with pytest.raises(ConfigFormatError, match=message):
        _load_config_bytes(raw)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_config_truncated_or_with_one_flipped_byte_loads_or_raises_a_format_error(data):
    raw = bytearray(CONFIG_BYTES)
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")]
    else:
        raw[data.draw(st.integers(0, len(raw) - 1), label="offset")] ^= data.draw(
            st.integers(1, 255), label="xor")
    try:
        _load_config_bytes(bytes(raw))
    except ConfigFormatError:
        pass
