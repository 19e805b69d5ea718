"""Run-config parsing: range checks and the README's config example."""

import json
import os
import re

import pytest

from crossmodal.config import RunConfig, run_config_from_dict

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
