"""Smoke tests: every example application runs end to end.

Each example is imported as a module and its ``main()`` executed with
stdout captured — the guarantee that the documented entry points of the
repository stay alive as the library evolves.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def load_example(path: Path):
    """Import an example file as a throwaway module."""
    name = f"example_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(name, None)
    return module


@pytest.mark.parametrize("path", EXAMPLE_FILES,
                         ids=lambda p: p.stem)
def test_example_runs(path, capsys):
    module = load_example(path)
    assert hasattr(module, "main"), f"{path.name} must expose main()"
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"{path.name} produced no output"


def test_expected_examples_present():
    names = {p.stem for p in EXAMPLE_FILES}
    required = {
        "quickstart",
        "speech_decoder_pipeline",
        "design_space_exploration",
        "wireless_link_study",
        "implant_stream_simulation",
        "cursor_decoding_comparison",
        "closed_loop_bci",
        "data_reduction_study",
        "spike_sorting_walkthrough",
        "online_cursor_session",
    }
    assert required <= names
