"""README examples: the configuration file and the library snippet run as written,
and the configuration section names the current default config hash."""

import re
from pathlib import Path

from tmsim.cli import EXIT_OK, main
from tmsim.config import config_hash, load_config

README = Path(__file__).parent.parent / "README.md"


def _fenced_blocks(text):
    """(info string, body) of every fenced code block in markdown text."""
    blocks, info, body = [], None, []
    for line in text.splitlines():
        if line.startswith("```"):
            if info is None:
                info, body = line[3:].strip(), []
            else:
                blocks.append((info, "\n".join(body) + "\n"))
                info = None
        elif info is not None:
            body.append(line)
    return blocks


def _configuration_section():
    return README.read_text().split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]


def test_configuration_examples_run(tmp_path, monkeypatch):
    section = _configuration_section()
    blocks = _fenced_blocks(section)
    [config] = [body for info, body in blocks if info == ""]
    [code] = [body for info, body in blocks if info == "python"]

    path = tmp_path / "readme.cfg"
    path.write_text(config)
    assert main(["dataset", "--seed", "0", "--config", str(path),
                 "--out", str(tmp_path / "d")]) == EXIT_OK

    monkeypatch.setenv("TMSIM_TRAIN__EPOCHS", "2")
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["report"].entries


def test_configuration_names_the_current_default_hash():
    # a hash introduced as the current default, across a line break or not
    text = " ".join(_configuration_section().split())
    named = re.findall(r"current default `config_hash` is `([0-9a-f]{16})`", text)
    assert named, "the Configuration section names no current default config_hash"
    assert set(named) == {config_hash(load_config(environ={}))}
