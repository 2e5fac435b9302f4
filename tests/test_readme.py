"""README examples: the command lines, the configuration file and the library
snippet run as written, and the configuration section names the current
default config hash."""

import json
import re
import shlex
from pathlib import Path

from tmsim.cli import EXIT_OK, _build_parser, main
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


def _section(title):
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _configuration_section():
    return _section("Configuration")


def _command_lines(section):
    """The arguments of each ``tmsim`` line of the ``sh`` blocks, continuations joined, split as a shell would."""
    commands = []
    for info, body in _fenced_blocks(section):
        if info == "sh":
            for line in body.replace("\\\n", " ").splitlines():
                words = shlex.split(line)
                if words[:1] == ["tmsim"]:
                    commands.append(words[1:])
    return commands


def test_command_line_examples_run(tmp_path, monkeypatch):
    # in order: eval reads the network that train wrote
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TMSIM_TRAIN__EPOCHS", "2")
    commands = _command_lines(_section("Command line"))
    assert [argv[0] for argv in commands] == ["dataset", "train", "eval", "sweep", "leakage", "cost"]
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
        args = _build_parser().parse_args(argv)
        manifest = json.loads((Path(args.out) / f"{args.command}.manifest.json").read_text())
        # the reports a run declares, which the overwrite check looks for, are the ones it writes
        assert sorted(manifest["outputs"]) == sorted(args.reports)


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
