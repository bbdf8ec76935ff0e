from pathlib import Path

from lidarpgt.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_entry_points_block_runs():
    section = README.read_text().split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})


def test_command_line_block_parses():
    section = README.read_text().split("## Command-line usage", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [line.split()[1:] for line in lines if line.startswith("lidarpgt ")]
    assert len(commands) == 6
    for argv in commands:
        build_parser().parse_args(argv)
